"""Adversarial bump perturbation of a density pair.

Around the crossing a(P), the pair is tilted by a localized bump
Xi_eps(x) = eps * phi((x - a(P)) / eps):

    f_Q^+ = (1 + Xi rho^-) f^+,    f_Q^- = (1 - Xi rho^+) f^-.

Both corrections equal g = Xi f^+ f^- / (f^+ + f^-), so the mixture density
f^+ + f^- is preserved pointwise and the total mass stays 1.  The threshold
moves by order eps while the relative entropy only grows like eps^3; the
certificate assembled here witnesses both facts quantitatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .divergence import relative_entropy
from .errors import EpsTooLarge, NegativeDensity, PremiseFails, SupportEscapes
from .expr import BumpComposite, Const, CosSquaredProfile
from .model import DensityPair, nonneg_on_grid

__all__ = [
    "PerturbationPlan",
    "TwoPointCertificate",
    "default_bump",
    "make_plan",
    "perturb",
    "estimate_c1",
    "build_certificate",
    "two_point_premises",
]

_C1_CACHE_SIZE = 64  # (pair, bump) entries memoized by estimate_c1


def default_bump() -> CosSquaredProfile:
    """phi(x) = cos^2(pi x / 2) on [-1, 1]: ||phi||_2^2 = 3/4, ||phi'||_inf = pi/2."""
    return CosSquaredProfile(radius=1.0)


@dataclass(frozen=True)
class PerturbationPlan:
    n: int
    eps: float
    c4: float


@dataclass(frozen=True)
class TwoPointCertificate:
    plan: PerturbationPlan
    q: DensityPair
    entropy: float
    entropy_budget: float
    c1: float
    beta: float
    separation: float
    entropy_ok: bool
    separation_ok: bool


def _max_admissible_eps(P: DensityPair, phi: CosSquaredProfile) -> float:
    """Largest bump amplitude we are willing to certify: support stays well
    inside (0, 1) and |Xi rho| stays below 1/2, keeping f_Q positive."""
    a = P.threshold
    room = min(a, 1.0 - a) / phi.radius
    return 0.5 * min(room, 1.0)


def _log_11_delta(delta: float) -> float:
    """|log(11 delta)|, for the 0 < delta < 1/11 that the two-point
    inequalities need; any other delta fails the premise "delta"."""
    if not (0.0 < delta < 1.0 / 11.0):
        raise PremiseFails("delta", f"delta={delta} outside (0, 1/11)")
    return abs(math.log(11.0 * delta))


def make_plan(P: DensityPair, phi: CosSquaredProfile, delta: float,
              n: int) -> PerturbationPlan:
    """Amplitude schedule eps_n = c4 |log(11 delta)|^(1/3) n^(-1/3)."""
    log_11_delta = _log_11_delta(delta)
    if n < 1:
        raise ValueError("n must be >= 1")
    c4 = _c4(P, phi)
    eps = c4 * log_11_delta ** (1.0 / 3.0) * n ** (-1.0 / 3.0)
    eps_max = _max_admissible_eps(P, phi)
    if eps > eps_max:
        raise EpsTooLarge(f"eps={eps:.4g} exceeds the admissible amplitude "
                          f"{eps_max:.4g} for {P.name}")
    return PerturbationPlan(n=n, eps=eps, c4=c4)


@dataclass(frozen=True, kw_only=True)
class _PerturbedPair(DensityPair):
    """A pair built by `perturb`, which alone constructs it.

    `base` is the unperturbed pair whose f_sigma this pair equals in exact
    arithmetic; sampling draws X from it (`marginal`).  `breakpoints` lists
    interior x where some derivative of the densities jumps (bump support
    edges); quadrature makes them panel boundaries.
    """

    base: DensityPair = field(repr=False)
    breakpoints: tuple = field()  # required, not the inherited ()

    @property
    def marginal(self) -> DensityPair:
        return self.base


def perturb(P: DensityPair, phi: CosSquaredProfile, eps: float) -> DensityPair:
    """The perturbed pair Q with f_Q^+- = (1 +- Xi rho^-+) f^+-."""
    if not 0 < eps < math.inf:
        raise EpsTooLarge(f"eps must be positive and finite, got {eps}")
    a = P.threshold
    r = eps * phi.radius
    if not (0.0 < a - r and a + r < 1.0):
        raise SupportEscapes(
            f"bump support [{a - r:.4g}, {a + r:.4g}] not inside (0, 1)"
        )
    xi = BumpComposite(profile=phi, center=a, eps=eps)
    # common correction g = Xi rho^- f^+ = Xi rho^+ f^-
    g = xi * P.fplus * P.fminus / (P.fplus + P.fminus)
    fqp = P.fplus + g
    fqm = P.fminus - g
    if not (nonneg_on_grid(fqp)[0] and nonneg_on_grid(fqm)[0]):
        raise NegativeDensity(f"eps={eps} drives a sub-density negative")
    return _PerturbedPair(
        fplus=fqp,
        fminus=fqm,
        name=f"{P.name}+bump(eps={eps:.6g})",
        base=P.marginal,
        breakpoints=(*P.breakpoints, a - r, a + r),
    )


def _c4(P: DensityPair, phi: CosSquaredProfile) -> float:
    """c4 = (sup f * ||phi||_2^2)^(-1/3), the constant of the amplitude schedule."""
    return (P.sup_density() * phi.l2sq) ** (-1.0 / 3.0)


@lru_cache(maxsize=_C1_CACHE_SIZE)
def estimate_c1(P: DensityPair, phi: CosSquaredProfile) -> float:
    """Half of the admissible constant c4 / (16 c5).

    c5 certifies sup |(rho_Q^+)'| over the bump neighborhood, evaluated at a
    ladder of amplitudes up to the largest admissible one; halving the bound
    gives numerical margin against the grid estimate.  It depends only on
    (P, phi), so it is memoized on their value: a sweep over n and delta
    computes it once per pair.
    """
    return _c4(P, phi) / (32.0 * _c5(P, phi))


def _c5(P: DensityPair, phi: CosSquaredProfile) -> float:
    """Grid sup of |(rho_Q^+)'| on the widest admissible bump window."""
    a = P.threshold
    eps_max = _max_admissible_eps(P, phi)
    r = eps_max * phi.radius
    window = np.linspace(a - r, a + r, 4001)
    rho_plus = P.fplus / (P.fplus + P.fminus)
    rho_minus = P.fminus / (P.fplus + P.fminus)
    c5 = float(np.max(np.abs(rho_plus.der(window))))
    for eps in (eps_max, eps_max / 2, eps_max / 4, eps_max / 8):
        xi = BumpComposite(profile=phi, center=a, eps=eps)
        rho_q_plus = (Const(1.0) + xi * rho_minus) * rho_plus
        c5 = max(c5, float(np.max(np.abs(rho_q_plus.der(window)))))
    return c5


def two_point_premises(P: DensityPair, Q: DensityPair, n: int, beta: float,
                       delta: float) -> tuple:
    """(H, budget, separation, entropy_ok, separation_ok): the two-point
    premises n H(P, Q) <= budget = (1/2)|log(11 delta)| and
    separation = beta |a(P) - a(Q)| > 4, decided here alone for
    build_certificate and lowerbound.disjunction_check.
    A delta outside (0, 1/11) raises before any quadrature."""
    budget = 0.5 * _log_11_delta(delta)
    h = relative_entropy(P, Q)
    separation = beta * abs(P.threshold - Q.threshold)
    return h, budget, separation, bool(n * h <= budget), bool(separation > 4.0)


def build_certificate(P: DensityPair, phi: CosSquaredProfile, delta: float,
                      n: int) -> TwoPointCertificate:
    """Assemble the two-point pair (P, Q_n) and verify both inequality halves:
    n H(P, Q_n) <= (1/2)|log(11 delta)| and beta_n |a(P) - a(Q_n)| > 4."""
    plan = make_plan(P, phi, delta, n)
    q = perturb(P, phi, plan.eps)
    c1 = estimate_c1(P, phi)
    beta = n ** (1.0 / 3.0) / (c1 * _log_11_delta(delta) ** (1.0 / 3.0))
    entropy, budget, separation, entropy_ok, separation_ok = \
        two_point_premises(P, q, n, beta, delta)
    return TwoPointCertificate(
        plan=plan,
        q=q,
        entropy=entropy,
        entropy_budget=budget,
        c1=c1,
        beta=beta,
        separation=separation,
        entropy_ok=entropy_ok,
        separation_ok=separation_ok,
    )
