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
from dataclasses import dataclass

import numpy as np

from .divergence import QuadratureSpec, adaptive_simpson, relative_entropy
from .errors import DeltaOutOfRange, EpsTooLarge, NegativeDensity, SupportEscapes
from .expr import BumpComposite, Const, CosSquaredProfile, Field
from .model import DensityPair

__all__ = [
    "BumpProfile",
    "PerturbationPlan",
    "TwoPointCertificate",
    "default_bump",
    "make_plan",
    "perturb",
    "estimate_c1",
    "build_certificate",
]


@dataclass(frozen=True)
class BumpProfile:
    """A compactly supported C^1 profile phi with phi(0) = 1, 0 <= phi <= 1.

    l2sq and dsup cache the squared L2 norm and the sup of |phi'|.
    """

    value: Field
    support_radius: float
    l2sq: float
    dsup: float

    def check(self, tol: float = 1e-10) -> bool:
        r = self.support_radius
        if not (0 < r <= 2):
            return False
        x = np.linspace(-r, r, 20001)
        v = self.value.val(x)
        if abs(float(self.value.val(0.0)) - 1.0) > tol:
            return False
        if float(np.min(v)) < -tol or float(np.max(v)) > 1.0 + tol:
            return False
        # phi and phi' must vanish at the boundary (C^1 extension by zero)
        for e in (-r, r):
            if abs(float(self.value.val(e))) > 1e-9:
                return False
            if abs(float(self.value.der(e))) > 1e-9:
                return False
        q, _ = adaptive_simpson(lambda t: self.value.val(t) ** 2, -r, r,
                                QuadratureSpec(tol=1e-12))
        return abs(q - self.l2sq) <= max(tol, 1e-10)


def default_bump() -> BumpProfile:
    """phi(x) = cos^2(pi x / 2) on [-1, 1]: ||phi||_2^2 = 3/4, ||phi'||_inf = pi/2."""
    return BumpProfile(
        value=CosSquaredProfile(radius=1.0),
        support_radius=1.0,
        l2sq=0.75,
        dsup=math.pi / 2.0,
    )


@dataclass(frozen=True)
class PerturbationPlan:
    base: DensityPair
    phi: BumpProfile
    delta: float
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


def _max_admissible_eps(P: DensityPair, phi: BumpProfile) -> float:
    """Largest bump amplitude we are willing to certify: support stays well
    inside (0, 1) and |Xi rho| stays below 1/2, keeping f_Q positive."""
    a = P.threshold
    room = min(a, 1.0 - a) / phi.support_radius
    return 0.5 * min(room, 1.0)


def make_plan(P: DensityPair, phi: BumpProfile, delta: float, n: int) -> PerturbationPlan:
    """Amplitude schedule eps_n = c4 |log(11 delta)|^(1/3) n^(-1/3)."""
    if not (0.0 < delta < 1.0 / 11.0):
        raise DeltaOutOfRange(f"delta={delta}; need 0 < delta < 1/11")
    if n < 1:
        raise ValueError("n must be >= 1")
    fsup = P.sup_density()
    c4 = (fsup * phi.l2sq) ** (-1.0 / 3.0)
    eps = c4 * abs(math.log(11.0 * delta)) ** (1.0 / 3.0) * n ** (-1.0 / 3.0)
    if eps > _max_admissible_eps(P, phi):
        raise EpsTooLarge(
            f"eps={eps:.4g} exceeds the admissible amplitude "
            f"{_max_admissible_eps(P, phi):.4g} for {P.name}"
        )
    return PerturbationPlan(base=P, phi=phi, delta=delta, n=n, eps=eps, c4=c4)


def perturb(P: DensityPair, phi: BumpProfile, eps: float) -> DensityPair:
    """The perturbed pair Q with f_Q^+- = (1 +- Xi rho^-+) f^+-."""
    if eps <= 0:
        raise EpsTooLarge("eps must be positive")
    a = P.threshold
    r = eps * phi.support_radius
    if not (0.0 < a - r and a + r < 1.0):
        raise SupportEscapes(
            f"bump support [{a - r:.4g}, {a + r:.4g}] not inside (0, 1)"
        )
    xi = BumpComposite(profile=phi.value, center=a, eps=eps)
    # common correction g = Xi rho^- f^+ = Xi rho^+ f^-
    g = xi * P.fplus * P.fminus / (P.fplus + P.fminus)
    fqp = P.fplus + g
    fqm = P.fminus - g
    x = np.linspace(0.0, 1.0, 10_001)
    if float(np.min(fqp.val(x))) < -1e-12 or float(np.min(fqm.val(x))) < -1e-12:
        raise NegativeDensity(f"eps={eps} drives a sub-density negative")
    return DensityPair(
        fplus=fqp,
        fminus=fqm,
        name=f"{P.name}+bump(eps={eps:.6g})",
        breakpoints=(*P.breakpoints, a - r, a + r),
    )


def estimate_c1(P: DensityPair, phi: BumpProfile) -> float:
    """Half of the admissible constant c4 / (16 c5).

    c5 certifies sup |(rho_Q^+)'| over the bump neighborhood, evaluated at a
    ladder of amplitudes up to the largest admissible one; halving the bound
    gives numerical margin against the grid estimate.
    """
    a = P.threshold
    eps_max = _max_admissible_eps(P, phi)
    r = eps_max * phi.support_radius
    window = np.linspace(a - r, a + r, 4001)
    rho_plus = P.fplus / (P.fplus + P.fminus)
    rho_minus = P.fminus / (P.fplus + P.fminus)
    c5 = float(np.max(np.abs(rho_plus.der(window))))
    for eps in (eps_max, eps_max / 2, eps_max / 4, eps_max / 8):
        xi = BumpComposite(profile=phi.value, center=a, eps=eps)
        rho_q_plus = (Const(1.0) + xi * rho_minus) * rho_plus
        c5 = max(c5, float(np.max(np.abs(rho_q_plus.der(window)))))
    fsup = P.sup_density()
    c4 = (fsup * phi.l2sq) ** (-1.0 / 3.0)
    return c4 / (32.0 * c5)


def build_certificate(P: DensityPair, phi: BumpProfile, delta: float, n: int,
                      spec: QuadratureSpec = QuadratureSpec()) -> TwoPointCertificate:
    """Assemble the two-point pair (P, Q_n) and verify both inequality halves:
    n H(P, Q_n) <= (1/2)|log(11 delta)| and beta_n |a(P) - a(Q_n)| > 4."""
    plan = make_plan(P, phi, delta, n)
    q = perturb(P, phi, plan.eps)
    entropy = relative_entropy(P, q, spec)
    budget = 0.5 * abs(math.log(11.0 * delta))
    c1 = estimate_c1(P, phi)
    beta = n ** (1.0 / 3.0) / (c1 * abs(math.log(11.0 * delta)) ** (1.0 / 3.0))
    separation = beta * abs(P.threshold - q.threshold)
    return TwoPointCertificate(
        plan=plan,
        q=q,
        entropy=entropy,
        entropy_budget=budget,
        c1=c1,
        beta=beta,
        separation=separation,
        entropy_ok=bool(n * entropy <= budget),
        separation_ok=bool(separation > 4.0),
    )
