"""Density pairs on [0, 1] x {+1, -1} with a unique transversal crossing.

A model is a pair of sub-densities (f+, f-) whose difference m = f+ - f-
changes sign exactly once on (0, 1), from - to +, with m'(a) > 0 at the
crossing a.  The crossing is the Bayes-optimal threshold for the classifier
family h_a(x) = +1 iff x >= a.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    InvalidModel,
    MultipleCrossings,
    NoCrossing,
    NotTransversal,
    ZeroMass,
)
from .expr import Affine, Const, Field, Monomial, check_derivative

__all__ = [
    "DensityPair",
    "LocalParams",
    "find_threshold",
    "metric_d",
    "posterior_rho",
    "local_params",
    "builtin_models",
    "builtin_model",
    "model_from_config",
]

_BRACKET_GRID = 2048
_BISECT_WIDTH = 1e-14
_METRIC_GRID = 10_001
_NONNEG_GRID = 10_001


@dataclass(frozen=True)
class LocalParams:
    """Local geometry at the threshold: s = f_sigma(a), t = m'(a)."""

    s: float
    t: float


@dataclass(frozen=True)
class DensityPair:
    """A model: evaluable sub-densities with exact derivatives.

    Immutable after construction; the threshold is solved once in
    __post_init__, never lazily mutated, so instances are safe to share
    across parallel workers.

    `breakpoints` lists interior x values where some derivative of the
    densities jumps (e.g. bump support edges); quadrature inserts them as
    mandatory panel boundaries.
    """

    fplus: Field
    fminus: Field
    name: str = "unnamed"
    breakpoints: tuple = ()
    threshold: float = field(init=False, default=0.0)

    def __post_init__(self):
        object.__setattr__(self, "threshold", _solve_threshold(self))

    # convenience evaluators ------------------------------------------------

    def fsum(self, x):
        return self.fplus.val(x) + self.fminus.val(x)

    def margin(self, x):
        """m(x) = f+(x) - f-(x)."""
        return self.fplus.val(x) - self.fminus.val(x)

    def margin_der(self, x):
        return self.fplus.der(x) - self.fminus.der(x)

    def sup_density(self, pad: bool = True) -> float:
        """Certified sup of f over both labels: grid sup plus Lipschitz pad."""
        x = np.linspace(0.0, 1.0, _NONNEG_GRID)
        h = x[1] - x[0]
        sup = 0.0
        for f in (self.fplus, self.fminus):
            gsup = float(np.max(f.val(x)))
            if pad:
                gsup += 0.5 * h * float(np.max(np.abs(f.der(x))))
            sup = max(sup, gsup)
        return sup

    def validate(self) -> dict:
        """Run every class-membership invariant; returns name -> (ok, detail)."""
        from .divergence import QuadratureSpec, adaptive_simpson

        report = {}
        x = np.linspace(0.0, 1.0, _NONNEG_GRID)
        h = x[1] - x[0]
        for label, f in (("fplus", self.fplus), ("fminus", self.fminus)):
            v = f.val(x)
            gmin = float(np.min(v))
            lip = float(np.max(np.abs(f.der(x))))
            certified = gmin - 0.5 * h * lip
            report[f"nonneg_{label}"] = (
                gmin >= -1e-12,
                f"grid min {gmin:.3e}, certified lower bound {certified:.3e}",
            )
            report[f"derivative_{label}"] = (
                check_derivative(f, avoid=self.breakpoints),
                "symbolic vs central differences, 101 points, step 1e-5",
            )
        total, _ = adaptive_simpson(self.fsum, 0.0, 1.0,
                                    QuadratureSpec(tol=1e-10), self.breakpoints)
        report["normalization"] = (
            abs(total - 1.0) <= 1e-8,
            f"integral of f+ + f- = {total!r}",
        )
        # construction raises unless there is one transversal crossing
        report["single_transversal_crossing"] = (
            True, f"a = {self.threshold!r}",
        )
        return report


def _solve_threshold(P: DensityPair) -> float:
    """Bracket the sign change of m on a 2048-point grid, then bisect."""
    x = np.linspace(0.0, 1.0, _BRACKET_GRID + 1)
    m = P.margin(x)
    sign = np.sign(m)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = np.nonzero(sign[1:-1] == 0)[0]
    n_brackets = len(flips) + len(exact)
    if n_brackets == 0:
        raise NoCrossing(f"{P.name}: f+ - f- has no sign change on (0, 1)")
    if n_brackets > 1:
        raise MultipleCrossings(
            f"{P.name}: {n_brackets} sign-change brackets found"
        )
    if len(exact) == 1:
        a = float(x[exact[0] + 1])
    else:
        lo, hi = float(x[flips[0]]), float(x[flips[0] + 1])
        mlo = float(P.margin(lo))
        while hi - lo > _BISECT_WIDTH:
            mid = 0.5 * (lo + hi)
            mmid = float(P.margin(mid))
            if mmid == 0.0:
                lo = hi = mid
                break
            if (mmid > 0) == (mlo > 0):
                lo, mlo = mid, mmid
            else:
                hi = mid
        a = 0.5 * (lo + hi)
    if float(P.margin_der(a)) <= 0.0:
        raise NotTransversal(f"{P.name}: m'({a}) <= 0 at the crossing")
    if not (0.0 < a < 1.0):
        raise NoCrossing(f"{P.name}: crossing at boundary {a}")
    return a


def find_threshold(P: DensityPair) -> float:
    """The unique transversal intersection point a(P) in (0, 1)."""
    return P.threshold


def metric_d(P: DensityPair, Q: DensityPair) -> float:
    """Grid lower bound of ||f_P - f_Q||_inf + ||d1 f_P - d1 f_Q||_inf.

    The sup is taken over both labels and a 10^4-point x-grid; the true sup
    can only be larger.
    """
    x = np.linspace(0.0, 1.0, _METRIC_GRID)
    vsup = 0.0
    dsup = 0.0
    for fP, fQ in ((P.fplus, Q.fplus), (P.fminus, Q.fminus)):
        vsup = max(vsup, float(np.max(np.abs(fP.val(x) - fQ.val(x)))))
        dsup = max(dsup, float(np.max(np.abs(fP.der(x) - fQ.der(x)))))
    return vsup + dsup


def posterior_rho(P: DensityPair, x: float):
    """(rho+, rho-) = (f+, f-) / (f+ + f-); the pair sums to 1 exactly."""
    fs = float(P.fsum(x))
    if fs <= 1e-30:
        raise ZeroMass(f"{P.name}: f_sigma({x}) = {fs} <= 1e-30")
    rp = float(P.fplus.val(x)) / fs
    return rp, 1.0 - rp


def local_params(P: DensityPair) -> LocalParams:
    """s = f_sigma(a(P)) and t = m'(a(P)); both positive for members of the class."""
    a = P.threshold
    return LocalParams(s=float(P.fsum(a)), t=float(P.margin_der(a)))


# --- built-in model families -------------------------------------------------


def _canonical() -> DensityPair:
    return DensityPair(Affine(1.0, 0.0), Affine(-1.0, 1.0), name="canonical")


def _tilted() -> DensityPair:
    # f+ = 1.2 x^2, f- = 1.2 (1 - x); integral 1.2 (1/3 + 1/2) = 1
    return DensityPair(Monomial(1.2, 2), Affine(-1.2, 1.2), name="tilted")


def _curved() -> DensityPair:
    # f+ = (6/7) x, f- = (6/7)(1 - x^2); f_sigma = (6/7)(1 + x - x^2) is
    # non-constant near the crossing at (sqrt(5)-1)/2
    c = 6.0 / 7.0
    return DensityPair(Affine(c, 0.0), Const(c) - Monomial(c, 2), name="curved")


_FAMILIES = {
    "canonical": _canonical,
    "tilted": _tilted,
    "curved": _curved,
}


def builtin_model(name: str) -> DensityPair:
    try:
        return _FAMILIES[name]()
    except KeyError:
        raise InvalidModel(
            f"unknown model {name!r}; available: {sorted(_FAMILIES)}"
        ) from None


def builtin_models() -> list:
    """All built-in models; each passes full validation by construction."""
    return [make() for make in _FAMILIES.values()]


def model_from_config(cfg: dict) -> DensityPair:
    """Build a model from flat `key = value` config entries.

    Recognized keys: model.family (required), model.name (optional label),
    and for family "perturbed": model.base, model.eps.
    """
    family = cfg.get("model.family")
    if family is None:
        raise InvalidModel("config is missing model.family")
    if family == "perturbed":
        from .perturbation import default_bump, perturb

        base = builtin_model(cfg.get("model.base", "canonical"))
        eps = float(cfg.get("model.eps", 0.05))
        pair = perturb(base, default_bump(), eps)
    else:
        pair = builtin_model(family)
    name = cfg.get("model.name")
    if name:
        pair = replace(pair, name=str(name))
    return pair
