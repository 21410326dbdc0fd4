"""Density pairs on [0, 1] x {+1, -1} with a unique transversal crossing.

A model is a pair of sub-densities (f+, f-) whose difference m = f+ - f-
changes sign exactly once on (0, 1), from - to +, with m'(a) > 0 at the
crossing a.  The crossing is the Bayes-optimal threshold for the classifier
family h_a(x) = +1 iff x >= a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .divergence import QuadratureSpec, adaptive_simpson
from .errors import (
    InvalidModel,
    MultipleCrossings,
    NoCrossing,
    NotTransversal,
)
from .expr import Affine, Const, Field, Monomial, check_derivative

__all__ = [
    "DensityPair",
    "LocalParams",
    "local_params",
    "builtin_models",
    "builtin_model",
    "resolve_model",
    "nonneg_on_grid",
]

_BRACKET_GRID = 2048
_BISECT_WIDTH = 1e-14
_NONNEG_GRID = 10_001
_NONNEG_FLOOR = -1e-12
_ENVELOPE_GRID = 4097
_ENVELOPE_FACTOR = 1.01


@dataclass(frozen=True)
class LocalParams:
    """Local geometry at the threshold: s = f_sigma(a), t = m'(a)."""

    s: float
    t: float


@dataclass(frozen=True)
class DensityPair:
    """A model: evaluable sub-densities with exact derivatives.

    Immutable after construction; the threshold is solved once in
    __post_init__.  `sup_density()` and the sampling `envelope` are cached
    per pair on first use, as is each Field node's `support`, and a pickled
    pair carries them.  `harness.rate_sweep` computes the envelope before it
    starts any share, so a forked share inherits it.
    `perturbation.estimate_c1` is cached on the value of (pair, bump), so
    equal pairs share one c1.

    `name` has no comma, double quote or line break (CSV cells are unquoted).
    `breakpoints`, the interior x where a derivative of the densities jumps,
    is empty: only a perturbed pair (`perturbation.perturb`) has any.
    """

    fplus: Field
    fminus: Field
    name: str = "unnamed"
    threshold: float = field(init=False, default=0.0)

    breakpoints = ()

    def __post_init__(self):
        if any(c in self.name for c in ',"\r\n'):
            raise InvalidModel(f"name {self.name!r} contains a comma or line "
                               "break, or a double quote")
        object.__setattr__(self, "threshold", _solve_threshold(self))

    @property
    def marginal(self) -> DensityPair:
        """The pair whose f_sigma and envelope the sampler draws X from."""
        return self

    # convenience evaluators ------------------------------------------------

    def fsum(self, x):
        return self.fplus.val(x) + self.fminus.val(x)

    def margin(self, x):
        """m(x) = f+(x) - f-(x)."""
        return self.fplus.val(x) - self.fminus.val(x)

    def margin_der(self, x):
        return self.fplus.der(x) - self.fminus.der(x)

    @cached_property
    def envelope(self) -> float:
        """Constant rejection-sampling envelope, computed once per pair.

        It must dominate the X-marginal f_sigma = f+ + f-, not the per-label
        sup: grid sup plus a Lipschitz pad, then a safety factor.
        """
        grid = np.linspace(0.0, 1.0, _ENVELOPE_GRID)
        (pv, pd), (mv, md) = self.fplus.jet(grid), self.fminus.jet(grid)
        sup = _padded_sup(pv + mv, np.abs(pd) + np.abs(md), grid[1] - grid[0])
        return _ENVELOPE_FACTOR * sup

    def sup_density(self) -> float:
        """Certified sup of f over both labels: grid sup plus Lipschitz pad,
        computed once per pair."""
        return self._sup_density

    @cached_property
    def _sup_density(self) -> float:
        x = np.linspace(0.0, 1.0, _NONNEG_GRID)
        return max(_padded_sup(v, np.abs(d), x[1] - x[0])
                   for v, d in (f.jet(x) for f in (self.fplus, self.fminus)))

    def validate(self) -> dict:
        """Run every class-membership invariant; returns name -> (ok, detail)."""
        report = {}
        for label, f in (("fplus", self.fplus), ("fminus", self.fminus)):
            ok, gmin = nonneg_on_grid(f)
            report[f"nonneg_{label}"] = (ok, f"grid min {gmin:.3e}")
            report[f"derivative_{label}"] = (
                check_derivative(f, avoid=self.breakpoints),
                "symbolic vs central differences, 101 points, step 1e-5",
            )
        total, _ = adaptive_simpson(self.fsum, 0.0, 1.0, QuadratureSpec(),
                                    self.breakpoints)
        report["normalization"] = (
            abs(total - 1.0) <= 1e-8,
            f"integral of f+ + f- = {total!r}",
        )
        # construction raises unless there is one transversal crossing
        report["single_transversal_crossing"] = (
            True, f"a = {self.threshold!r}",
        )
        return report


def nonneg_on_grid(f: Field) -> tuple:
    """(ok, gmin): f's minimum on a 10001-point grid of [0, 1] and whether
    it is >= -1e-12, the sub-density rule of `validate` and `perturb`."""
    gmin = float(np.min(f.val(np.linspace(0.0, 1.0, _NONNEG_GRID))))
    return gmin >= _NONNEG_FLOOR, gmin


def _padded_sup(values, abs_der, h) -> float:
    """max + pad of a function's values on a grid of step h, with the
    Lipschitz pad 0.5 h max|f'|: a certified bound on the function between
    the grid points, given |f'| on the grid as abs_der."""
    return float(np.max(values)) + 0.5 * float(h) * float(np.max(abs_der))


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
        k = flips[0]
        a = _bisect(P, float(x[k]), float(x[k + 1]), float(m[k]), float(m[k + 1]))
    if float(P.margin_der(a)) <= 0.0:
        raise NotTransversal(f"{P.name}: m'({a}) <= 0 at the crossing")
    if not (0.0 < a < 1.0):
        raise NoCrossing(f"{P.name}: crossing at boundary {a}")
    return a


def _bisect(P: DensityPair, lo: float, hi: float, mlo: float, mhi: float) -> float:
    """Bisect m on [lo, hi], where m(lo) = mlo and m(hi) = mhi have opposite
    signs, down to _BISECT_WIDTH; returns the final midpoint, or a midpoint
    where m is exactly 0.

    Each round makes one array call of m on the predicted path and bisects
    as one midpoint at a time would while the call holds the next midpoint.
    The path's first point is the next midpoint, so a round gains at least
    one level.  The midpoints come from the same 0.5 * (lo + hi), so the
    result is bitwise that of sequential bisection wherever array and
    scalar m agree.
    """
    while hi - lo > _BISECT_WIDTH:
        mids = _predicted_path(lo, hi, mlo, mhi)
        known = dict(zip(mids, P.margin(np.array(mids)).tolist()))
        while hi - lo > _BISECT_WIDTH and (mid := 0.5 * (lo + hi)) in known:
            mmid = known[mid]
            if mmid == 0.0:
                return mid
            if (mmid > 0) == (mlo > 0):
                lo, mlo = mid, mmid
            else:
                hi, mhi = mid, mmid
    return 0.5 * (lo + hi)


def _predicted_path(lo: float, hi: float, mlo: float, mhi: float) -> list:
    """The predicted path: the midpoints that bisecting [lo, hi] down to
    _BISECT_WIDTH visits if m is the secant through (lo, mlo), (hi, mhi)."""
    root, path = lo - mlo * (hi - lo) / (mhi - mlo), []
    while hi - lo > _BISECT_WIDTH:
        path.append(0.5 * (lo + hi))
        lo, hi = (path[-1], hi) if path[-1] < root else (lo, path[-1])
    return path


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


def resolve_model(model) -> DensityPair:
    """The one model-resolution path: `model` if it is a DensityPair, else
    the built-in it names."""
    return model if isinstance(model, DensityPair) else builtin_model(model)
