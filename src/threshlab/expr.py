"""Closed-form scalar fields on [0, 1] with exact first derivatives.

Densities are represented as small expression trees (constant, affine,
monomial, sum, product, quotient, bump composite) rather than tabulated
splines, so that the derivative of every density, posterior ratio, and
perturbed density is available in closed form.  All nodes evaluate
vectorized over numpy arrays.

Every node has a `support`, a closed interval (lo, hi) outside which its
value and derivative are exactly +0.0 or -0.0, computed once per node:
a CosSquaredProfile of radius r has [-r, r]; a BumpComposite has
center + eps * (its profile's support), widened by a few ulps so that it
contains every point the profile's own test |(x - c) / eps| <= r admits;
a Product has the intersection of its factors' supports; a Quotient has
its numerator's; every other node, and a profile of unknown support, is
unbounded.  A Sum evaluates each bounded term only on the points inside
its support.  This keeps every bit: its accumulator starts at +0.0 and
never becomes -0.0, so adding the skipped term's +-0.0 would leave it as
it is.  (On [0, 1], where the densities are finite and f_sigma > 0, the
skipped terms are exact zeros; far outside, a full evaluation could meet
0 * inf or 0 / 0 where the Sum yields the other terms' value.)  A 0-d
input evaluates every term.

`jet(x)` is (val(x), der(x)) from one walk of the tree by the same formulas
and support rule: a leaf's jet calls its `val` and `der`, and any other
node's `der(x)` is `jet(x)[1]`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Field",
    "Const",
    "Affine",
    "Monomial",
    "Sum",
    "Product",
    "Quotient",
    "CosSquaredProfile",
    "BumpComposite",
    "as_field",
]


_UNBOUNDED = (-math.inf, math.inf)
# outward pad of a BumpComposite's support, in ulps of its larger end
_SUPPORT_PAD_ULPS = 4


def _require_positive_finite(name: str, value) -> None:
    """Raise ValueError naming `name` unless 0 < value < inf (NaN fails too)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


class Field:
    """A C^1 scalar field: subclasses define val, and der (a leaf) or jet."""

    def der(self, x):
        return self.jet(x)[1]

    def jet(self, x) -> tuple:
        """(val(x), der(x)) from one walk of the tree (module docstring)."""
        return self.val(x), self.der(x)

    @cached_property
    def support(self) -> tuple:
        """(lo, hi): val and der are +-0.0 outside this closed interval."""
        return _UNBOUNDED

    # algebra -----------------------------------------------------------

    def __add__(self, other):
        other = as_field(other)
        terms = []
        for f in (self, other):
            terms.extend(f.terms if isinstance(f, Sum) else (f,))
        return Sum(tuple(terms))

    __radd__ = __add__

    def __sub__(self, other):
        return self + Product(Const(-1.0), as_field(other))

    def __rsub__(self, other):
        return as_field(other) + Product(Const(-1.0), self)

    def __mul__(self, other):
        return Product(self, as_field(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Quotient(self, as_field(other))


def as_field(obj) -> Field:
    if isinstance(obj, Field):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    raise TypeError(f"cannot interpret {obj!r} as a Field")


@dataclass(frozen=True)
class Const(Field):
    c: float

    def val(self, x):
        return np.full(np.shape(x), self.c)

    def der(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Affine(Field):
    slope: float
    intercept: float

    def val(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    def der(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.slope)


@dataclass(frozen=True)
class Monomial(Field):
    """coef * x**power with integer power >= 0."""

    coef: float
    power: int

    def val(self, x):
        return self.coef * np.asarray(x, dtype=float) ** self.power

    def der(self, x):
        x = np.asarray(x, dtype=float)
        if self.power == 0:
            return np.zeros_like(x)
        return self.coef * self.power * x ** (self.power - 1)


@dataclass(frozen=True)
class Sum(Field):
    terms: tuple

    def val(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for t in self.terms:
            lo, hi = t.support
            if x.ndim == 0 or (lo, hi) == _UNBOUNDED:
                out += t.val(x)
            else:
                inside = np.nonzero((x >= lo) & (x <= hi))
                out[inside] += t.val(x[inside])
        return out

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        val, der = np.zeros(x.shape), np.zeros(x.shape)
        for t in self.terms:
            lo, hi = t.support
            if x.ndim == 0 or (lo, hi) == _UNBOUNDED:
                v, d = t.jet(x)
                val, der = val + v, der + d
            else:
                inside = np.nonzero((x >= lo) & (x <= hi))
                v, d = t.jet(x[inside])
                val[inside] += v
                der[inside] += d
        return val, der


@dataclass(frozen=True)
class Product(Field):
    left: Field
    right: Field

    @cached_property
    def support(self) -> tuple:
        (llo, lhi), (rlo, rhi) = self.left.support, self.right.support
        return max(llo, rlo), min(lhi, rhi)

    def val(self, x):
        # a Const factor multiplies as its float c: the same bits, one
        # array fewer (every f - g is Product(Const(-1), g))
        if isinstance(self.left, Const):
            return self.left.c * self.right.val(x)
        return self.left.val(x) * self.right.val(x)

    def jet(self, x):
        (lv, ld), (rv, rd) = self.left.jet(x), self.right.jet(x)
        return lv * rv, ld * rv + lv * rd


@dataclass(frozen=True)
class Quotient(Field):
    num: Field
    den: Field

    @cached_property
    def support(self) -> tuple:
        return self.num.support

    def val(self, x):
        return self.num.val(x) / self.den.val(x)

    def jet(self, x):
        (nv, nd), (dv, dd) = self.num.jet(x), self.den.jet(x)
        return nv / dv, (nd * dv - nv * dd) / (dv * dv)


@dataclass(frozen=True)
class CosSquaredProfile(Field):
    """phi(x) = cos^2(pi x / (2 r)) for |x| <= r, 0 outside.

    C^1 everywhere: both phi and phi' vanish at the support boundary.
    phi(0) = 1 and 0 <= phi <= 1.
    """

    radius: float = 1.0

    def __post_init__(self):
        _require_positive_finite("radius", self.radius)

    @cached_property
    def support(self) -> tuple:
        return -self.radius, self.radius

    @property
    def l2sq(self) -> float:
        """||phi||_2^2 = integral of cos^4(pi x / (2 r)) over [-r, r] = 3 r / 4."""
        return 0.75 * self.radius

    def val(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= self.radius
        # a Sum evaluates a bump term on its support alone, so this mostly
        # holds; then the masks change nothing
        if inside.all():
            return np.cos(np.pi * (x / self.radius) / 2.0) ** 2
        u = np.where(inside, x / self.radius, 0.0)
        return np.where(inside, np.cos(np.pi * u / 2.0) ** 2, 0.0)

    def der(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= self.radius
        u = np.where(inside, x / self.radius, 0.0)
        # d/dx cos^2(pi u / 2) = -(pi / (2 r)) sin(pi u)
        return np.where(inside, -(np.pi / (2.0 * self.radius)) * np.sin(np.pi * u), 0.0)


@dataclass(frozen=True)
class BumpComposite(Field):
    """Xi(x) = eps * profile((x - center) / eps): the localized bump."""

    profile: Field
    center: float
    eps: float

    def __post_init__(self):
        _require_positive_finite("eps", self.eps)

    @cached_property
    def support(self) -> tuple:
        if self.profile.support == _UNBOUNDED:
            return _UNBOUNDED
        lo, hi = sorted(self.center + self.eps * u for u in self.profile.support)
        pad = _SUPPORT_PAD_ULPS * math.ulp(max(abs(lo), abs(hi)))
        return lo - pad, hi + pad

    def val(self, x):
        x = np.asarray(x, dtype=float)
        return self.eps * self.profile.val((x - self.center) / self.eps)

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        pv, pd = self.profile.jet((x - self.center) / self.eps)
        return self.eps * pv, pd


_FD_POINTS = 101
_FD_STEP = 1e-5
_FD_RTOL = 1e-6


def check_derivative(f: Field, avoid: tuple = ()) -> bool:
    """Exact derivative vs central finite differences on an interior grid
    of [0, 1]: 101 points, step 1e-5, relative tolerance 1e-6.

    Grid points within two steps of an `avoid` abscissa are skipped: a
    central difference straddling a point where only the first derivative
    is continuous is not a fair comparison.
    """
    step = _FD_STEP
    x = np.linspace(2 * step, 1.0 - 2 * step, _FD_POINTS)
    for b in avoid:
        x = x[np.abs(x - b) > 2 * step]
    fd = (f.val(x + step) - f.val(x - step)) / (2.0 * step)
    ex = f.der(x)
    scale = np.maximum(np.abs(ex), 1.0)
    return bool(np.all(np.abs(fd - ex) <= _FD_RTOL * scale))
