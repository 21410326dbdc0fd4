"""Closed-form scalar fields on [0, 1] with exact first derivatives.

Densities are represented as small expression trees (constant, affine,
monomial, sum, product, quotient, bump composite) rather than tabulated
splines, so that the derivative of every density, posterior ratio, and
perturbed density is available in closed form.  All nodes evaluate
vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class Field:
    """Base class: a C^1 scalar field with exact value and derivative."""

    def val(self, x):
        raise NotImplementedError

    def der(self, x):
        raise NotImplementedError

    def __call__(self, x):
        return self.val(x)

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
        return np.full_like(np.asarray(x, dtype=float), self.c)

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
        out = np.zeros_like(x)
        for t in self.terms:
            out = out + t.val(x)
        return out

    def der(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t in self.terms:
            out = out + t.der(x)
        return out


@dataclass(frozen=True)
class Product(Field):
    left: Field
    right: Field

    def val(self, x):
        return self.left.val(x) * self.right.val(x)

    def der(self, x):
        return self.left.der(x) * self.right.val(x) + self.left.val(x) * self.right.der(x)


@dataclass(frozen=True)
class Quotient(Field):
    num: Field
    den: Field

    def val(self, x):
        return self.num.val(x) / self.den.val(x)

    def der(self, x):
        n, d = self.num.val(x), self.den.val(x)
        return (self.num.der(x) * d - n * self.den.der(x)) / (d * d)


@dataclass(frozen=True)
class CosSquaredProfile(Field):
    """phi(x) = cos^2(pi x / (2 r)) for |x| <= r, 0 outside.

    C^1 everywhere: both phi and phi' vanish at the support boundary.
    phi(0) = 1 and 0 <= phi <= 1.
    """

    radius: float = 1.0

    def val(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.abs(x) <= self.radius
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

    def val(self, x):
        x = np.asarray(x, dtype=float)
        return self.eps * self.profile.val((x - self.center) / self.eps)

    def der(self, x):
        x = np.asarray(x, dtype=float)
        return self.profile.der((x - self.center) / self.eps)


def check_derivative(f: Field, lo: float = 0.0, hi: float = 1.0, n: int = 101,
                     step: float = 1e-5, rtol: float = 1e-6,
                     avoid: tuple = ()) -> bool:
    """Exact derivative vs central finite differences on an interior grid.

    Grid points within two steps of an `avoid` abscissa are skipped: a
    central difference straddling a point where only the first derivative
    is continuous is not a fair comparison.
    """
    x = np.linspace(lo + 2 * step, hi - 2 * step, n)
    for b in avoid:
        x = x[np.abs(x - b) > 2 * step]
    fd = (f.val(x + step) - f.val(x - step)) / (2.0 * step)
    ex = f.der(x)
    scale = np.maximum(np.abs(ex), 1.0)
    return bool(np.all(np.abs(fd - ex) <= rtol * scale))
