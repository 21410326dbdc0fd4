"""Prediction error of threshold classifiers and its local quadratic bounds.

L_P(a) is the misclassification probability of h_a; the excess over the
Bayes threshold is sandwiched between quadratics in (a(P) - alpha) whose
coefficients come from grid bounds on m' = (f+ - f-)'.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .divergence import QuadratureSpec, integrate_intervals
from .errors import NotMonotoneLocal
from .model import DensityPair

__all__ = [
    "QuadraticBounds",
    "prediction_error",
    "excess_risk",
    "quadratic_bounds",
]

_BOUNDS_GRID = 4001
_SPEC = QuadratureSpec()


@dataclass(frozen=True)
class QuadraticBounds:
    """min{c9, c3 (a - alpha)^2} <= excess <= c10 (a - alpha)^2, c9 = c3 eps^2."""

    c3: float
    c10: float
    c9: float
    eps_nbhd: float


def _per_alpha(alpha, values):
    """values(flat alphas clamped to [0, 1]) reshaped like alpha; a number
    gives a number.  h_alpha is the constant classifier beyond [0, 1], so
    the loss is flat there."""
    alphas = np.asarray(alpha, dtype=float)
    if np.isnan(alphas).any():
        raise ValueError("alpha must not be NaN")
    flat = np.minimum(np.maximum(alphas.reshape(-1), 0.0), 1.0)
    out = values(flat).reshape(alphas.shape)
    return float(out) if out.ndim == 0 else out


def prediction_error(P: DensityPair, alpha):
    """L_P(alpha) = integral of f+ on [0, alpha] plus f- on [alpha, 1].

    alpha is a number or an array; an array takes one quadrature call per
    density for all its entries and returns the values the numbers would.
    """
    def values(flat):
        left, _ = integrate_intervals(P.fplus.val, np.zeros_like(flat), flat,
                                      _SPEC, P.breakpoints)
        right, _ = integrate_intervals(P.fminus.val, flat, np.ones_like(flat),
                                       _SPEC, P.breakpoints)
        return left + right

    return _per_alpha(alpha, values)


def excess_risk(P: DensityPair, alpha):
    """L_P(alpha) - L_P(a(P)) = integral of m over [a(P), alpha]; nonnegative.

    alpha is a number or an array; an array takes one quadrature call for
    all its entries and returns an array of the values the number would.
    """
    a = P.threshold

    def values(flat):
        vals, _ = integrate_intervals(P.margin, np.minimum(a, flat),
                                      np.maximum(a, flat), _SPEC, P.breakpoints)
        return np.where(flat >= a, vals, -vals)

    return _per_alpha(alpha, values)


def quadratic_bounds(P: DensityPair) -> QuadraticBounds:
    """c3 = (1/2) inf m' on [a - eps, a + eps] with eps = (1/2) min(a, 1 - a),
    c10 = (1/2) sup |m'| on [0, 1], c9 = c3 eps^2."""
    a = P.threshold
    eps_nbhd = 0.5 * min(a, 1.0 - a)
    local = np.linspace(a - eps_nbhd, a + eps_nbhd, _BOUNDS_GRID)
    c3 = 0.5 * float(np.min(P.margin_der(local)))
    if c3 <= 0.0:
        raise NotMonotoneLocal(f"{P.name}: inf m' <= 0 on the eps-neighborhood")
    full = np.linspace(0.0, 1.0, _BOUNDS_GRID)
    c10 = 0.5 * float(np.max(np.abs(P.margin_der(full))))
    return QuadraticBounds(c3=c3, c10=c10, c9=c3 * eps_nbhd ** 2,
                           eps_nbhd=eps_nbhd)
