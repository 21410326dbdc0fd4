"""Prediction error of threshold classifiers and its local quadratic bounds.

L_P(a) is the misclassification probability of h_a; the excess over the
Bayes threshold is sandwiched between quadratics in (a(P) - alpha) whose
coefficients come from grid bounds on m' = (f+ - f-)'.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .divergence import QuadratureSpec, adaptive_simpson
from .errors import IntervalEscapes, NotMonotoneLocal
from .model import DensityPair

__all__ = [
    "QuadraticBounds",
    "prediction_error",
    "excess_risk",
    "quadratic_bounds",
    "default_eps_nbhd",
]


@dataclass(frozen=True)
class QuadraticBounds:
    """min{c9, c3 (a - alpha)^2} <= excess <= c10 (a - alpha)^2, c9 = c3 eps^2."""

    c3: float
    c10: float
    c9: float
    eps_nbhd: float


def _clamp(alpha: float) -> float:
    # h_alpha is the constant classifier beyond [0, 1]; loss is flat there
    return min(max(alpha, 0.0), 1.0)


def prediction_error(P: DensityPair, alpha: float,
                     spec: QuadratureSpec = QuadratureSpec()) -> float:
    """L_P(alpha) = integral of f+ on [0, alpha] plus f- on [alpha, 1]."""
    alpha = _clamp(alpha)
    left, _ = adaptive_simpson(P.fplus.val, 0.0, alpha, spec, P.breakpoints)
    right, _ = adaptive_simpson(P.fminus.val, alpha, 1.0, spec, P.breakpoints)
    return left + right


def excess_risk(P: DensityPair, alpha: float,
                spec: QuadratureSpec = QuadratureSpec()) -> float:
    """L_P(alpha) - L_P(a(P)) = integral of m over [a(P), alpha]; nonnegative."""
    alpha = _clamp(alpha)
    a = P.threshold
    lo, hi = min(a, alpha), max(a, alpha)
    val, _ = adaptive_simpson(P.margin, lo, hi, spec, P.breakpoints)
    return val if alpha >= a else -val


def default_eps_nbhd(P: DensityPair) -> float:
    """Half the distance from a(P) to the nearer endpoint of (0, 1)."""
    a = P.threshold
    return 0.5 * min(a, 1.0 - a)


def quadratic_bounds(P: DensityPair, eps_nbhd: float | None = None,
                     grid: int = 4001) -> QuadraticBounds:
    """c3 = (1/2) inf m' near a(P), c10 = (1/2) sup |m'| on [0, 1], c9 = c3 eps^2."""
    if eps_nbhd is None:
        eps_nbhd = default_eps_nbhd(P)
    a = P.threshold
    if not (0.0 < a - eps_nbhd and a + eps_nbhd < 1.0):
        raise IntervalEscapes(
            f"[{a - eps_nbhd}, {a + eps_nbhd}] not inside (0, 1)"
        )
    local = np.linspace(a - eps_nbhd, a + eps_nbhd, grid)
    c3 = 0.5 * float(np.min(P.margin_der(local)))
    if c3 <= 0.0:
        raise NotMonotoneLocal(f"{P.name}: inf m' <= 0 on the eps-neighborhood")
    full = np.linspace(0.0, 1.0, grid)
    c10 = 0.5 * float(np.max(np.abs(P.margin_der(full))))
    return QuadraticBounds(c3=c3, c10=c10, c9=c3 * eps_nbhd ** 2,
                           eps_nbhd=eps_nbhd)
