"""Threshold estimators: ERM, windowed-regression refinement, the two-step
sample-split combination, and the deterministic clock counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SampleTooSmall
from .sampling import LabeledSample

__all__ = [
    "ErmResult",
    "RefineResult",
    "erm_threshold",
    "refine_local",
    "two_step",
    "clock_estimator",
    "resolve_estimator",
]


@dataclass(frozen=True)
class ErmResult:
    a_hat: float
    min_errors: int
    candidate_count: int


@dataclass(frozen=True)
class RefineResult:
    a_hat: float
    window_count: int
    fell_back: bool
    b1: float
    b2: float


def erm_threshold(sample: LabeledSample) -> ErmResult:
    """Smallest threshold minimizing the sample misclassification count.

    Candidates are {0, 1} plus the midpoints of consecutive distinct sorted
    abscissae; h_a(x) = +1 iff x >= a.  Empty sample returns a_hat = 0.
    """
    n = len(sample)
    if n == 0:
        return ErmResult(a_hat=0.0, min_errors=0, candidate_count=2)
    order = np.argsort(sample.x, kind="stable")
    xs = sample.x[order]
    ys = sample.y[order]
    distinct = np.nonzero(np.diff(xs) > 0)[0]
    mids = 0.5 * (xs[distinct] + xs[distinct + 1])
    candidates = np.concatenate(([0.0], mids, [1.0]))
    # errors(a) = #{x >= a, y = -1} + #{x < a, y = +1}; with i = #{x < a}:
    # errors = (plus among first i) + (minus among last n - i)
    plus = (ys == 1).astype(np.int64)
    plus_prefix = np.concatenate(([0], np.cumsum(plus)))
    total_minus = n - plus_prefix[-1]
    i = np.searchsorted(xs, candidates, side="left")
    errors = plus_prefix[i] + (total_minus - (i - plus_prefix[i]))
    best = int(np.min(errors))
    a_hat = float(candidates[int(np.argmin(errors))])  # argmin -> smallest
    return ErmResult(a_hat=a_hat, min_errors=best,
                     candidate_count=len(candidates))


_DET_FLOOR = 1e-30


def refine_local(sample: LabeledSample, a0: float, L: float) -> RefineResult:
    """Regression-line refinement of a starting threshold a0.

    Takes the points within the window |x - a0| <= L n^(-1/3), fits the line
    y = b1 (x - a0) + b2 by the 2x2 normal equations, and returns the
    intersection of the line with the x axis, a0 - b2/b1.  Degenerate windows
    (fewer than two distinct abscissae, singular system, or b1 = 0) fall back
    to a0.  The output is deliberately not clamped to [0, 1].
    """
    if L <= 0:
        raise ValueError("L must be positive")
    if not (0.0 < a0 < 1.0):
        raise ValueError("a0 must lie in (0, 1)")
    n = len(sample)
    if n < 1:
        raise SampleTooSmall("refine_local needs at least one point")
    M = L * n ** (-1.0 / 3.0)
    inside = np.abs(sample.x - a0) <= M
    xt = sample.x[inside] - a0
    yw = sample.y[inside].astype(float)
    k = len(xt)
    fallback = RefineResult(a_hat=a0, window_count=k, fell_back=True,
                            b1=0.0, b2=0.0)
    if k < 2 or np.min(xt) == np.max(xt):
        return fallback
    sx = float(np.sum(xt))
    sxx = float(np.sum(xt * xt))
    sy = float(np.sum(yw))
    sxy = float(np.sum(xt * yw))
    det = sxx * k - sx * sx
    scale = max(sxx * k, sx * sx, 1e-300)
    if abs(det) < _DET_FLOOR * scale:
        return fallback
    b1 = (sxy * k - sx * sy) / det
    b2 = (sxx * sy - sx * sxy) / det
    if b1 == 0.0:
        return fallback
    return RefineResult(a_hat=a0 - b2 / b1, window_count=k, fell_back=False,
                        b1=b1, b2=b2)


def two_step(sample: LabeledSample, L: float) -> float:
    """Sample-split estimator: ERM on the first half gives the starting
    point, windowed regression on the second half refines it.

    m = floor(n/2); for odd n the last point is dropped.  The ERM output is
    nudged off the boundary into (0, 1) before refinement (0 -> 1/(2m),
    1 -> 1 - 1/(2m)); the refinement window scale is L m^(-1/3).
    """
    n = len(sample)
    if n < 2:
        raise SampleTooSmall(f"two_step needs n >= 2, got {n}")
    m = n // 2
    a0 = erm_threshold(sample.subset(0, m)).a_hat
    if a0 <= 0.0:
        a0 = 1.0 / (2.0 * m)
    elif a0 >= 1.0:
        a0 = 1.0 - 1.0 / (2.0 * m)
    return refine_local(sample.subset(m, 2 * m), a0, L).a_hat


def clock_estimator(n: int) -> float:
    """Constant estimator sweeping [0, 1): (n - 2^k) / 2^k with k = floor(log2 n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n.bit_length() - 1
    return (n - (1 << k)) / (1 << k)


def resolve_estimator(name: str):
    """CLI vocabulary -> callable(sample) -> float.

    Names: "erm", "twostep:L=<v>", "clock".
    """
    if name == "erm":
        return lambda s: erm_threshold(s).a_hat
    if name == "clock":
        return lambda s: clock_estimator(max(len(s), 1))
    if name.startswith("twostep"):
        L = 1.0
        if ":" in name:
            key, _, value = name.partition(":")[2].partition("=")
            if key != "L":
                raise ValueError(f"unknown twostep option {key!r}")
            L = float(value)
        return lambda s: two_step(s, L)
    raise ValueError(f"unknown estimator {name!r}")
