"""Threshold estimators: ERM, windowed-regression refinement, the two-step
sample-split combination, and the deterministic clock counterexample; plus
the Monte Carlo trial kernel that both the rate sweep and the two-point
disjunction run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SampleTooSmall
from .model import DensityPair
from .sampling import LabeledSample, SeedPolicy, draw_block, sub_blocks

__all__ = [
    "ErmResult",
    "RefineResult",
    "erm_threshold",
    "erm_block",
    "refine_local",
    "two_step",
    "two_step_block",
    "clock_estimator",
    "resolve_estimator",
    "estimate_trials",
]


@dataclass(frozen=True)
class ErmResult:
    a_hat: float
    min_errors: int


@dataclass(frozen=True)
class RefineResult:
    a_hat: float
    window_count: int
    fell_back: bool


def erm_threshold(sample: LabeledSample) -> ErmResult:
    """Smallest threshold minimizing the sample misclassification count.

    Candidates are {0, 1} plus the midpoints of consecutive distinct sorted
    abscissae; h_a(x) = +1 iff x >= a.  Empty sample returns a_hat = 0.
    The one-row case of erm_block.
    """
    a_hat, errors = erm_block(sample.x[None, :], sample.y[None, :])
    return ErmResult(a_hat=float(a_hat[0]), min_errors=int(errors[0]))


def erm_block(x, y) -> tuple:
    """erm_threshold on each row of (trials, n) arrays; returns the arrays
    (a_hat, min_errors), one entry per row."""
    x = np.asarray(x, dtype=float)
    rows, n = x.shape
    if n == 0:
        return np.zeros(rows), np.zeros(rows, dtype=np.int64)
    # prefix counts are read only where the sorted abscissa changes, so the
    # order inside a tie does not matter and the faster unstable sort will do
    order = np.argsort(x, axis=1)
    xs = np.take_along_axis(x, order, axis=1)
    plus = np.take_along_axis(np.asarray(y) == 1, order, axis=1)
    # candidate column j: 0 -> a = 0, n -> a = 1, and 0 < j < n -> the
    # midpoint of sorted positions j - 1 and j, a candidate where they differ
    distinct = xs[:, 1:] > xs[:, :-1]
    candidates = np.empty((rows, n + 1))
    candidates[:, 0], candidates[:, n] = 0.0, 1.0
    mids = candidates[:, 1:n]
    np.multiply(0.5, xs[:, :-1] + xs[:, 1:], out=mids)
    # i = #{x < a}: j for a midpoint, unless it rounds down onto the smaller
    # abscissa, which then starts the count at its first tie
    i = np.empty((rows, n + 1), dtype=np.int64)
    i[:, 0] = np.count_nonzero(xs < 0.0, axis=1)
    i[:, 1:n] = np.arange(1, n)
    i[:, n] = np.count_nonzero(xs < 1.0, axis=1)
    low = distinct & (mids == xs[:, :-1])
    if low.any():
        starts = np.where(np.concatenate(
            (np.ones((rows, 1), dtype=bool), distinct), axis=1),
            np.arange(n), 0)
        first_tie = np.maximum.accumulate(starts, axis=1)[:, :-1]
        i[:, 1:n] = np.where(low, first_tie, i[:, 1:n])
    # errors(a) = #{x >= a, y = -1} + #{x < a, y = +1}; with i = #{x < a}:
    # errors = (plus among first i) + (minus among last n - i)
    plus_prefix = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(plus, axis=1, out=plus_prefix[:, 1:])
    total_minus = (n - plus_prefix[:, n])[:, None]
    below = np.take_along_axis(plus_prefix, i, axis=1)
    errors = below + (total_minus - (i - below))
    errors[:, 1:n][~distinct] = n + 1  # not a candidate
    best = np.argmin(errors, axis=1)  # first minimum -> smallest candidate
    pick = np.arange(rows)
    return candidates[pick, best], errors[pick, best]


_DET_FLOOR = 1e-30


def refine_local(x, y, a0: float, L: float) -> RefineResult:
    """Regression-line refinement of a starting threshold a0 on the sample
    (x, y), two 1-d arrays of equal length.

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
    x, y = np.asarray(x, dtype=float), np.asarray(y)
    n = len(x)
    if n < 1:
        raise SampleTooSmall("refine_local needs at least one point")
    M = L * n ** (-1.0 / 3.0)
    inside = np.abs(x - a0) <= M
    xt = x[inside] - a0
    yw = y[inside].astype(float)
    k = len(xt)
    fallback = RefineResult(a_hat=a0, window_count=k, fell_back=True)
    if k < 2 or xt.min() == xt.max():
        return fallback
    sx = float(xt.sum())
    sxx = float((xt * xt).sum())
    sy = float(yw.sum())
    sxy = float((xt * yw).sum())
    det = sxx * k - sx * sx
    scale = max(sxx * k, sx * sx, 1e-300)
    if abs(det) < _DET_FLOOR * scale:
        return fallback
    b1 = (sxy * k - sx * sy) / det
    b2 = (sxx * sy - sx * sxy) / det
    if b1 == 0.0:
        return fallback
    return RefineResult(a_hat=a0 - b2 / b1, window_count=k, fell_back=False)


def two_step(sample: LabeledSample, L: float) -> float:
    """Sample-split estimator: ERM on the first half gives the starting
    point, windowed regression on the second half refines it.

    m = floor(n/2); for odd n the last point is dropped.  The ERM output is
    nudged off the boundary into (0, 1) before refinement (0 -> 1/(2m),
    1 -> 1 - 1/(2m)); the refinement window scale is L m^(-1/3).  The
    one-row case of two_step_block.
    """
    return float(two_step_block(sample.x[None, :], sample.y[None, :], L)[0])


def two_step_block(x, y, L: float) -> np.ndarray:
    """two_step on each row of (trials, n) arrays: ERM on the first halves
    as one block, then refine_local row by row."""
    n = np.shape(x)[1]
    if n < 2:
        raise SampleTooSmall(f"two_step needs n >= 2, got {n}")
    m = n // 2
    a0 = erm_block(x[:, :m], y[:, :m])[0]
    a0 = np.where(a0 <= 0.0, 1.0 / (2.0 * m),
                  np.where(a0 >= 1.0, 1.0 - 1.0 / (2.0 * m), a0))
    return np.array([
        refine_local(x[k, m:2 * m], y[k, m:2 * m], start, L).a_hat
        for k, start in enumerate(a0.tolist())], dtype=float)


def clock_estimator(n: int) -> float:
    """Constant estimator sweeping [0, 1): (n - 2^k) / 2^k with k = floor(log2 n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n.bit_length() - 1
    return (n - (1 << k)) / (1 << k)


def resolve_estimator(name: str):
    """Estimator name -> (block, L).

    block maps (trials, n) arrays x, y to the array of a_hat, one per row;
    L is the refinement width the name states, the report's L column.
    Names: "erm" and "clock" (L None), "twostep" (runs with L = 1, L None)
    and "twostep:L=<v>" with v a finite number > 0 (L = v); anything else
    raises ValueError.
    """
    if name == "erm":
        return (lambda x, y: erm_block(x, y)[0]), None
    if name == "clock":
        return (lambda x, y: np.full(
            len(x), clock_estimator(max(x.shape[1], 1)))), None
    if name == "twostep":
        return (lambda x, y: two_step_block(x, y, 1.0)), None
    if not name.startswith("twostep:L="):
        raise ValueError(f"unknown estimator {name!r}; expected erm, clock, "
                         "twostep or twostep:L=<v>")
    try:
        L = float(name[len("twostep:L="):])
    except ValueError:
        L = math.nan
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"estimator {name!r}: L must be a finite number > 0")
    return (lambda x, y: two_step_block(x, y, L)), L


def estimate_trials(P: DensityPair, estimator: str, n: int, master_seed: int,
                    trial_indices) -> np.ndarray:
    """The trial kernel: for each trial index t, the estimate of a(P) from
    draw(P, n, SeedPolicy(master_seed, t)), in the order given.  Trials are
    drawn and estimated a sub-block at a time (sampling.sub_blocks); the
    clock reads no sample, so its trials draw none."""
    est, _ = resolve_estimator(estimator)
    seeds = [SeedPolicy(master_seed, t) for t in trial_indices]
    if estimator == "clock":
        return np.full(len(seeds), clock_estimator(max(n, 1)))
    return np.concatenate([np.empty(0)] + [
        est(*draw_block(P, n, block)) for block in sub_blocks(seeds, n)])
