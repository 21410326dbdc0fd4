"""Threshold estimators: ERM, windowed-regression refinement, the two-step
sample-split combination, and the deterministic clock counterexample; plus
the Monte Carlo trial kernel, which draws each block of trials once and
scores on it every estimator of a rate sweep, or the disjunction's one.
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
    "estimator_key",
    "estimate_all",
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


# bits of 1.0 and 2.0: on [+0.0, 2) a float's bits, read as an integer, are
# ordered as the float is and leave the top two bits clear
_ONE_BITS = 0x3FF0_0000_0000_0000
_TWO_BITS = 0x4000_0000_0000_0000


def erm_block(x, y) -> tuple:
    """erm_threshold on each row of (trials, n) arrays; returns the arrays
    (a_hat, min_errors), one entry per row.  Every abscissa must lie in
    [+0.0, 2): NaN, -0.0 or any other x outside raises ValueError."""
    x = np.asarray(x, dtype=float)
    rows, n = x.shape
    if n == 0:
        return np.zeros(rows), np.zeros(rows, dtype=np.int64)
    if x.size and x.view(np.uint64).max() >= _TWO_BITS:
        raise ValueError("erm needs abscissae in [+0.0, 2)")
    # one int64 sort of (bits << 1 | label) sorts each row by x; inside a tie
    # the order is by label, which does not matter, because the counts below
    # are read only where the sorted abscissa changes
    key = x.view(np.int64) << 1
    key |= np.asarray(y) == 1
    key.sort(axis=1)
    errors = np.zeros((rows, n + 1), dtype=np.int64)
    np.cumsum(key & 1, axis=1, out=errors[:, 1:])  # plus among the first i
    key >>= 1  # now the bits of the sorted abscissae
    total_minus = n - errors[:, n]
    pick = np.arange(rows)
    i_end = np.count_nonzero(key < _ONE_BITS, axis=1)
    plus_end = errors[pick, i_end]
    # candidate column j: 0 -> a = 0, n -> a = 1, and 0 < j < n -> the
    # midpoint of sorted positions j - 1 and j, a candidate where they differ.
    # errors(a) = #{x >= a, y = -1} + #{x < a, y = +1} = 2 plus_i - i + minus
    # with i = #{x < a} and plus_i the plus among the first i; i is j at a
    # midpoint, so column j < n holds its errors for i = j
    errors *= 2
    errors[:, :n] -= np.arange(n)
    errors += total_minus[:, None]
    errors[:, n] = 2 * plus_end - i_end + total_minus
    step = key[:, 1:] - key[:, :-1]
    inner = errors[:, 1:n]
    # the midpoint of adjacent floats can round down onto the smaller one,
    # and then i counts from that abscissa's first tie: the errors of that
    # column, read before any column is changed
    r, j = np.nonzero(step == 1)
    xs = key.view(np.float64)
    low = 0.5 * (xs[r, j] + xs[r, j + 1]) == xs[r, j]
    r, j = r[low], j[low]
    first = [int(np.searchsorted(key[row], key[row, col]))
             for row, col in zip(r.tolist(), j.tolist())]
    inner[r, j] = errors[r, np.array(first, dtype=np.int64)]
    inner[step == 0] = n + 1  # not a candidate
    best = np.argmin(errors, axis=1)  # first minimum -> smallest candidate
    a_hat = (best == n).astype(float)
    mid = np.nonzero((best > 0) & (best < n))[0]
    a_hat[mid] = 0.5 * (xs[mid, best[mid] - 1] + xs[mid, best[mid]])
    return a_hat, errors[pick, best]


_DET_FLOOR = 1e-30


def refine_local(x, y, a0: float, L: float) -> RefineResult:
    """Regression-line refinement of a starting threshold a0 on the sample
    (x, y), two 1-d arrays of equal length.

    Takes the points within the window |x - a0| <= L n^(-1/3), fits the line
    y = b1 (x - a0) + b2 by the 2x2 normal equations, and returns the
    intersection of the line with the x axis, a0 - b2/b1.  Degenerate windows
    (fewer than two distinct abscissae, singular system, or b1 = 0) fall back
    to a0.  The output is deliberately not clamped to [0, 1].  The one-row
    case of the refinement in two_step_block.
    """
    if not (0.0 < a0 < 1.0):
        raise ValueError("a0 must lie in (0, 1)")
    x, y = np.asarray(x, dtype=float), np.asarray(y)
    if len(x) < 1:
        raise SampleTooSmall("refine_local needs at least one point")
    a_hat, count, fell_back = _refine_rows(x[None, :], y[None, :],
                                           np.array([a0]), L)
    return RefineResult(a_hat=float(a_hat[0]), window_count=int(count[0]),
                        fell_back=bool(fell_back[0]))


def _refine_rows(x, y, a0, L: float) -> tuple:
    """refine_local on each row of (trials, n) arrays from the starts a0;
    returns the arrays (a_hat, window_count, fell_back).  The windows are
    packed end to end, and each window's sums are one reduceat segment, so
    a row's result does not depend on the rows beside it."""
    if L <= 0:
        raise ValueError("L must be positive")
    rows, m = x.shape
    M = L * m ** (-1.0 / 3.0)
    xt = x - a0[:, None]
    idx = np.flatnonzero(np.abs(xt) <= M)
    starts = np.searchsorted(idx, m * np.arange(rows + 1))
    k = starts[1:] - starts[:-1]
    # one 0 after the last window keeps every start a valid index; an empty
    # window's segment then reads one value, and such a row falls back
    xw = np.zeros(len(idx) + 1)
    np.take(xt, idx, out=xw[:-1], mode="clip")  # idx is in range
    yw = np.zeros_like(xw)
    yw[:-1] = np.take(y, idx)

    def window(ufunc, values):
        return ufunc.reduceat(values, starts)[:rows]

    sx, sy = window(np.add, xw), window(np.add, yw)
    sxx, sxy = window(np.add, xw * xw), window(np.add, xw * yw)
    spread = window(np.minimum, xw) < window(np.maximum, xw)
    det = sxx * k - sx * sx
    scale = np.maximum(np.maximum(sxx * k, sx * sx), 1e-300)
    # rows that fall back may divide by 0 here; their quotients are discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        b1 = (sxy * k - sx * sy) / det
        b2 = (sxx * sy - sx * sxy) / det
        fell_back = ~spread | (np.abs(det) < _DET_FLOOR * scale) | (b1 == 0.0)
        return np.where(fell_back, a0, a0 - b2 / b1), k, fell_back


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
    """two_step on each row of (trials, n) arrays: ERM on the first halves,
    then the refinement on the second halves, each as one block."""
    n = np.shape(x)[1]
    if n < 2:
        raise SampleTooSmall(f"two_step needs n >= 2, got {n}")
    m = n // 2
    a0 = erm_block(x[:, :m], y[:, :m])[0]
    a0 = np.where(a0 <= 0.0, 1.0 / (2.0 * m),
                  np.where(a0 >= 1.0, 1.0 - 1.0 / (2.0 * m), a0))
    return _refine_rows(np.asarray(x, dtype=float)[:, m:2 * m],
                        np.asarray(y)[:, m:2 * m], a0, L)[0]


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


def estimator_key(name: str):
    """The estimator a name runs, as (kind, L run with): "twostep",
    "twostep:L=1" and "twostep:L=1.0" all give ("twostep", 1.0), "erm"
    gives ("erm", None).  Raises ValueError as resolve_estimator does."""
    L = resolve_estimator(name)[1]
    return name.partition(":")[0], 1.0 if name == "twostep" else L


def estimate_all(P: DensityPair, estimators, n: int, master_seed: int,
                 trial_indices) -> np.ndarray:
    """The trial kernel: entry (i, k) is estimators[i]'s estimate of a(P)
    from draw(P, n, SeedPolicy(master_seed, trial_indices[k])).  Trials are
    drawn a sub-block at a time (sampling.sub_blocks), each block once, and
    every estimator scores that draw; the clock reads no sample, so a tuple
    of clocks draws none."""
    scorers = [resolve_estimator(name)[0] for name in estimators]
    if len(trial_indices):
        SeedPolicy(master_seed, min(trial_indices))  # the clock's seeds too
    out = np.full((len(scorers), len(trial_indices)), clock_estimator(max(n, 1)))
    drawn = [i for i, name in enumerate(estimators) if name != "clock"]
    start = 0
    for block in sub_blocks(trial_indices, n, P.marginal.envelope) if drawn else ():
        # x, y outlive the next draw; a del here made rate sweeps fault 1.7x as often
        x, y = draw_block(P, n, master_seed, block)
        stop = start + len(block)
        for i in drawn:
            out[i, start:stop] = scorers[i](x, y)
        start = stop
    return out


def estimate_trials(P: DensityPair, estimator: str, n: int, master_seed: int,
                    trial_indices) -> np.ndarray:
    """estimate_all for one estimator: for each t in the sequence
    trial_indices, the estimate of a(P) from draw(P, n, SeedPolicy(
    master_seed, t)), in order."""
    return estimate_all(P, (estimator,), n, master_seed, trial_indices)[0]
