"""Threshold estimators: ERM, windowed-regression refinement, the two-step
sample-split combination, and the deterministic clock counterexample; plus
the Monte Carlo trial kernel, which draws each block of trials once for
pairs of one marginal and scores on it every estimator asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SampleTooSmall
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
    a_hat, errors = erm_block(sample.x[None, :], sample.y[None, None, :])
    return ErmResult(a_hat=float(a_hat[0, 0]), min_errors=int(errors[0, 0]))


# bits of 1.0 and 2.0: on [+0.0, 2) a float's bits, read as an integer, are
# ordered as the float is and leave the top two bits clear
_ONE_BITS = 0x3FF0_0000_0000_0000
_TWO_BITS = 0x4000_0000_0000_0000
_ONE_KEY = np.uint64(_ONE_BITS << 2)  # 1.0 in a sort key, labels 0
# one step of two running sums of +-1 in one uint64, by key & 3: the key's
# bit 1 gives the sign of the low word's step, its bit 0 the high word's
_STEPS = np.array([(lo + (hi << 32)) % 2 ** 64 for lo in (-1, 1)
                   for hi in (-1, 1)], dtype="<u8")
# each word starts from 2^31, so that a sum c stays in [0, 2^32) as 2^31 + c
_BIAS = 2 ** 31
_START = _BIAS + (_BIAS << 32)


def _block(x, ys) -> tuple:
    """The kernel's one shape rule: x (trials, n), as floats, and labels ys
    (pairs, trials, n); other shapes raise ValueError."""
    x, ys = np.asarray(x, dtype=float), np.asarray(ys)
    if x.ndim != 2 or ys.shape[1:] != x.shape:
        raise ValueError(f"labels of shape {ys.shape} for abscissae of shape "
                         f"{x.shape}, not (pairs, trials, n) for (trials, n)")
    return x, ys


def erm_block(x, ys) -> tuple:
    """erm_threshold on each row of x (trials, n) under the labels of each
    pair, ys (pairs, trials, n); returns the arrays (a_hat, min_errors), of
    shape (pairs, trials).  Every abscissa must lie in [+0.0, 2): NaN, -0.0
    or any other x outside raises ValueError."""
    x, ys = _block(x, ys)
    rows, n = x.shape
    a_hat = np.zeros(ys.shape[:2])
    min_errors = np.zeros(ys.shape[:2], dtype=np.int64)
    if n == 0:
        return a_hat, min_errors
    bits = x.view(np.uint64)
    if x.size and bits.max() >= _TWO_BITS:
        raise ValueError("erm needs abscissae in [+0.0, 2)")
    pick = np.arange(rows)[:, None]
    for g in range(0, len(ys), 2):
        # one uint64 sort of (bits << 2 | y_g << 1 | y_g+1) sorts each row by
        # x for two label rows; inside a tie the order is by labels, which
        # does not matter, because the counts below are read only where the
        # sorted abscissa changes.  Column 0 holds a key 0, which sorts
        # first and becomes the sums' column i = 0 below
        plus = (ys[g:g + 2] == 1).view(np.uint8)
        low = plus[0] << np.uint8(1)
        if len(plus) == 2:
            low |= plus[1]
        padded = np.empty((rows, n + 1), dtype=np.uint64)
        padded[:, 0] = 0
        key = padded[:, 1:]
        np.left_shift(bits, np.uint64(2), out=key)
        key |= low
        padded.sort(axis=1)
        # candidate column j: 0 -> a = 0, n -> a = 1, and 0 < j < n -> the
        # midpoint of sorted positions j - 1 and j, a candidate where they
        # differ.  errors(a) = #{x >= a, y = -1} + #{x < a, y = +1}
        # = total_minus + c_i with i = #{x < a} and c_i the sum of +-1 over
        # the first i labels; i is j at a midpoint, so column j < n holds
        # c_j.  One cumsum gives 2^31 + c of both label rows, one a 32-bit
        # word, for n < 2^31
        sums = np.take(_STEPS, (padded & np.uint64(3)).view(np.int64))
        sums[:, 0] = _START
        np.cumsum(sums, axis=1, out=sums)
        c = sums.view("<u4").reshape(rows, n + 1, 2)[:, :, :len(plus)]
        # c_n = n - 2 total_minus
        total_minus = (n + _BIAS - c[:, n].astype(np.int64)) // 2
        # column n is read at i = #{x < 1}
        for row in np.flatnonzero(key[:, -1] >= _ONE_KEY).tolist():
            c[row, n] = c[row, np.searchsorted(key[row], _ONE_KEY)]
        # sorted positions j and j + 1 that are equal or adjacent floats: a
        # key step above 7 is a gap of 2 or more in the abscissa's bits
        near = np.flatnonzero(key[:, 1:] - key[:, :-1] <= 7)
        if near.size:
            r, j = np.divmod(near, n - 1)
            gap = (key[r, j + 1] >> np.uint64(2)) - (key[r, j] >> np.uint64(2))
            # the midpoint of adjacent floats can round down onto the smaller
            # one, and then i counts from that abscissa's first tie: the
            # value of that column, read before any column is changed
            r1, j1 = r[gap == 1], j[gap == 1]
            lower = _xs_at(key, r1, j1)
            down = 0.5 * (lower + _xs_at(key, r1, j1 + 1)) == lower
            r1, j1 = r1[down], j1[down]
            first = [np.searchsorted(key[row], key[row, col] & ~np.uint64(3))
                     for row, col in zip(r1.tolist(), j1.tolist())]
            c[r1, j1 + 1] = c[r1, np.array(first, dtype=np.int64)]
            c[r[gap == 0], j[gap == 0] + 1] = _BIAS + n + 1  # not a candidate
        best = np.argmin(c, axis=1)  # first minimum -> smallest candidate
        a = (best == n).astype(float)
        r, label = np.nonzero((best > 0) & (best < n))
        a[r, label] = 0.5 * (_xs_at(key, r, best[r, label] - 1)
                             + _xs_at(key, r, best[r, label]))
        a_hat[g:g + 2] = a.T
        labels = np.arange(len(plus))
        min_errors[g:g + 2] = (total_minus + c[pick, best, labels] - _BIAS).T
    return a_hat, min_errors


def _xs_at(key, r, j):
    """The abscissae of sort keys key[r, j]."""
    return (key[r, j] >> np.uint64(2)).view(np.float64)


_DET_FLOOR = 1e-30


def refine_local(x, y, a0: float, L: float) -> RefineResult:
    """Regression-line refinement of a starting threshold a0 on the sample
    (x, y), two 1-d arrays of equal length with y in {+1, -1}, the rule of
    LabeledSample; other shapes or labels raise ValueError.

    Takes the points within the window |x - a0| <= L n^(-1/3), fits the line
    y = b1 (x - a0) + b2 by the 2x2 normal equations, and returns the
    intersection of the line with the x axis, a0 - b2/b1.  Degenerate windows
    (fewer than two distinct abscissae, singular system, or b1 = 0) fall back
    to a0.  The output is deliberately not clamped to [0, 1].  The one-row
    case of the refinement in two_step_block.
    """
    if not (0.0 < a0 < 1.0):
        raise ValueError("a0 must lie in (0, 1)")
    s = LabeledSample(np.asarray(x, dtype=float), np.asarray(y))
    if len(s) < 1:
        raise SampleTooSmall("refine_local needs at least one point")
    return RefineResult(*(v.item() for v in _refine_rows(
        s.x[None], s.y[None, None], np.array([[a0]]), L)))


def _refine_rows(x, ys, a0, L: float) -> tuple:
    """refine_local on each row of x (trials, m) under each pair's labels ys
    (pairs, trials, m) from the starts a0 (pairs, trials): the arrays (a_hat,
    window_count, fell_back), shaped as a0.  Each window is one reduceat
    segment, so a row's result does not depend on the others."""
    if not L > 0:  # NaN fails too
        raise ValueError("L must be positive")
    m = x.shape[1]
    M = L * m ** (-1.0 / 3.0)
    xt = x - a0[..., None]
    shape, rows, a0 = a0.shape, a0.size, a0.ravel()
    idx = np.flatnonzero(np.abs(xt) <= M)
    starts = np.searchsorted(idx, m * np.arange(rows + 1))
    k = starts[1:] - starts[:-1]
    # one 0 after the last window keeps every start a valid index; an empty
    # window's segment then reads one value, and such a row falls back
    xw = np.zeros(len(idx) + 1)
    np.take(xt, idx, out=xw[:-1], mode="clip")  # idx is in range
    yw = np.zeros_like(xw)
    yw[:-1] = np.take(ys, idx)

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
        a_hat = np.where(fell_back, a0, a0 - b2 / b1)
    return a_hat.reshape(shape), k.reshape(shape), fell_back.reshape(shape)


def two_step(sample: LabeledSample, L: float) -> float:
    """Sample-split estimator: ERM on the first half gives the starting
    point, windowed regression on the second half refines it.

    m = floor(n/2); for odd n the last point is dropped.  The ERM output is
    nudged off the boundary into (0, 1) before refinement (0 -> 1/(2m),
    1 -> 1 - 1/(2m)); the refinement window scale is L m^(-1/3).  The
    one-row case of two_step_block.
    """
    ((a_hat,),) = two_step_block(sample.x[None], sample.y[None, None], L)
    return float(a_hat)


def two_step_block(x, ys, L: float) -> np.ndarray:
    """two_step on each row of x (trials, n) under the labels of each pair,
    ys (pairs, trials, n), as erm_block takes them: ERM on the first halves,
    one sort for two pairs, then one refinement of the second halves of
    every pair's rows; returns a_hat, of shape (pairs, trials)."""
    x, ys = _block(x, ys)
    n = x.shape[1]
    if n < 2:
        raise SampleTooSmall(f"two_step needs n >= 2, got {n}")
    m = n // 2
    a0 = erm_block(x[:, :m], ys[..., :m])[0]
    a0 = np.where(a0 <= 0.0, 1.0 / (2.0 * m),
                  np.where(a0 >= 1.0, 1.0 - 1.0 / (2.0 * m), a0))
    return _refine_rows(x[:, m:2 * m], ys[..., m:2 * m], a0, L)[0]


def clock_estimator(n: int) -> float:
    """Constant estimator sweeping [0, 1): (n - 2^k) / 2^k with k = floor(log2 n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    k = n.bit_length() - 1
    return (n - (1 << k)) / (1 << k)


def resolve_estimator(name: str):
    """Estimator name -> (block, L).

    block maps x (trials, n) and the labels ys (pairs, trials, n) of the
    pairs drawn with it to a_hat (pairs, trials); the clock reads no sample
    and has no block (None).  L is the refinement width the name states, the
    report's L column.  Names: "erm" and "clock" (L None), "twostep" (runs
    with L = 1, L None) and "twostep:L=<v>" with v a finite number > 0
    (L = v); anything else raises ValueError.
    """
    if name == "erm":
        return (lambda x, ys: erm_block(x, ys)[0]), None
    if name == "clock":
        return None, None
    if name == "twostep":
        return (lambda x, ys: two_step_block(x, ys, 1.0)), None
    if not name.startswith("twostep:L="):
        raise ValueError(f"unknown estimator {name!r}; expected erm, clock, "
                         "twostep or twostep:L=<v>")
    try:
        L = float(name[len("twostep:L="):])
    except ValueError:
        L = math.nan
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"estimator {name!r}: L must be a finite number > 0")
    return (lambda x, ys: two_step_block(x, ys, L)), L


def estimator_key(name: str):
    """The estimator a name runs, as (kind, L run with): "twostep",
    "twostep:L=1" and "twostep:L=1.0" all give ("twostep", 1.0), "erm"
    gives ("erm", None).  Raises ValueError as resolve_estimator does."""
    L = resolve_estimator(name)[1]
    return name.partition(":")[0], 1.0 if name == "twostep" else L


def estimate_all(pairs, estimators, n: int, master_seed: int,
                 trial_indices) -> np.ndarray:
    """The trial kernel: entry (j, i, k) is estimators[i]'s estimate of
    a(pairs[j]) from draw(pairs[j], n, SeedPolicy(master_seed,
    trial_indices[k]), for pairs of one marginal (`==`), draw_block's rule.
    Trials are drawn a sub-block at a time (sampling.sub_blocks), each once
    for all pairs, and each estimator's block scores every pair's labels in
    one call, so ERM sorts a block's x once for two pairs; the clock has no
    block and reads no sample, so a tuple of clocks draws none."""
    scorers = [resolve_estimator(name)[0] for name in estimators]
    if len(trial_indices):
        SeedPolicy(master_seed, min(trial_indices))  # the clock's seeds too
    out = np.full((len(pairs), len(scorers), len(trial_indices)),
                  clock_estimator(max(n, 1)))
    drawn = [i for i, scorer in enumerate(scorers) if scorer is not None]
    if not (drawn and len(pairs)):
        return out
    start = 0
    for block in sub_blocks(trial_indices, n, pairs[0].marginal.envelope):
        # x, ys outlive the next draw; a del here made rate sweeps fault
        # 1.7x as often
        x, ys = draw_block(pairs, n, master_seed, block)
        stop = start + len(block)
        for i in drawn:
            out[:, i, start:stop] = scorers[i](x, ys)
        start = stop
    return out
