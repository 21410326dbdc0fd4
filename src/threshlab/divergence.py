"""Relative entropy and total variation between density pairs.

Integration is level-wise adaptive Simpson with a per-panel Richardson error
estimate.  Integrands take a float64 array and return an array of the same
shape; each refinement level evaluates the integrand once, on the new points
of every panel still open.  The crossing point of each pair and any recorded
breakpoints (bump support edges) are inserted as mandatory panel boundaries,
because the integrand's derivative jumps there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteEntropy, QuadratureNotConverged
from .model import DensityPair

__all__ = [
    "QuadratureSpec",
    "relative_entropy",
    "total_variation",
    "adaptive_simpson",
]

_P_FLOOR = 1e-30  # 0 * log 0 := 0 below this mass
_P_MASS = 1e-12   # p above this while q below _P_FLOOR => infinite entropy
# Past this many open panels at one depth the integrand is not converging;
# splitting further would only double the work and memory per level.
_MAX_OPEN_PANELS = 2 ** 16


@dataclass(frozen=True)
class QuadratureSpec:
    panels: int = 8
    tol: float = 1e-10
    max_depth: int = 48

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.panels < 1 or self.max_depth < 1:
            raise ValueError("panels and max_depth must be positive")


def adaptive_simpson(f, a: float, b: float, spec: QuadratureSpec,
                     breakpoints=()) -> tuple:
    """Integrate f on [a, b]; returns (value, error_estimate).

    f maps a float64 array to an array of the same shape.  Interior
    breakpoints become hard panel boundaries, and each piece between them is
    cut into spec.panels base panels.  All open panels are then halved level
    by level, with one call of f per level on the quarter points of every
    open panel.  A panel is accepted once |left + right - whole| / 15 meets
    its share of spec.tol, which is proportional to its length.  Raises
    QuadratureNotConverged past spec.max_depth, on a non-finite error
    estimate, or when more than _MAX_OPEN_PANELS panels are open at once.
    """
    if b <= a:
        return 0.0, 0.0
    knots = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    edges = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        w = (hi - lo) / spec.panels
        edges.extend(lo + i * w for i in range(spec.panels))
    edges.append(b)
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    mid = 0.5 * (lo + hi)
    flo, fmid, fhi = np.split(f(np.concatenate((lo, mid, hi))), 3)
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    tol = spec.tol * (hi - lo) / (b - a)
    values, errors = [], []
    for depth in range(spec.max_depth + 1):
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = np.split(f(np.concatenate((lm, rm))), 2)
        left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = (left + right - whole) / 15.0
        finite = np.isfinite(err)
        if not finite.all():
            i = int(np.argmin(finite))
            raise QuadratureNotConverged(
                f"non-finite error estimate on [{lo[i]}, {hi[i]}]"
            )
        done = np.abs(err) <= tol
        values.append(left[done] + right[done] + err[done])
        errors.append(np.abs(err[done]))
        if done.all():
            return (math.fsum(np.concatenate(values)),
                    math.fsum(np.concatenate(errors)))
        open_ = ~done
        if depth == spec.max_depth:
            i = int(np.argmax(open_))
            raise QuadratureNotConverged(
                f"max depth {spec.max_depth} hit on [{lo[i]}, {hi[i]}], "
                f"error estimate {err[i]:.3e}"
            )
        n_open = 2 * int(np.count_nonzero(open_))
        if n_open > _MAX_OPEN_PANELS:
            raise QuadratureNotConverged(
                f"{n_open} panels open at depth {depth + 1}, "
                f"over the limit {_MAX_OPEN_PANELS}"
            )
        # each open panel splits into [lo, mid] and [mid, hi]
        lo, mid, hi = (np.concatenate((lo[open_], mid[open_])),
                       np.concatenate((lm[open_], rm[open_])),
                       np.concatenate((mid[open_], hi[open_])))
        flo, fmid, fhi = (np.concatenate((flo[open_], fmid[open_])),
                          np.concatenate((flm[open_], frm[open_])),
                          np.concatenate((fmid[open_], fhi[open_])))
        whole = np.concatenate((left[open_], right[open_]))
        tol = 0.5 * np.concatenate((tol[open_], tol[open_]))


def _pair_breakpoints(P: DensityPair, Q: DensityPair):
    return (*P.breakpoints, *Q.breakpoints, P.threshold, Q.threshold)


def relative_entropy(P: DensityPair, Q: DensityPair,
                     spec: QuadratureSpec = QuadratureSpec()) -> float:
    """H(P, Q) = sum over labels of integral of f_P log(f_P / f_Q)."""
    bps = _pair_breakpoints(P, Q)
    total = 0.0
    for fP, fQ in ((P.fplus, Q.fplus), (P.fminus, Q.fminus)):
        def integrand(x, fP=fP, fQ=fQ):
            p, q = fP.val(x), fQ.val(x)
            live = p > _P_FLOOR  # 0 log 0 := 0 elsewhere
            dead = live & (q < _P_FLOOR)
            infinite = dead & (p > _P_MASS)
            if infinite.any():
                i = int(np.argmax(infinite))
                raise InfiniteEntropy(
                    f"f_Q vanishes at x={x[i]} while f_P={p[i]:.3e}"
                )
            ok = live & ~dead
            out = np.zeros_like(p)
            out[ok] = p[ok] * np.log(p[ok] / q[ok])
            return out

        val, _ = adaptive_simpson(integrand, 0.0, 1.0, spec, bps)
        total += val
    return total


def total_variation(P: DensityPair, Q: DensityPair,
                    spec: QuadratureSpec = QuadratureSpec()) -> float:
    """TV(P, Q) = (1/2) sum over labels of integral of |f_P - f_Q|; in [0, 1]."""
    bps = _pair_breakpoints(P, Q)
    total = 0.0
    for fP, fQ in ((P.fplus, Q.fplus), (P.fminus, Q.fminus)):
        val, _ = adaptive_simpson(
            lambda x, fP=fP, fQ=fQ: np.abs(fP.val(x) - fQ.val(x)),
            0.0, 1.0, spec, bps,
        )
        total += val
    return 0.5 * total
