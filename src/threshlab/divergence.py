"""Relative entropy between density pairs, and the quadrature behind it.

Integration is level-wise adaptive Simpson with a per-panel Richardson error
estimate.  Integrands take a float64 array and return an array of the same
shape; each refinement level evaluates the integrand once, on the new points
of every panel still open.  The crossing point of each pair and any recorded
breakpoints (bump support edges) are inserted as mandatory panel boundaries,
because the integrand's derivative jumps there.  `relative_entropy`
integrates the sum of both labels' terms in one pass, so each refinement
level evaluates the four densities once on one set of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfiniteEntropy, QuadratureNotConverged

__all__ = [
    "QuadratureSpec",
    "relative_entropy",
    "adaptive_simpson",
    "integrate_intervals",
]

_P_FLOOR = 1e-30  # 0 * log 0 := 0 below this mass
_P_MASS = 1e-12   # p above this while q below _P_FLOOR => infinite entropy
_PANELS = 8      # base panels per piece between knots
_MAX_DEPTH = 48  # halvings of a base panel before giving up
# Past this many open panels at one depth the integrand is not converging;
# splitting further would only double the work and memory per level.
_MAX_OPEN_PANELS = 2 ** 16


@dataclass(frozen=True)
class QuadratureSpec:
    tol: float = 1e-10

    def __post_init__(self):
        if not self.tol > 0:  # NaN fails too
            raise ValueError("tol must be positive")


def adaptive_simpson(f, a: float, b: float, spec: QuadratureSpec,
                     breakpoints=()) -> tuple:
    """Integrate f on [a, b]; returns (value, error_estimate).

    The one-interval case of integrate_intervals, which documents the rule.
    """
    values, errors = integrate_intervals(f, [a], [b], spec, breakpoints)
    return float(values[0]), float(errors[0])


def integrate_intervals(f, a, b, spec: QuadratureSpec,
                        breakpoints=()) -> tuple:
    """Integrate f on each [a[k], b[k]]; returns (values, error_estimates),
    two arrays of the same length as a.

    f maps a float64 array to an array of the same shape.  An interval with
    b[k] <= a[k] integrates to 0.  Interior breakpoints become hard panel
    boundaries, and each piece between them is cut into _PANELS base
    panels.  All open panels of all intervals are then halved level by
    level, with one call of f per level on the quarter points of every open
    panel.  A panel is accepted once |left + right - whole| / 15 meets its
    share of spec.tol, which is proportional to its length within its
    interval.  Each interval's accepted panels are summed on their own with
    math.fsum, so every value and error estimate equals that of a separate
    call on that interval alone.  Raises QuadratureNotConverged past
    _MAX_DEPTH, on a non-finite error estimate, or when one interval
    has more than _MAX_OPEN_PANELS panels open at once.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    count = len(a)
    # pieces between consecutive knots, interval by interval
    plo, phi, powner = [], [], []
    for k, (ak, bk) in enumerate(zip(a.tolist(), b.tolist())):
        if bk <= ak:
            continue
        knots = sorted({ak, bk, *(p for p in breakpoints if ak < p < bk)})
        plo += knots[:-1]
        phi += knots[1:]
        powner += [k] * (len(knots) - 1)
    if not powner:
        return np.zeros(count), np.zeros(count)
    plo, phi, powner = np.array(plo), np.array(phi), np.array(powner)
    # panel edges lo + i w of each piece; its last panel ends on its knot
    w = (phi - plo) / _PANELS
    edges = plo[:, None] + np.arange(_PANELS + 1) * w[:, None]
    edges[:, -1] = phi
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    tol = (spec.tol * (edges[:, 1:] - edges[:, :-1])
           / (b - a)[powner][:, None]).ravel()
    owner = np.repeat(powner, _PANELS)
    mid = 0.5 * (lo + hi)
    m = len(lo)
    fx = f(np.concatenate((lo, mid, hi)))
    flo, fmid, fhi = fx[:m], fx[m:2 * m], fx[2 * m:]
    whole = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
    values, errors, owners = [], [], []
    for depth in range(_MAX_DEPTH + 1):
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        m = len(lo)
        fx = f(np.concatenate((lm, rm)))
        flm, frm = fx[:m], fx[m:]
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
        owners.append(owner[done])
        if done.all():
            return _sum_by_owner(count, values, errors, owners)
        open_ = ~done
        if depth == _MAX_DEPTH:
            i = int(np.argmax(open_))
            raise QuadratureNotConverged(
                f"max depth {_MAX_DEPTH} hit on [{lo[i]}, {hi[i]}], "
                f"error estimate {err[i]:.3e}"
            )
        n_open = 2 * int(np.count_nonzero(open_))
        if n_open > _MAX_OPEN_PANELS:  # then count them per interval
            n_open = 2 * int(np.bincount(owner[open_]).max())
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
        owner = np.concatenate((owner[open_], owner[open_]))


def _sum_by_owner(count, values, errors, owners) -> tuple:
    """math.fsum of the accepted panel values and errors of each interval."""
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    ends = np.cumsum(np.bincount(owner, minlength=count)).tolist()
    vals = np.concatenate(values)[order].tolist()
    errs = np.concatenate(errors)[order].tolist()
    out_v, out_e = np.zeros(count), np.zeros(count)
    start = 0
    for k, end in enumerate(ends):
        out_v[k] = math.fsum(vals[start:end])
        out_e[k] = math.fsum(errs[start:end])
        start = end
    return out_v, out_e


def relative_entropy(P, Q, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """H(P, Q) = integral over [0, 1] of the sum over labels y of
    f_P^y log(f_P^y / f_Q^y), for two `model.DensityPair` models P and Q.

    One adaptive_simpson pass integrates the summed integrand, with both
    pairs' breakpoints and both thresholds as panel boundaries.  Each
    label's term is 0 where its f_P^y <= _P_FLOOR (0 log 0 := 0) or where
    its f_Q^y < _P_FLOOR and f_P^y <= _P_MASS; InfiniteEntropy is raised
    where f_Q^y < _P_FLOOR and f_P^y > _P_MASS.
    """
    bps = (*P.breakpoints, *Q.breakpoints, P.threshold, Q.threshold)

    def integrand(x):
        # row 0 is the label +1, row 1 the label -1
        p = np.stack((P.fplus.val(x), P.fminus.val(x)))
        q = np.stack((Q.fplus.val(x), Q.fminus.val(x)))
        live = p > _P_FLOOR
        dead = live & (q < _P_FLOOR)
        ok = live & ~dead
        if ok.all():
            terms = p * np.log(p / q)
        else:
            infinite = dead & (p > _P_MASS)
            if infinite.any():
                label, i = np.unravel_index(np.argmax(infinite), p.shape)
                raise InfiniteEntropy(
                    f"f_Q vanishes at x={x[i]} while f_P={p[label, i]:.3e}"
                )
            terms = np.zeros_like(p)
            terms[ok] = p[ok] * np.log(p[ok] / q[ok])
        return terms[0] + terms[1]

    return adaptive_simpson(integrand, 0.0, 1.0, spec, bps)[0]
