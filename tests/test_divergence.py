"""Quadrature and relative entropy against analytic and Riemann oracles."""

import math
import time

import numpy as np
import pytest

from threshlab import divergence
from threshlab.divergence import (
    _MAX_DEPTH,
    _PANELS,
    QuadratureSpec,
    adaptive_simpson,
    integrate_intervals,
    relative_entropy,
)
from threshlab.errors import InfiniteEntropy, QuadratureNotConverged
from threshlab.expr import Affine, BumpComposite, CosSquaredProfile
from threshlab.model import DensityPair, builtin_models
from threshlab.perturbation import build_certificate, default_bump, perturb


@pytest.fixture(scope="module")
def models():
    return {m.name: m for m in builtin_models()}


def test_quadrature_spec_rejects_bad_tol():
    with pytest.raises(ValueError):
        QuadratureSpec(tol=0.0)
    with pytest.raises(ValueError, match="tol must be positive"):
        QuadratureSpec(tol=math.nan)


def test_adaptive_simpson_polynomial_exact():
    val, err = adaptive_simpson(lambda x: x ** 3, 0.0, 1.0, QuadratureSpec())
    assert val == pytest.approx(0.25, abs=1e-14)
    assert err <= 1e-12


def test_adaptive_simpson_respects_breakpoints():
    # |x - 1/3| has a kink; the breakpoint makes each panel smooth
    f = lambda x: abs(x - 1.0 / 3.0)
    val, _ = adaptive_simpson(f, 0.0, 1.0, QuadratureSpec(tol=1e-12),
                              breakpoints=(1.0 / 3.0,))
    exact = (1.0 / 3.0) ** 2 / 2 + (2.0 / 3.0) ** 2 / 2
    assert val == pytest.approx(exact, abs=1e-12)


def _step(x):
    """A jump at 0.37, not a breakpoint: one panel straddles it at every
    depth, and its error estimate never drops below a tiny tol."""
    return np.where(x < 0.37, 0.0, 1.0)


def test_adaptive_simpson_raises_at_max_depth():
    with pytest.raises(QuadratureNotConverged, match=f"max depth {_MAX_DEPTH}"):
        adaptive_simpson(_step, 0.0, 1.0, QuadratureSpec(tol=1e-19))


# --- reference: recursive scalar Simpson -----------------------------------------
# Same panels, midpoints, tolerance shares and acceptance rule as the engine,
# one integrand point per call, depth first.


def _ref_simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _ref_adapt(f, a, b, fa, fm, fb, whole, tol, depth, max_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _ref_simpson(fa, flm, fm, m - a)
    right = _ref_simpson(fm, frm, fb, b - m)
    err = (left + right - whole) / 15.0
    if abs(err) <= tol:
        return left + right + err, abs(err)
    if depth >= max_depth:
        raise QuadratureNotConverged(f"max depth {max_depth} hit on [{a}, {b}]")
    li, le = _ref_adapt(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1,
                        max_depth)
    ri, re = _ref_adapt(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1,
                        max_depth)
    return li + ri, le + re


def reference_simpson(f, a, b, spec, breakpoints=()):
    knots = sorted({a, b, *(p for p in breakpoints if a < p < b)})
    edges = []
    for lo, hi in zip(knots[:-1], knots[1:]):
        w = (hi - lo) / _PANELS
        edges.extend(lo + i * w for i in range(_PANELS))
    edges.append(b)
    total = 0.0
    err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        fa, fm, fb = f(lo), f(0.5 * (lo + hi)), f(hi)
        whole = _ref_simpson(fa, fm, fb, hi - lo)
        tol = spec.tol * (hi - lo) / (b - a)
        v, e = _ref_adapt(f, lo, hi, fa, fm, fb, whole, tol, 0, _MAX_DEPTH)
        total += v
        err += e
    return total, err


class Counted:
    """Wraps an array integrand; counts calls and integrand points."""

    def __init__(self, f):
        self.f, self.calls, self.points = f, 0, 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.f(x)


def _certified_q_integrands():
    cases = []
    for P in builtin_models():
        q = build_certificate(P, default_bump(), 0.05, 10_000).q
        for label, f in (("fplus", q.fplus.val), ("fminus", q.fminus.val),
                         ("fsum", q.fsum)):
            cases.append(pytest.param(f, q.breakpoints,
                                      id=f"{P.name}-certified-q-{label}"))
    return cases


@pytest.mark.parametrize("f, breakpoints", [
    pytest.param(lambda x: x ** 3, (), id="cube"),
    pytest.param(lambda x: abs(x - 1.0 / 3.0), (1.0 / 3.0,), id="kink"),
    *_certified_q_integrands(),
])
def test_adaptive_simpson_matches_recursive_reference(f, breakpoints):
    spec = QuadratureSpec()
    new, ref = Counted(f), Counted(f)
    val, err = adaptive_simpson(new, 0.0, 1.0, spec, breakpoints)
    ref_val, ref_err = reference_simpson(ref, 0.0, 1.0, spec, breakpoints)
    # float64 sums of at most 300 panel values, in a different order
    assert abs(val - ref_val) <= 1e-14
    assert err == pytest.approx(ref_err, rel=1e-12, abs=1e-30)
    assert new.points == ref.points
    assert new.calls <= _MAX_DEPTH + 2


def test_adaptive_simpson_one_call_per_level():
    # the kink at 0.37 is not a breakpoint, so refinement runs deep
    spec = QuadratureSpec(tol=1e-8)
    f = Counted(lambda x: np.abs(x - 0.37))
    val, _ = adaptive_simpson(f, 0.0, 1.0, spec)
    assert val == pytest.approx((0.37 ** 2 + 0.63 ** 2) / 2, abs=1e-8)
    assert 3 <= f.calls <= _MAX_DEPTH + 2
    g = Counted(lambda x: np.sqrt(np.abs(x - 0.37)))
    with pytest.raises(QuadratureNotConverged):
        adaptive_simpson(g, 0.0, 1.0, QuadratureSpec(tol=1e-15))
    assert g.calls == _MAX_DEPTH + 2


@pytest.mark.parametrize("f, tol", [
    pytest.param(lambda x: np.where(x < 0.5, x, np.nan), 1e-10, id="nan"),
    pytest.param(lambda x: np.exp(x) * np.sin(7 * x) + 1 / (1.1 + x), 1e-19,
                 id="tol-below-rounding"),
])
def test_adaptive_simpson_fails_fast(f, tol):
    counted = Counted(f)
    start = time.perf_counter()
    with pytest.raises(QuadratureNotConverged):
        adaptive_simpson(counted, 0.0, 1.0, QuadratureSpec(tol=tol))
    assert time.perf_counter() - start < 5.0
    assert counted.points < 1_000_000


# --- many intervals at once ------------------------------------------------------


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _interval_cases():
    """(integrand, breakpoints, threshold) for x^3, a kink, and the margin
    and f_sigma of each built-in model's certified Q."""
    cases = [pytest.param(lambda x: x ** 3, (), 0.5, id="cube"),
             pytest.param(lambda x: np.abs(x - 1.0 / 3.0), (1.0 / 3.0,),
                          1.0 / 3.0, id="kink")]
    for P in builtin_models():
        q = build_certificate(P, default_bump(), 0.05, 10_000).q
        for label, f in (("margin", q.margin), ("fsum", q.fsum)):
            cases.append(pytest.param(f, q.breakpoints, q.threshold,
                                      id=f"{P.name}-certified-q-{label}"))
    return cases


@pytest.mark.parametrize("f, breakpoints, a", _interval_cases())
def test_integrate_intervals_equals_one_call_per_interval(f, breakpoints, a):
    # empty, reversed, tiny, whole-domain, breakpoint- and threshold-
    # straddling intervals, and intervals that end on a breakpoint
    ends = [0.0, 1.0, a, *breakpoints]
    lo = [0.3, 0.7, 0.0, a - 1e-3, a - 0.2, a, 0.0, a + 1e-9, *ends, 0.25]
    hi = [0.3, 0.2, 1.0, a + 1e-3, a + 0.2, 0.9, a, a, *ends[::-1], 0.75]
    spec = QuadratureSpec()
    counted = Counted(f)
    values, errors = integrate_intervals(counted, lo, hi, spec, breakpoints)
    one = [adaptive_simpson(f, l, h, spec, breakpoints) for l, h in zip(lo, hi)]
    assert _bits(values) == _bits([v for v, _ in one])
    assert _bits(errors) == _bits([e for _, e in one])
    assert values[0] == errors[0] == values[1] == errors[1] == 0.0
    assert counted.calls <= _MAX_DEPTH + 2


def test_integrate_intervals_empty_input_calls_nothing():
    f = Counted(lambda x: x)
    for lo, hi in (([], []), ([0.5, 0.9], [0.5, 0.1])):
        values, errors = integrate_intervals(f, lo, hi, QuadratureSpec())
        assert values.tolist() == errors.tolist() == [0.0] * len(lo)
    assert f.calls == 0


def test_integrate_intervals_raises_for_any_interval():
    spec = QuadratureSpec()
    nan_right = lambda x: np.where(x < 0.5, x, np.nan)
    with pytest.raises(QuadratureNotConverged, match="non-finite"):
        integrate_intervals(nan_right, [0.0, 0.1, 0.6], [0.2, 0.3, 0.9], spec)
    with pytest.raises(QuadratureNotConverged, match="max depth"):
        integrate_intervals(_step, [0.5, 0.0], [0.9, 0.4],
                            QuadratureSpec(tol=1e-19))
    with pytest.raises(QuadratureNotConverged, match="over the limit"):
        integrate_intervals(
            lambda x: np.exp(x) * np.sin(7 * x) + 1 / (1.1 + x),
            [0.5, 0.0], [0.6, 1.0], QuadratureSpec(tol=1e-19))


def test_open_panel_limit_is_per_interval(monkeypatch):
    # at depth 1 each interval opens 2 * 8 = 16 panels, the three together
    # 48: a limit of 40 stops all three but none alone
    monkeypatch.setattr(divergence, "_MAX_OPEN_PANELS", 40)
    monkeypatch.setattr(divergence, "_MAX_DEPTH", 1)
    spec = QuadratureSpec(tol=1e-300)
    f = lambda x: np.sin(1000.0 * x)
    with pytest.raises(QuadratureNotConverged, match="max depth 1"):
        integrate_intervals(f, [0.0, 0.5, 0.25], [0.5, 1.0, 0.75], spec)
    # one interval with 3 * 8 base panels opens 48 at once and is stopped
    monkeypatch.setattr(divergence, "_PANELS", 3 * _PANELS)
    with pytest.raises(QuadratureNotConverged, match="48 panels open at depth 1"):
        integrate_intervals(f, [0.0], [1.0], spec)


# --- relative entropy ----------------------------------------------------------


def test_entropy_of_identical_pair(models):
    for m in models.values():
        assert abs(relative_entropy(m, m)) <= 1e-12


def test_entropy_canonical_tilted_analytic(models):
    # integral of x log x dx = -1/4 gives H = 1/4 - log 1.2
    h = relative_entropy(models["canonical"], models["tilted"])
    assert h == pytest.approx(0.25 - math.log(1.2), abs=1e-9)


def test_entropy_perturbed_matches_leading_order(models):
    eps = 0.1
    q = perturb(models["canonical"], default_bump(), eps)
    h = relative_entropy(models["canonical"], q)
    lead = 0.5 * 0.25 * eps ** 3 * 0.75
    assert abs(h - lead) <= 0.1 * lead
    # cross-check against a fine-grid Riemann oracle
    x = np.linspace(0, 1, 400_001)
    oracle = 0.0
    for fP, fQ in ((models["canonical"].fplus, q.fplus),
                   (models["canonical"].fminus, q.fminus)):
        p, qq = fP.val(x), fQ.val(x)
        integ = np.where(p > 1e-30, p * np.log(np.where(p > 1e-30, p, 1.0)
                                               / np.maximum(qq, 1e-300)), 0.0)
        oracle += np.trapezoid(integ, x)
    assert h == pytest.approx(oracle, abs=1e-8)


def test_entropy_nonnegative_on_builtin_pairs(models):
    for P in models.values():
        for Q in models.values():
            assert relative_entropy(P, Q) >= -1e-12


def test_entropy_cubic_scaling(models):
    bump = default_bump()
    P = models["canonical"]
    ratios = []
    for eps in (0.04, 0.08, 0.16):
        h = relative_entropy(P, perturb(P, bump, eps))
        ratios.append(h / eps ** 3)
    assert max(ratios) / min(ratios) <= 1.15


def test_infinite_entropy_detected():
    # Q's f+ vanishes identically on [0, 0.2] while canonical has mass there
    shifted = BumpComposite(CosSquaredProfile(1.0), center=1.2, eps=1.0)
    mass = 0.4 - math.sin(0.2 * math.pi) / (2.0 * math.pi)
    d = 2.0 * (1.0 - mass)
    Q = DensityPair(shifted, Affine(-d, d), name="late-riser")
    assert all(ok for ok, _ in Q.validate().values())
    P = builtin_models()[0]
    with pytest.raises(InfiniteEntropy):
        relative_entropy(P, Q)


# --- Pinsker's inequality ------------------------------------------------------


def riemann_tv(P, Q):
    """TV(P, Q) = (1/2) sum over labels of the integral of |f_P - f_Q|, by
    the trapezoid rule on 10^6 + 1 points."""
    x = np.linspace(0, 1, 1_000_001)
    return 0.5 * float(
        np.trapezoid(np.abs(P.fplus.val(x) - Q.fplus.val(x)), x)
        + np.trapezoid(np.abs(P.fminus.val(x) - Q.fminus.val(x)), x)
    )


def test_pinsker_sanity(models):
    pairs = list(models.values())
    for P in pairs:
        for Q in pairs:
            if P.name == Q.name:
                continue
            tv = riemann_tv(P, Q)
            h = relative_entropy(P, Q)
            assert 0.0 < tv < 1.0
            assert tv ** 2 <= h / 2.0 + 1e-9
