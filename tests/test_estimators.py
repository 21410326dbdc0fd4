"""ERM, windowed regression, the split estimator, and the clock."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshlab.errors import SampleTooSmall
from threshlab.estimators import (
    clock_estimator,
    erm_threshold,
    estimate_all,
    refine_local,
    resolve_estimator,
    two_step,
)
from threshlab.model import builtin_model
from threshlab.sampling import LabeledSample, SeedPolicy, draw


def arrays_of(points):
    """(x, y) arrays of a list of (x, y) points."""
    if not points:
        return np.empty(0), np.empty(0, dtype=np.int8)
    xs, ys = zip(*points)
    return np.asarray(xs, dtype=float), np.asarray(ys, dtype=np.int8)


def sample_of(points):
    return LabeledSample(*arrays_of(points))


def brute_force_errors(points, a_grid):
    """Misclassification count of h_a over a dense grid of thresholds."""
    order = np.argsort([p[0] for p in points], kind="stable")
    xs = np.array([p[0] for p in points])[order]
    ys = np.array([p[1] for p in points])[order]
    # errors(a) = #{x < a, y = +1} + #{x >= a, y = -1}
    plus_prefix = np.concatenate(([0], np.cumsum(ys == 1)))
    minus_prefix = np.concatenate(([0], np.cumsum(ys == -1)))
    i = np.searchsorted(xs, a_grid, side="left")
    errors = plus_prefix[i] + (minus_prefix[-1] - minus_prefix[i])
    return int(np.min(errors))


# --- erm_threshold ------------------------------------------------------------


def test_erm_clean_split():
    r = erm_threshold(sample_of([(0.2, -1), (0.4, -1), (0.6, 1), (0.8, 1)]))
    assert r.a_hat == pytest.approx(0.5, abs=1e-15)
    assert r.min_errors == 0


def test_erm_all_positive_returns_zero():
    r = erm_threshold(sample_of([(0.3, 1), (0.7, 1)]))
    assert r.a_hat == 0.0
    assert r.min_errors == 0


def test_erm_tied_point_breaks_to_smallest():
    r = erm_threshold(sample_of([(0.5, 1), (0.5, -1)]))
    assert r.min_errors == 1
    assert r.a_hat == 0.0


def test_erm_empty_sample():
    r = erm_threshold(sample_of([]))
    assert r.a_hat == 0.0
    assert r.min_errors == 0


def test_erm_matches_brute_force_grid_oracle():
    rng = np.random.default_rng(1234)
    a_grid = np.linspace(0.0, 1.0, 10_001)
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        pts = [(float(rng.random()), int(rng.choice([-1, 1])))
               for _ in range(k)]
        r = erm_threshold(sample_of(pts))
        assert r.min_errors == brute_force_errors(pts, a_grid)


def test_erm_input_order_invariance():
    rng = np.random.default_rng(7)
    pts = [(float(rng.random()), int(rng.choice([-1, 1]))) for _ in range(30)]
    base = erm_threshold(sample_of(pts))
    for _ in range(5):
        rng.shuffle(pts)
        r = erm_threshold(sample_of(pts))
        assert r.a_hat == base.a_hat
        assert r.min_errors == base.min_errors


@given(st.lists(st.tuples(st.floats(0, 1), st.sampled_from([-1, 1])),
                min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_erm_reported_count_is_achieved(points):
    r = erm_threshold(sample_of(points))
    xs = np.array([p[0] for p in points])
    ys = np.array([p[1] for p in points])
    pred = np.where(xs >= r.a_hat, 1, -1)
    assert int(np.count_nonzero(pred != ys)) == r.min_errors


# --- refine_local ---------------------------------------------------------------


def test_refine_antisymmetric_pair():
    a0 = 0.5
    r = refine_local(*arrays_of([(a0 - 0.1, -1), (a0 + 0.1, 1)]), a0, L=1.0)
    assert not r.fell_back
    assert r.a_hat == pytest.approx(a0, abs=1e-12)


def test_refine_three_point_example():
    a0 = 0.5
    # least squares through the three points: b1 = 10, b2 = -1/3
    x, y = arrays_of([(a0 - 0.1, -1), (a0, -1), (a0 + 0.1, 1)])
    r = refine_local(x, y, a0, L=1.0)
    assert r.window_count == 3
    assert r.a_hat == pytest.approx(a0 + 1.0 / 30.0, abs=1e-12)


def test_refine_single_point_falls_back():
    r = refine_local(*arrays_of([(0.5, 1)]), 0.5, L=1.0)
    assert r.fell_back
    assert r.a_hat == 0.5


def test_refine_duplicate_abscissae_fall_back():
    r = refine_local(*arrays_of([(0.5, 1), (0.5, -1)]), 0.5, L=1.0)
    assert r.fell_back


def test_refine_flat_labels_fall_back():
    # b1 = 0 for constant labels
    r = refine_local(*arrays_of([(0.4, 1), (0.5, 1), (0.6, 1)]), 0.5, L=1.0)
    assert r.fell_back
    assert r.a_hat == 0.5


def test_refine_normal_equation_residual():
    rng = np.random.default_rng(42)
    for _ in range(50):
        pts = [(float(rng.uniform(0.3, 0.7)), int(rng.choice([-1, 1])))
               for _ in range(rng.integers(2, 15))]
        x, y = arrays_of(pts)
        r = refine_local(x, y, 0.5, L=2.0)
        if r.fell_back:
            continue
        # the line y = b1 (x - a0) + b2 by least squares on the window
        inside = np.abs(x - 0.5) <= 2.0 * len(x) ** (-1.0 / 3.0)
        xt = x[inside] - 0.5
        A = np.column_stack((xt, np.ones_like(xt)))
        (b1, b2), *_ = np.linalg.lstsq(A, y[inside].astype(float), rcond=None)
        expected = 0.5 - b2 / b1
        assert r.window_count == len(xt)
        assert abs(r.a_hat - expected) <= 1e-9 * max(1.0, abs(expected))


def test_refine_exact_on_linear_data():
    a0 = 0.4
    c1, c2 = 3.0, -0.45
    xs = np.linspace(a0 - 0.2, a0 + 0.2, 9)
    r = refine_local(xs, c1 * (xs - a0) + c2, a0, L=1.0)
    assert r.a_hat == pytest.approx(a0 - c2 / c1, abs=1e-10)


def test_refine_rejects_bad_arguments():
    x, y = arrays_of([(0.5, 1)])
    with pytest.raises(ValueError):
        refine_local(x, y, 0.5, L=0.0)
    with pytest.raises(ValueError):
        refine_local(x, y, 0.0, L=1.0)
    with pytest.raises(SampleTooSmall):
        refine_local(*arrays_of([]), 0.5, L=1.0)


def test_refine_and_two_step_reject_nan_L():
    # a NaN L must not fall back silently to the start
    x, y = arrays_of([(0.3, -1), (0.7, 1)])
    with pytest.raises(ValueError, match="L must be positive"):
        refine_local(x, y, 0.4, math.nan)
    with pytest.raises(ValueError, match="L must be positive"):
        two_step(sample_of([(0.1, -1), (0.9, 1), (0.3, -1), (0.7, 1)]), math.nan)


def test_refine_window_excludes_far_points():
    # n = 8 -> M = L/2 with L = 1; points outside |x - a0| <= 0.5 are ignored
    near = [(0.45, -1), (0.55, 1)]
    far = [(0.0, 1), (0.001, 1), (0.002, 1), (0.998, -1), (0.999, -1),
           (1.0, -1)]
    r = refine_local(*arrays_of(near + far), 0.5, L=0.2)
    assert r.window_count == 2
    assert r.a_hat == pytest.approx(0.5, abs=1e-12)


# --- two_step -------------------------------------------------------------------


def test_two_step_four_points():
    s = sample_of([(0.1, -1), (0.9, 1), (0.3, -1), (0.7, 1)])
    assert two_step(s, L=1.0) == pytest.approx(0.5, abs=1e-12)


def test_two_step_odd_n_drops_last_point():
    base = [(0.1, -1), (0.9, 1), (0.3, -1), (0.7, 1)]
    with_extra = base + [(0.123, 1)]
    assert two_step(sample_of(with_extra), 1.0) == \
        two_step(sample_of(base), 1.0)


def test_two_step_refinement_depends_on_first_half_only_through_a0():
    first = [(0.1, -1), (0.9, 1)]
    second = [(0.3, -1), (0.7, 1)]
    v1 = two_step(sample_of(first + second), 1.0)
    v2 = two_step(sample_of(list(reversed(first)) + second), 1.0)
    assert v1 == v2


def test_two_step_nudges_boundary_start():
    # all-positive first half puts ERM at 0; refinement must still run
    s = sample_of([(0.2, 1), (0.8, 1), (0.3, -1), (0.7, 1)])
    v = two_step(s, L=1.0)
    assert v == pytest.approx(0.5, abs=1e-12)


def test_two_step_too_small():
    with pytest.raises(SampleTooSmall):
        two_step(sample_of([(0.5, 1)]), 1.0)


# --- clock ------------------------------------------------------------------------


def test_clock_examples():
    assert clock_estimator(1) == 0.0
    assert clock_estimator(3) == 0.5
    assert clock_estimator(13) == 0.625


def test_clock_rejects_nonpositive():
    with pytest.raises(ValueError):
        clock_estimator(0)


def test_clock_sweeps_every_level_within_two_over_n():
    # for each k <= 20 and each target a, some n in [2^k, 2^(k+1)) lands
    # within 2/n of a
    targets = np.round(np.arange(0.0, 1.01, 0.1), 10)
    for k in range(0, 21):
        lo, hi = 1 << k, 1 << (k + 1)
        n = np.arange(lo, hi)
        vals = (n - lo) / lo
        for a in targets:
            gaps = np.abs(vals - a) - 2.0 / n
            assert np.min(gaps) <= 1e-12, (k, a)


@given(st.integers(min_value=1, max_value=10 ** 9))
@settings(max_examples=200, deadline=None)
def test_clock_range(n):
    v = clock_estimator(n)
    assert 0.0 <= v < 1.0


# --- resolve_estimator ---------------------------------------------------------------


def test_resolve_names():
    s = sample_of([(0.1, -1), (0.9, 1), (0.3, -1), (0.7, 1)])

    def one_row(name):
        block, L = resolve_estimator(name)
        return block(s.x[None, :], s.y[None, None, :])[0].tolist(), L

    assert one_row("erm") == ([erm_threshold(s).a_hat], None)
    assert one_row("twostep:L=1") == ([two_step(s, 1.0)], 1.0)
    assert one_row("twostep") == ([two_step(s, 1.0)], None)
    assert one_row("clock") == ([clock_estimator(4)], None)
    assert resolve_estimator("twostep:L=2.5")[1] == 2.5
    with pytest.raises(ValueError):
        resolve_estimator("nearest-neighbor")
    with pytest.raises(ValueError):
        resolve_estimator("twostep:M=1")


def test_estimate_all_row_matches_per_trial_loop():
    P = builtin_model("tilted")
    trials = [5, 0, 17]
    ((got,),) = estimate_all((P,), ("twostep:L=2",), 128, 42, trials)
    want = [two_step(draw(P, 128, SeedPolicy(42, t)), 2.0) for t in trials]
    assert got.tolist() == want
