"""Prediction error, excess risk, and the local quadratic sandwich."""

import math

import numpy as np
import pytest

from threshlab.divergence import QuadratureSpec, adaptive_simpson
from threshlab.errors import NotMonotoneLocal
from threshlab.model import builtin_models
from threshlab.risk import excess_risk, prediction_error, quadratic_bounds

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def models():
    return {m.name: m for m in builtin_models()}


# --- prediction_error -----------------------------------------------------------


def test_loss_canonical_at_half(models):
    assert prediction_error(models["canonical"], 0.5) == \
        pytest.approx(0.25, abs=1e-10)


def test_loss_canonical_at_zero(models):
    assert prediction_error(models["canonical"], 0.0) == \
        pytest.approx(0.5, abs=1e-10)


def test_loss_canonical_closed_form_curve(models):
    # L(alpha) = alpha^2/2 + (1 - alpha)^2/2
    for alpha in np.linspace(0.0, 1.0, 21):
        expect = 0.5 * alpha ** 2 + 0.5 * (1 - alpha) ** 2
        assert prediction_error(models["canonical"], float(alpha)) == \
            pytest.approx(expect, abs=1e-10)


def test_loss_tilted_at_bayes_threshold(models):
    a = models["tilted"].threshold
    expect = 0.4 * a ** 3 + 0.6 * (1 - a) ** 2
    assert expect == pytest.approx(0.18197, abs=5e-5)
    assert prediction_error(models["tilted"], a) == \
        pytest.approx(expect, abs=1e-10)


def test_loss_clamps_out_of_range(models):
    P = models["canonical"]
    assert prediction_error(P, -3.0) == prediction_error(P, 0.0)
    assert prediction_error(P, 7.0) == prediction_error(P, 1.0)


def reference_prediction_error(P, alpha):
    """The scalar form: one adaptive_simpson call per side of alpha."""
    alpha = min(max(alpha, 0.0), 1.0)
    spec = QuadratureSpec()
    left, _ = adaptive_simpson(P.fplus.val, 0.0, alpha, spec, P.breakpoints)
    right, _ = adaptive_simpson(P.fminus.val, alpha, 1.0, spec, P.breakpoints)
    return left + right


def test_loss_array_equals_scalar_reference(models):
    alphas = np.linspace(-0.2, 1.2, 141)
    for P in models.values():
        want = [reference_prediction_error(P, float(al)) for al in alphas]
        got = prediction_error(P, alphas)
        assert got.view(np.int64).tolist() == \
            np.array(want).view(np.int64).tolist()
        assert [prediction_error(P, float(al)) for al in alphas[::10]] == \
            want[::10]
        assert prediction_error(P, alphas.reshape(1, -1)).shape == (1, 141)
    with pytest.raises(ValueError):
        prediction_error(models["canonical"], np.array([0.2, np.nan]))


# --- excess_risk ------------------------------------------------------------------


def test_excess_vanishes_at_threshold(models):
    for P in models.values():
        assert abs(excess_risk(P, P.threshold)) <= 1e-12


def test_excess_canonical_exact_quadratic(models):
    P = models["canonical"]
    for alpha in np.linspace(0.0, 1.0, 41):
        assert excess_risk(P, float(alpha)) == \
            pytest.approx((alpha - 0.5) ** 2, abs=1e-10)


def test_excess_tilted_analytic(models):
    # integral of (1.2 x^2 - 1.2 (1 - x)) from a to 0.7
    P = models["tilted"]
    a = P.threshold

    def antider(x):
        return 0.4 * x ** 3 + 0.6 * (1 - x) ** 2

    expect = antider(0.7) - antider(a)
    assert expect > 0
    assert excess_risk(P, 0.7) == pytest.approx(expect, abs=1e-10)


def test_excess_consistent_with_loss_difference(models):
    for P in models.values():
        base = prediction_error(P, P.threshold)
        for alpha in (0.1, 0.35, 0.8):
            assert excess_risk(P, alpha) == \
                pytest.approx(prediction_error(P, alpha) - base, abs=2e-10)


def test_excess_nonnegative_with_unique_zero(models):
    for P in models.values():
        for alpha in np.linspace(0.01, 0.99, 25):
            e = excess_risk(P, float(alpha))
            assert e >= -1e-12
            if abs(alpha - P.threshold) > 0.02:
                assert e > 1e-6


def test_margin_sign_matches_side_of_threshold(models):
    for P in models.values():
        a = P.threshold
        x = np.linspace(0.001, 0.999, 997)
        m = P.margin(x)
        off = np.abs(x - a) > 1e-6
        assert np.all(np.sign(m[off]) == np.sign(x[off] - a))


# --- quadratic_bounds ---------------------------------------------------------------


def test_bounds_canonical_constants(models):
    # a = 1/2, so eps = 1/4
    qb = quadratic_bounds(models["canonical"])
    assert qb.eps_nbhd == 0.25
    assert qb.c3 == pytest.approx(1.0, abs=1e-12)
    assert qb.c10 == pytest.approx(1.0, abs=1e-12)
    assert qb.c9 == pytest.approx(0.25 ** 2, abs=1e-12)


def test_bounds_tilted_left_endpoint(models):
    # m' = 2.4 x + 1.2 grows, so c3 is half its value at a - eps, where
    # eps = (1 - a) / 2 with a = GOLDEN
    qb = quadratic_bounds(models["tilted"])
    eps = 0.5 * (1.0 - GOLDEN)
    assert qb.eps_nbhd == pytest.approx(eps, rel=1e-12)
    expect = 0.5 * (2.4 * (GOLDEN - eps) + 1.2)
    assert qb.c3 == pytest.approx(expect, rel=1e-6)
    assert qb.c3 == pytest.approx(1.1125, abs=5e-4)


def test_bounds_invariants(models):
    for P in models.values():
        qb = quadratic_bounds(P)
        assert 0 < qb.c3 <= qb.c10
        assert qb.c9 == pytest.approx(qb.c3 * qb.eps_nbhd ** 2, rel=1e-14)
        a = P.threshold
        assert qb.eps_nbhd == 0.5 * min(a, 1.0 - a)


def test_sandwich_on_alpha_grid(models):
    for P in models.values():
        qb = quadratic_bounds(P)
        a = P.threshold
        for alpha in np.linspace(0.0, 1.0, 101):
            e = excess_risk(P, float(alpha))
            lower = min(qb.c9, qb.c3 * (a - alpha) ** 2)
            upper = qb.c10 * (a - alpha) ** 2
            assert lower <= e + 1e-9, (P.name, alpha)
            assert e <= upper + 1e-9, (P.name, alpha)


def test_sandwich_tight_for_canonical(models):
    # m' is constant, so both bounds meet the excess exactly near a
    qb = quadratic_bounds(models["canonical"])
    for alpha in np.linspace(0.3, 0.7, 9):
        e = excess_risk(models["canonical"], float(alpha))
        assert e == pytest.approx(qb.c3 * (0.5 - alpha) ** 2, abs=1e-10)
        assert e == pytest.approx(qb.c10 * (0.5 - alpha) ** 2, abs=1e-10)


def test_bounds_not_monotone():
    from threshlab.expr import Const, Monomial
    from threshlab.model import DensityPair

    # m(t) = 0.1 (t - 5 t^2 + 7 t^3) with t = x - 1/2: single transversal
    # zero at t = 0 but m' < 0 on (1/7, 1/3), inside the window |t| <= 1/4
    fplus = Const(0.5) + Monomial(0.7, 3) + Monomial(-1.55, 2) + \
        Monomial(1.125, 1) + Const(-0.2625)
    P = DensityPair(fplus, Const(0.5), name="cubic-dip")
    assert P.threshold == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(NotMonotoneLocal):
        quadratic_bounds(P)


def test_bounds_dip_outside_window():
    from threshlab.expr import Affine, Const
    from threshlab.model import DensityPair

    # m(t) = c (t - (35/12) t^2 + (25/9) t^3) with t = x - 1/2 has
    # m' = c (1 - (35/6) t + (25/3) t^2) < 0 on (0.3, 0.4), outside the
    # window |t| <= 1/4, where m' is least at t = 1/4: c / 16
    c = 0.1
    t = Affine(1.0, -0.5)
    m = c * (t - (35.0 / 12.0) * t * t + (25.0 / 9.0) * t * t * t)
    P = DensityPair(Const(0.5) + m, Const(0.5), name="outer-dip")
    assert P.threshold == 0.5
    qb = quadratic_bounds(P)
    assert qb.c3 == pytest.approx(0.5 * c / 16.0, rel=1e-9)
    # c10 still reads the whole of [0, 1], where m' dips below 0
    assert float(P.margin_der(0.85)) < 0.0 < qb.c3 <= qb.c10
