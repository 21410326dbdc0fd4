"""Bump profile, amplitude schedule, perturbed pairs, and certificates."""

import math
from dataclasses import replace

import numpy as np
import pytest

from threshlab.divergence import QuadratureSpec, adaptive_simpson
from threshlab.errors import EpsTooLarge, NegativeDensity, PremiseFails, SupportEscapes
from threshlab.expr import BumpComposite, CosSquaredProfile
from threshlab.model import DensityPair, builtin_models
from threshlab.perturbation import (
    build_certificate,
    default_bump,
    estimate_c1,
    make_plan,
    perturb,
)

DELTA = 0.05
LOG11D = abs(math.log(11.0 * DELTA))


@pytest.fixture(scope="module")
def models():
    return {m.name: m for m in builtin_models()}


@pytest.fixture(scope="module")
def bump():
    return default_bump()


# --- default bump ----------------------------------------------------------------


def test_default_bump_peak(bump):
    assert float(bump.val(0.0)) == pytest.approx(1.0, abs=1e-15)


def test_default_bump_l2_norm_quadrature_oracle(bump):
    q, _ = adaptive_simpson(lambda t: bump.val(t) ** 2,
                            -1.0, 1.0, QuadratureSpec(tol=1e-13))
    assert q == pytest.approx(0.75, abs=1e-11)
    assert bump.l2sq == pytest.approx(q, abs=1e-10)


def test_default_bump_derivative_sup(bump):
    grid = np.linspace(-1, 1, 200_001)
    sup = float(np.max(np.abs(bump.der(grid))))
    assert sup == pytest.approx(math.pi / 2.0, abs=1e-8)


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0])
def test_cos_squared_profile_invariants(r):
    """phi(0) = 1, 0 <= phi <= 1, phi and phi' vanish at the support edges
    (a C^1 extension by zero), and l2sq is the integral of phi^2."""
    phi = CosSquaredProfile(r)
    assert float(phi.val(0.0)) == 1.0
    v = phi.val(np.linspace(-r, r, 20001))
    assert 0.0 <= float(np.min(v)) and float(np.max(v)) <= 1.0
    for edge in (-r, r):
        assert abs(float(phi.val(edge))) <= 1e-12
        assert abs(float(phi.der(edge))) <= 1e-12
    q, _ = adaptive_simpson(lambda t: phi.val(t) ** 2, -r, r,
                            QuadratureSpec(tol=1e-13))
    assert abs(phi.l2sq - q) <= 1e-11 * r


NOT_POSITIVE_FINITE = pytest.mark.parametrize(
    "value", [0.0, -1.0, math.inf, math.nan], ids=["0", "-1", "inf", "nan"])


@NOT_POSITIVE_FINITE
def test_profile_rejects_a_radius_that_is_not_positive_and_finite(value):
    with pytest.raises(ValueError, match="radius must be positive and finite"):
        CosSquaredProfile(radius=value)


@NOT_POSITIVE_FINITE
def test_bump_rejects_an_eps_that_is_not_positive_and_finite(value, bump):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        BumpComposite(bump, 0.5, eps=value)


# --- make_plan --------------------------------------------------------------------


def test_plan_canonical_arithmetic(models, bump):
    plan = make_plan(models["canonical"], bump, DELTA, 10 ** 4)
    assert plan.c4 == pytest.approx(0.75 ** (-1.0 / 3.0), rel=1e-4)
    assert plan.eps == pytest.approx(
        plan.c4 * LOG11D ** (1.0 / 3.0) * (10 ** 4) ** (-1.0 / 3.0), rel=1e-12
    )
    assert plan.eps == pytest.approx(0.04304, abs=5e-5)


def test_plan_eps_scales_as_cube_root(models, bump):
    p1 = make_plan(models["canonical"], bump, DELTA, 10 ** 4)
    p8 = make_plan(models["canonical"], bump, DELTA, 8 * 10 ** 4)
    assert p8.eps == pytest.approx(p1.eps / 2.0, rel=1e-14)


def test_plan_delta_out_of_range(models, bump):
    for delta in (0.2, 1.0 / 11.0):
        with pytest.raises(PremiseFails) as exc:
            make_plan(models["canonical"], bump, delta, 100)
        assert exc.value.which == "delta"
        assert str(exc.value) == \
            f"premise failed: delta (delta={delta} outside (0, 1/11))"


def test_plan_eps_too_large_for_tiny_n(models, bump):
    with pytest.raises(EpsTooLarge):
        make_plan(models["canonical"], bump, 0.001, 1)


# --- perturb ----------------------------------------------------------------------


@pytest.mark.parametrize("eps", [0.04, 0.08, 0.16])
def test_sum_preservation(models, bump, eps):
    # so Q keeps P as its base, from whose f_sigma the sampler draws X
    x = np.linspace(0.0, 1.0, 10_000)
    for P in models.values():
        q = perturb(P, bump, eps)
        assert np.max(np.abs(q.fsum(x) - P.fsum(x))) <= 1e-12
        assert P.marginal is P and q.base is P and q.marginal is P
        twice = perturb(q, bump, eps / 2)
        assert twice.base is P and twice.marginal is P
    # only perturb sets a base and breakpoints: DensityPair takes neither
    for kwargs in ({"base": P}, {"breakpoints": (0.3,)}):
        with pytest.raises(TypeError):
            DensityPair(P.fplus, P.fminus, **kwargs)


def test_renamed_perturbed_pair_keeps_its_bump(models, bump):
    # model_from_config renames a pair with a plain dataclasses.replace
    for P in models.values():
        q = perturb(P, bump, 0.08)
        named = replace(q, name="x")
        assert type(named) is type(q) and named.name == "x"
        assert named.base is q.base and named.breakpoints == q.breakpoints
        assert named.threshold.hex() == q.threshold.hex()


@pytest.mark.parametrize("eps", [0.04, 0.08, 0.16])
def test_perturbed_normalization(models, bump, eps):
    spec = QuadratureSpec(tol=1e-10)
    for P in models.values():
        q = perturb(P, bump, eps)
        total, _ = adaptive_simpson(q.fsum, 0.0, 1.0,
                                    spec, q.breakpoints)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_perturbed_threshold_shift(models, bump):
    q = perturb(models["canonical"], bump, 0.1)
    assert q.threshold == pytest.approx(0.4779, abs=5e-4)
    shift = abs(q.threshold - 0.5)
    assert shift == pytest.approx(0.1 / 4.5, rel=0.02)


def test_density_ratio_form(models, bump):
    # (f_Q^+/f_P^+ - 1) = Xi rho^- and (f_Q^-/f_P^- - 1) = -Xi rho^+
    eps = 0.08
    for P in models.values():
        q = perturb(P, bump, eps)
        a = P.threshold
        x = np.linspace(0.0, 1.0, 10_001)
        fp, fm = P.fplus.val(x), P.fminus.val(x)
        mask = (fp > 1e-12) & (fm > 1e-12)
        xi = np.where(np.abs(x - a) <= eps,
                      eps * np.cos(np.pi * (x - a) / (2 * eps)) ** 2, 0.0)
        fsum = fp + fm
        lhs_plus = q.fplus.val(x)[mask] / fp[mask] - 1.0
        lhs_minus = q.fminus.val(x)[mask] / fm[mask] - 1.0
        assert np.max(np.abs(lhs_plus - (xi * fm / fsum)[mask])) <= 1e-12
        assert np.max(np.abs(lhs_minus + (xi * fp / fsum)[mask])) <= 1e-12


def test_perturb_support_escape(models, bump):
    with pytest.raises(SupportEscapes):
        perturb(models["canonical"], bump, 0.6)


def test_perturb_negative_density(models):
    # tall narrow spike: support [0.2, 0.8] stays inside (0,1) but the
    # multiplier (1 - Xi rho^+) drops below zero near the peak
    with pytest.raises(NegativeDensity):
        perturb(models["canonical"], CosSquaredProfile(0.1), 3.0)


# --- c1 estimate --------------------------------------------------------------------


def test_c1_canonical_value(models, bump):
    c1 = estimate_c1(models["canonical"], bump)
    assert c1 > 0
    assert c1 == pytest.approx(0.0246, rel=0.15)


def test_c1_positive_for_all_builtins(models, bump):
    for P in models.values():
        assert estimate_c1(P, bump) > 0


def test_c1_decreases_for_squeezed_bump(models, bump):
    # doubling ||phi'||_inf raises c5 and lowers c1
    wide = estimate_c1(models["canonical"], bump)
    squeezed = estimate_c1(models["canonical"], CosSquaredProfile(0.5))
    assert squeezed < wide


# --- certificate ---------------------------------------------------------------------


def test_certificate_entropy_budget(models, bump):
    cert = build_certificate(models["canonical"], bump, DELTA, 10 ** 5)
    assert cert.entropy_ok
    budget = 0.5 * LOG11D
    assert cert.entropy_budget == pytest.approx(budget, abs=1e-14)
    # true entropy sits well below the designed budget (about a quarter)
    assert 10 ** 5 * cert.entropy < 0.5 * budget


def test_certificate_design_identity(models, bump):
    for P in models.values():
        plan = make_plan(P, bump, DELTA, 10 ** 4)
        fsup = P.sup_density()
        lhs = 0.5 * fsup * bump.l2sq * plan.n * plan.eps ** 3
        assert abs(lhs - 0.5 * LOG11D) <= 1e-10


def test_certificate_separation_sweep(models, bump):
    for name in ("canonical", "tilted"):
        for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            cert = build_certificate(models[name], bump, DELTA, n)
            assert cert.separation_ok, (name, n, cert.separation)


def test_entropy_budget_sweep_small(models, bump):
    for P in models.values():
        for delta in (0.01, 0.09):
            cert = build_certificate(P, bump, delta, 10 ** 3)
            assert cert.entropy_ok


def test_threshold_shift_lower_bound(models, bump):
    # |a(Q) - a(P)| >= eps / (4 c5) with c5 recovered from c1 = c4/(32 c5)
    for P in models.values():
        c1 = estimate_c1(P, bump)
        for delta in (0.01, 0.05, 0.09):
            for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
                plan = make_plan(P, bump, delta, n)
                c5 = plan.c4 / (32.0 * c1)
                q = perturb(P, bump, plan.eps)
                assert abs(q.threshold - P.threshold) >= plan.eps / (4.0 * c5)


def test_entropy_linear_in_inverse_n(models, bump):
    values = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        cert = build_certificate(models["canonical"], bump, DELTA, n)
        values.append(n * cert.entropy)
    assert max(values) / min(values) <= 1.2
