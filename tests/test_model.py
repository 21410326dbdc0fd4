"""Density-pair construction, threshold solving, local parameters, validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from threshlab.cli import model_from_config
from threshlab.errors import (
    InvalidModel,
    MultipleCrossings,
    NoCrossing,
    NotTransversal,
)
from threshlab.expr import (
    Affine,
    Const,
    CosSquaredProfile,
    Monomial,
    Sum,
    check_derivative,
)
from threshlab.model import (
    DensityPair,
    builtin_model,
    builtin_models,
    local_params,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def models():
    return {m.name: m for m in builtin_models()}


# --- threshold ----------------------------------------------------------------


def test_canonical_threshold_by_symmetry(models):
    assert models["canonical"].threshold == pytest.approx(0.5, abs=1e-12)


def test_tilted_threshold_closed_form(models):
    # root of x^2 = 1 - x
    assert models["tilted"].threshold == pytest.approx(GOLDEN, abs=1e-12)


def _perturbed_shift_oracle(eps: float) -> float:
    """Bisection on the fixed point t = eps * phi(t/eps) * (1/4 - t^2),
    derived by hand for the canonical model; independent of perturb()."""
    def gap(t):
        u = t / eps
        phi = math.cos(math.pi * u / 2.0) ** 2 if abs(u) <= 1 else 0.0
        return eps * phi * (0.25 - t * t) - t

    lo, hi = 0.0, eps
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_perturbed_canonical_threshold(models):
    from threshlab.perturbation import default_bump, perturb

    q = perturb(models["canonical"], default_bump(), 0.1)
    expected = 0.5 - _perturbed_shift_oracle(0.1)
    assert q.threshold == pytest.approx(expected, abs=1e-10)
    assert q.threshold == pytest.approx(0.4779, abs=5e-4)


def test_threshold_of_pair_vanishing_at_zero():
    # f+ = 1.5 x^2, f- = x: both vanish at 0; crossing at 2/3
    P = DensityPair(Monomial(1.5, 2), Monomial(1.0, 1), name="vanishing")
    assert P.threshold == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_no_crossing_raises():
    with pytest.raises(NoCrossing):
        DensityPair(Const(0.6), Const(0.4), name="flat")


def test_multiple_crossings_raises():
    # m = (x - 0.3)(x - 0.7): two sign changes
    fplus = Const(0.5) + Monomial(1.0, 2) + Affine(-1.0, 0.21)
    with pytest.raises(MultipleCrossings):
        DensityPair(fplus, Const(0.5), name="wiggle")


def test_not_transversal_raises():
    # crossing from + to -
    with pytest.raises(NotTransversal):
        DensityPair(Affine(-1.0, 1.0), Affine(1.0, 0.0), name="reversed")


def test_threshold_invariant_under_reassociation(models):
    half = Monomial(0.5, 1)
    variants = [
        Sum((half, half)),
        Sum((Sum((half,)), half)),
        Sum((half, Sum((half,)))),
    ]
    for fplus in variants:
        P = DensityPair(fplus, Affine(-1.0, 1.0), name="reassoc")
        assert abs(P.threshold - 0.5) <= 1e-12


# --- local params ------------------------------------------------------------


def test_local_params_canonical(models):
    lp = local_params(models["canonical"])
    assert lp.s == pytest.approx(1.0, abs=1e-12)
    assert lp.t == pytest.approx(2.0, abs=1e-12)


def test_local_params_tilted_analytic(models):
    # s = f_sigma(a) = 1.2 (a^2 + 1 - a) with a^2 = 1 - a, so s = 2.4 (1 - a)
    lp = local_params(models["tilted"])
    assert lp.s == pytest.approx(2.4 * (1.0 - GOLDEN), abs=1e-10)
    assert lp.t == pytest.approx(2.4 * GOLDEN + 1.2, abs=1e-10)


def test_local_params_positive_everywhere(models):
    for m in models.values():
        lp = local_params(m)
        assert lp.s > 0
        assert lp.t > 0


# --- validation and built-ins --------------------------------------------------


def test_builtins_all_validate(models):
    assert set(models) >= {"canonical", "tilted", "curved"}
    for m in models.values():
        report = m.validate()
        assert all(ok for ok, _ in report.values()), report


def test_curved_has_nonconstant_fsum_near_threshold(models):
    m = models["curved"]
    a = m.threshold
    vals = m.fsum(np.linspace(a - 0.05, a + 0.05, 11))
    assert np.max(vals) - np.min(vals) > 1e-3


def test_symbolic_derivatives_match_finite_differences(models):
    from threshlab.perturbation import default_bump, perturb

    for m in models.values():
        assert check_derivative(m.fplus)
        assert check_derivative(m.fminus)
    q = perturb(models["canonical"], default_bump(), 0.1)
    assert check_derivative(q.fplus, avoid=q.breakpoints)
    assert check_derivative(q.fminus, avoid=q.breakpoints)


def test_unknown_model_raises():
    with pytest.raises(InvalidModel):
        builtin_model("mystery")


def test_model_from_config_builtin_and_perturbed():
    m = model_from_config({"model.family": "tilted", "model.name": "my-tilt"})
    assert m.name == "my-tilt"
    assert m.threshold == pytest.approx(GOLDEN, abs=1e-12)
    q = model_from_config({
        "model.family": "perturbed",
        "model.base": "canonical",
        "model.eps": "0.1",
    })
    assert q.threshold == pytest.approx(0.4779, abs=5e-4)


def test_model_from_config_name_relabels_only():
    cfg = {"model.family": "perturbed", "model.base": "curved",
           "model.eps": "0.08"}
    plain = model_from_config(cfg)
    named = model_from_config({**cfg, "model.name": "my-bump"})
    assert named.name == "my-bump"
    assert plain.name != "my-bump"
    assert named.threshold == plain.threshold
    assert named.breakpoints == plain.breakpoints
    assert named.base == plain.base and plain.base.name == "curved"


@pytest.mark.parametrize("name", ["a,b", "a\nb", '"my model'])
def test_model_from_config_rejects_csv_breaking_name(name):
    with pytest.raises(InvalidModel):
        model_from_config({"model.family": "canonical", "model.name": name})


@pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
def test_density_pair_rejects_csv_breaking_name(name):
    # a pair built in Python, and one renamed with dataclasses.replace
    with pytest.raises(InvalidModel, match="comma or line break"):
        DensityPair(Affine(1.0, 0.0), Affine(-1.0, 1.0), name=name)
    with pytest.raises(InvalidModel, match="comma or line break"):
        replace(builtin_model("canonical"), name=name)



def test_cos_profile_is_c1_at_boundary():
    phi = CosSquaredProfile(radius=1.0)
    for e in (-1.0, 1.0):
        assert abs(float(phi.val(e))) < 1e-15
        assert abs(float(phi.der(e))) < 1e-15
    assert float(phi.val(0.0)) == pytest.approx(1.0, abs=1e-15)
