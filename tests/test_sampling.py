"""Sampler correctness: marginals, conditional labels, reproducibility."""

import numpy as np
import pytest

from threshlab.model import builtin_model, builtin_models
from threshlab.sampling import SeedPolicy, cdf_sigma, draw


@pytest.fixture(scope="module")
def models():
    return {m.name: m for m in builtin_models()}


def test_draw_zero_points(models):
    s = draw(models["canonical"], 0, SeedPolicy(1))
    assert len(s) == 0


def test_draw_shapes_and_ranges(models):
    s = draw(models["tilted"], 500, SeedPolicy(7))
    assert len(s) == 500
    assert np.all((s.x >= 0) & (s.x <= 1))
    assert set(np.unique(s.y)) <= {-1, 1}


def test_canonical_labels_balanced(models):
    # P(Y = +1) = integral of f+ = 1/2 exactly for the canonical pair
    s = draw(models["canonical"], 100_000, SeedPolicy(11))
    assert abs(float(np.mean(s.y))) <= 0.01


def test_canonical_joint_cell_probability(models):
    # P(Y = +1, X <= 1/2) = integral_0^{1/2} x dx = 1/8
    s = draw(models["canonical"], 100_000, SeedPolicy(13))
    frac = float(np.mean((s.y == 1) & (s.x <= 0.5)))
    assert frac == pytest.approx(0.125, abs=0.01)


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
def test_marginal_matches_cdf_oracle(models, name):
    # one-sample Kolmogorov-Smirnov against the quadrature CDF, 20 streams
    P = models[name]
    n = 100_000
    grid = np.linspace(0.0, 1.0, 2001)
    cdf_grid = np.array([cdf_sigma(P, float(g)) for g in grid[:: 50]])
    fine = np.interp(grid, grid[:: 50], cdf_grid)
    worst = 0.0
    for trial in range(20):
        s = draw(P, n, SeedPolicy(101, trial))
        xs = np.sort(s.x)
        emp_hi = np.arange(1, n + 1) / n
        theo = np.interp(xs, grid, fine)
        ks = float(np.max(np.abs(emp_hi - theo)))
        worst = max(worst, ks)
    # 1.95/sqrt(n) is roughly the 0.999 quantile of the KS statistic
    assert worst <= 1.95 / np.sqrt(n) + 2e-3  # interp slack on 2001-pt grid


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
def test_conditional_label_frequency(models, name):
    P = models[name]
    n = 200_000
    s = draw(P, n, SeedPolicy(29))
    edges = np.linspace(0.0, 1.0, 11)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (s.x >= lo) & (s.x < hi)
        count = int(np.count_nonzero(mask))
        if count < 100:
            continue
        mid = 0.5 * (lo + hi)
        fp = float(P.fplus.val(mid))
        expect = fp / float(P.fsum(mid))
        observed = float(np.mean(s.y[mask] == 1))
        sigma = np.sqrt(max(expect * (1 - expect), 1e-4) / count)
        # bin-center approximation adds a small bias on top of noise
        assert abs(observed - expect) <= 4 * sigma + 0.02, (name, lo, hi)


def test_reproducibility_bytewise(models):
    a = draw(models["tilted"], 4096, SeedPolicy(99, 3))
    b = draw(models["tilted"], 4096, SeedPolicy(99, 3))
    assert a.x.tobytes() == b.x.tobytes()
    assert a.y.tobytes() == b.y.tobytes()


def test_envelope_is_computed_once_per_pair(monkeypatch):
    P = builtin_model("tilted")
    calls = []
    for cls in {type(P.fplus), type(P.fminus)}:
        monkeypatch.setattr(cls, "der", lambda self, x, _der=cls.der:
                            calls.append(1) or _der(self, x))
    draw(P, 100, SeedPolicy(1))
    first = len(calls)
    draw(P, 100, SeedPolicy(2))
    assert first > 0
    assert len(calls) == first


def test_streams_differ_across_trials(models):
    a = draw(models["tilted"], 64, SeedPolicy(99, 0))
    b = draw(models["tilted"], 64, SeedPolicy(99, 1))
    assert not np.array_equal(a.x, b.x)


def test_cdf_sigma_endpoints(models):
    for P in models.values():
        assert cdf_sigma(P, 0.0) == pytest.approx(0.0, abs=1e-12)
        assert cdf_sigma(P, 1.0) == pytest.approx(1.0, abs=1e-8)


def test_cdf_sigma_canonical_midpoint(models):
    # f_sigma = 1 for the canonical pair, so the CDF is the identity
    assert cdf_sigma(models["canonical"], 0.5) == pytest.approx(0.5, abs=1e-10)


def test_cdf_sigma_rejects_outside_domain(models):
    with pytest.raises(ValueError):
        cdf_sigma(models["canonical"], 1.5)
