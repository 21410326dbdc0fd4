"""Sampler correctness: marginals, conditional labels, reproducibility."""

import numpy as np
import pytest

from threshlab.model import builtin_model, builtin_models
from threshlab.perturbation import build_certificate, default_bump
from threshlab.sampling import (
    LabeledSample,
    SeedPolicy,
    _trial_generators,
    cdf_sigma,
    draw,
)


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


def test_labeled_sample_rejects_other_shapes(models):
    s = draw(models["canonical"], 4, SeedPolicy(1))
    for x, y in ((s.x, s.y[:3]), (s.x[:3], s.y),
                 (s.x.reshape(2, 2), s.y.reshape(2, 2)),
                 (s.x, s.y.reshape(1, 4))):
        with pytest.raises(ValueError, match=rf"x of shape \({len(x)},.*"
                           rf"y of shape \({len(y)},"):
            LabeledSample(x, y)


def test_labeled_sample_rejects_labels_outside_plus_minus_one(models):
    # on 0/1 labels two_step(s, 4.0) gave 0.0208, against 0.5203 on +-1
    s = draw(models["canonical"], 4000, SeedPolicy(1))
    for y in ((s.y + 1) // 2, s.y * 2, np.where(s.y == 1, 1.0, np.nan)):
        with pytest.raises(ValueError, match=r"\+1 or -1"):
            LabeledSample(s.x, y)
    LabeledSample(s.x, s.y.astype(float))  # +-1 in any dtype


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


def test_aligned_draws_are_independent_across_trials():
    # Raw word j of trial t against raw word j of trial t + lag, for trials
    # of one master seed.  Popcounts of independent uniform 64-bit words,
    # less 32, have mean 0 and variance 16, so the z below is about N(0, 1)
    # per lag; |z| < 5 for all three lags fails by chance with probability
    # about 2e-6.  Streams that share a PCG64 increment and sit t * 2^64
    # draws apart, so that aligned draws share their low 64 state bits,
    # read z near -10 at lag 1 here.
    trials, words = 1024, 256
    gens = _trial_generators(11, range(trials))
    raw = np.array([g.bit_generator.random_raw(words) for g in gens])
    bits = np.unpackbits(raw.view(np.uint8)).reshape(trials, words, 64)
    pop = bits.sum(axis=2) - 32.0
    for lag in (1, 2, 3):
        prod = pop[:-lag] * pop[lag:]
        z = prod.mean() / 16.0 * np.sqrt(prod.size)
        assert abs(z) < 5.0, (lag, z)


def test_block_streams_equal_single_trial_streams():
    # a block positions its Philox by trial index, in any order, and each
    # trial's stream is the one it has alone
    order = [7, 0, 3, 3, 12, 11, 2 ** 70]
    block = _trial_generators(2 ** 100 + 5, order)
    for t, gen in zip(order, block):
        (alone,) = _trial_generators(2 ** 100 + 5, [t])
        assert np.array_equal(gen.random(9), alone.random(9))
    for master, trial in ((-1, 0), (2 ** 128, 0), (0, -1)):
        with pytest.raises(ValueError):
            SeedPolicy(master, trial)


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


# --- theory oracles for a certified Q ------------------------------------------


@pytest.fixture(scope="module")
def certified_qs(models):
    return {name: build_certificate(P, default_bump(), 0.05, 10 ** 4).q
            for name, P in models.items()}


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
def test_certified_q_marginal_matches_its_cdf(certified_qs, name):
    # one-sample Kolmogorov-Smirnov against Q's own quadrature CDF, which
    # integrates f_sigma of Q, bump terms included; the sampler draws X from
    # the base pair.  P(sqrt(n) D > t) <= 2 exp(-2 t^2), so t = 2.90 bounds
    # the worst of 10 streams with false-alarm rate 1e-6
    Q = certified_qs[name]
    n, streams = 100_000, 10
    grid = np.linspace(0.0, 1.0, 201)
    cdf = np.array([cdf_sigma(Q, float(g)) for g in grid])
    worst = 0.0
    for trial in range(streams):
        xs = np.sort(draw(Q, n, SeedPolicy(41, trial)).x)
        theo = np.interp(xs, grid, cdf)
        below = np.arange(n) / n
        worst = max(worst, float(np.max(np.maximum(below + 1.0 / n - theo,
                                                   theo - below))))
    # 1e-5: linear interpolation error of a CDF with |f_sigma'| <= 1.2
    assert worst <= 2.90 / np.sqrt(n) + 1e-5


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
def test_certified_q_labels_follow_rho_q_inside_the_bump(models, certified_qs,
                                                         name):
    # given the points, labels are independent with P(Y = +1 | x) =
    # rho_Q^+(x) = f+_Q(x) / f_sigma(x), evaluated here on Q's own fields.
    # Per bin the count of +1 labels has mean sum(rho) and variance
    # sum(rho (1 - rho)); |z| <= 5.3 over 8 bins and |z| <= 4.9 pooled keep
    # the false-alarm rate near 1e-6.  The same counts sit far from P's
    # rho_P^+, so the test tells Q's labels from the base pair's
    Q, P = certified_qs[name], models[name]
    lo, hi = Q.breakpoints[-2:]
    edges = np.linspace(lo, hi, 9)
    plus, mean_q, var_q, mean_p, var_p = (np.zeros(8) for _ in range(5))
    for trial in range(100):
        s = draw(Q, 100_000, SeedPolicy(43, trial))
        inside = (s.x >= lo) & (s.x < hi)
        x, y = s.x[inside], s.y[inside]
        bins = np.searchsorted(edges, x, side="right") - 1
        rho_q = Q.fplus.val(x) / Q.fsum(x)
        rho_p = P.fplus.val(x) / P.fsum(x)
        plus += np.bincount(bins, y == 1, 8)
        mean_q += np.bincount(bins, rho_q, 8)
        var_q += np.bincount(bins, rho_q * (1.0 - rho_q), 8)
        mean_p += np.bincount(bins, rho_p, 8)
        var_p += np.bincount(bins, rho_p * (1.0 - rho_p), 8)
    assert np.all(np.abs(plus - mean_q) <= 5.3 * np.sqrt(var_q))
    assert abs(plus.sum() - mean_q.sum()) <= 4.9 * np.sqrt(var_q.sum())
    assert abs(plus.sum() - mean_p.sum()) > 4.9 * np.sqrt(var_p.sum())
