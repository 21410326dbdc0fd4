"""The batched trial kernel against a per-trial reference, bit for bit.

The reference is the one-trial-at-a-time code the block kernel replaced: a
rejection loop per stream, ERM by searchsorted on one sorted sample, the
split estimator on top of it, and one excess-risk quadrature per trial.
"""

import numpy as np
import pytest

from threshlab import estimators, harness
from threshlab.errors import EnvelopeViolated
from threshlab.estimators import (
    clock_estimator,
    erm_block,
    estimate_trials,
    refine_local,
    two_step_block,
)
from threshlab.expr import Const, Monomial
from threshlab.model import DensityPair, builtin_model, builtin_models
from threshlab.perturbation import build_certificate, default_bump
from threshlab.risk import excess_risk
from threshlab.sampling import (
    _MAX_BLOCK_UNIFORMS,
    SeedPolicy,
    draw,
    draw_block,
    sub_blocks,
)

SIZES = (4, 5, 250, 1000)


def reference_draw(P, n, seed):
    """One stream's rejection loop; returns (x, y, proposal rounds)."""
    rng = seed.rng()
    envelope = P.envelope
    xs, got, rounds = [], 0, 0
    while got < n:
        batch = max(2 * (n - got), 1024)
        u = rng.random((batch, 2))
        fx = P.fsum(u[:, 0])
        if np.any(fx > envelope):
            raise EnvelopeViolated(P.name)
        accept = u[:, 1] * envelope <= fx
        xs.append(u[accept, 0])
        got += int(np.count_nonzero(accept))
        rounds += 1
    x = np.concatenate(xs)[:n] if xs else np.empty(0)
    fsum = P.fsum(x)
    rho_plus = np.divide(P.fplus.val(x), fsum, out=np.zeros_like(fsum),
                         where=fsum > 0)
    y = np.where(rng.random(n) < rho_plus, 1, -1).astype(np.int8)
    return x, y, rounds


def reference_erm(x, y):
    """(a_hat, min_errors) of one sample."""
    n = len(x)
    if n == 0:
        return 0.0, 0
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    distinct = np.nonzero(np.diff(xs) > 0)[0]
    mids = 0.5 * (xs[distinct] + xs[distinct + 1])
    candidates = np.concatenate(([0.0], mids, [1.0]))
    plus_prefix = np.concatenate(([0], np.cumsum(ys == 1)))
    total_minus = n - plus_prefix[-1]
    i = np.searchsorted(xs, candidates, side="left")
    errors = plus_prefix[i] + (total_minus - (i - plus_prefix[i]))
    best = int(np.argmin(errors))
    return float(candidates[best]), int(errors[best])


def reference_two_step(x, y, L):
    m = len(x) // 2
    a0 = reference_erm(x[:m], y[:m])[0]
    if a0 <= 0.0:
        a0 = 1.0 / (2.0 * m)
    elif a0 >= 1.0:
        a0 = 1.0 - 1.0 / (2.0 * m)
    return refine_local(x[m:2 * m], y[m:2 * m], a0, L).a_hat


REFERENCE = {
    "erm": lambda x, y: reference_erm(x, y)[0],
    "twostep:L=4": lambda x, y: reference_two_step(x, y, 4.0),
    "twostep:L=0.5": lambda x, y: reference_two_step(x, y, 0.5),
    "clock": lambda x, y: clock_estimator(len(x)),
}


def low_acceptance_pair():
    """f+ = 2x^3, f- = 2(1 - x)^3: f_sigma peaks at 2 on the ends, so the
    sampler accepts about 0.49 of its proposals and often needs a refill."""
    f_minus = Const(2.0) + Monomial(-6.0, 1) + Monomial(6.0, 2) \
        + Monomial(-2.0, 3)
    return DensityPair(Monomial(2.0, 3), f_minus, name="cubic")


def kernel_models():
    models = {P.name: P for P in builtin_models()}
    models["canonical-certified-q"] = build_certificate(
        models["canonical"], default_bump(), 0.05, 10 ** 4).q
    models["cubic"] = low_acceptance_pair()
    return models


MODELS = kernel_models()


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("n", SIZES)
def test_draw_block_rows_equal_per_stream_loop(name, n):
    P = MODELS[name]
    seeds = [SeedPolicy(2024, t) for t in (7, 0, 3, 11, 12)]
    x, y = draw_block(P, n, seeds)
    assert x.shape == y.shape == (len(seeds), n)
    for k, seed in enumerate(seeds):
        rx, ry, _ = reference_draw(P, n, seed)
        assert x[k].tobytes() == rx.tobytes()
        assert y[k].tobytes() == ry.tobytes()
        one = draw(P, n, seed)
        assert one.x.tobytes() == rx.tobytes()
        assert one.y.tobytes() == ry.tobytes()


def test_low_acceptance_pair_forces_refill_rounds():
    P = MODELS["cubic"]
    assert 0.45 < 1.0 / P.envelope < 0.5
    rounds = [reference_draw(P, 1000, SeedPolicy(2024, t))[2] for t in range(8)]
    assert max(rounds) > 1


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("estimator", list(REFERENCE))
def test_trial_block_equals_per_trial_reference(name, n, estimator):
    P = MODELS[name]
    start, stop, master = 5, 5 + 12, 987654321
    got = harness._trial_block(P, estimator, n, start, stop, master)
    want = []
    for t in range(start, stop):
        x, y, _ = reference_draw(P, n, SeedPolicy(master, t))
        a_hat = float(REFERENCE[estimator](x, y))
        want.append((abs(a_hat - P.threshold), excess_risk(P, a_hat)))
    assert bits(got) == bits(want)


def test_erm_block_equals_reference_with_ties():
    # values from a coarse grid give many ties, and the 0/1 ends are samples
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 40):
        x = rng.integers(0, 5, size=(200, n)) / 4.0
        y = rng.choice(np.array([-1, 1], dtype=np.int8), size=(200, n))
        a_hat, errors = erm_block(x, y)
        for k in range(len(x)):
            assert (a_hat[k], errors[k]) == reference_erm(x[k], y[k])


def test_erm_block_midpoint_rounding_onto_smaller_abscissa():
    # 1 and its successor average back to 1, so that candidate sits on the
    # two sample points at 1 and classifies both as +1: 2 errors, not 0
    up = np.nextafter(1.0, 2.0)
    x = np.array([[0.5, 1.0, 1.0, up, 0.25], [1.0, up, 0.5, 0.5, 0.75]])
    y = np.array([[-1, -1, -1, 1, -1], [1, 1, -1, 1, -1]], dtype=np.int8)
    a_hat, errors = erm_block(x, y)
    assert (a_hat[0], errors[0]) == (0.75, 2)
    for k in range(len(x)):
        assert (a_hat[k], errors[k]) == reference_erm(x[k], y[k])


def test_two_step_block_nudges_each_row():
    x = np.array([[0.2, 0.8, 0.3, 0.7], [0.1, 0.9, 0.3, 0.7]])
    y = np.array([[1, 1, -1, 1], [-1, 1, -1, 1]], dtype=np.int8)
    got = two_step_block(x, y, 1.0)
    assert bits(got) == bits([reference_two_step(x[k], y[k], 1.0)
                              for k in range(2)])


def test_excess_risk_array_equals_scalar_calls():
    alphas = np.array([-0.5, 0.0, 0.1, 0.3, 0.5, 0.5 + 1e-12, 0.77, 1.0, 2.0])
    for P in MODELS.values():
        grid = np.concatenate((alphas, [P.threshold, *P.breakpoints]))
        got = excess_risk(P, grid)
        assert bits(got) == bits([excess_risk(P, float(al)) for al in grid])
        assert bits(excess_risk(P, grid.reshape(1, -1))[0]) == bits(got)
    assert excess_risk(MODELS["canonical"], np.empty(0)).shape == (0,)
    with pytest.raises(ValueError):
        excess_risk(MODELS["canonical"], np.array([0.2, np.nan]))


def test_envelope_violation_still_raises():
    P = builtin_model("canonical")
    P.__dict__["envelope"] = 0.5  # below f_sigma = 1
    with pytest.raises(EnvelopeViolated):
        draw_block(P, 10, [SeedPolicy(1, t) for t in range(3)])
    with pytest.raises(EnvelopeViolated):
        estimate_trials(P, "erm", 10, 1, range(3))


def test_clock_trials_draw_nothing(monkeypatch):
    def no_draw(P, n, seeds):
        raise AssertionError("the clock drew a sample")

    monkeypatch.setattr(estimators, "draw_block", no_draw)
    P = builtin_model("canonical")
    for n in (0, 1, 6, 10 ** 4):
        got = estimate_trials(P, "clock", n, 3, range(7))
        assert bits(got) == bits([clock_estimator(max(n, 1))] * 7)
    assert estimate_trials(P, "clock", 10, 3, []).shape == (0,)


def test_sub_blocks_respect_the_uniform_cap(monkeypatch):
    blocks = []

    def recording_draw_block(P, n, seeds):
        blocks.append((n, len(seeds)))
        return draw_block(P, n, seeds)

    monkeypatch.setattr(estimators, "draw_block", recording_draw_block)
    P = builtin_model("canonical")
    for n in (250, 1000, 10 ** 4):
        estimate_trials(P, "erm", n, 3, range(25))
    per_n = {n: [k for m, k in blocks if m == n] for n, _ in blocks}
    assert per_n[250] == [25]
    assert per_n[10 ** 4] == [1] * 25
    assert sum(per_n[1000]) == 25
    for n, k in blocks:
        assert k == 1 or 2 * max(2 * n, 1024) * k <= _MAX_BLOCK_UNIFORMS
    assert sub_blocks([], 10) == []
