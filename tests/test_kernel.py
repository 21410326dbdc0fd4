"""The batched trial kernel against a per-trial reference, bit for bit.

The reference is one trial at a time, written from the definitions: the
stream layout of sampling's docstring, read from one generator per trial,
ERM by searchsorted on one sorted sample, the split estimator with a
windowed regression of its own, and one excess-risk quadrature per trial.  Densities in the reference are evaluated by
`full_eval`, which walks the expression tree and evaluates every Sum term
on every point, so it does not rest on the support-aware Sum it checks.
"""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshlab import estimators, harness
from threshlab.cli import model_from_config
from threshlab.errors import EnvelopeViolated
from threshlab.estimators import (
    clock_estimator,
    erm_block,
    estimate_all,
    two_step_block,
)
from threshlab.expr import (
    Affine,
    BumpComposite,
    Const,
    CosSquaredProfile,
    Field,
    Monomial,
    Product,
    Quotient,
    Sum,
)
from threshlab.model import DensityPair, builtin_model, builtin_models
from threshlab.perturbation import build_certificate, default_bump
from threshlab.risk import excess_risk
from threshlab.sampling import (
    _MAX_BLOCK_UNIFORMS,
    SeedPolicy,
    _proposal_size,
    draw,
    draw_block,
    sub_blocks,
)

SIZES = (4, 5, 250, 1000)


def full_eval(f, x, der=False):
    """f's value (or with der=True its derivative) at x, by each node's own
    formula, with every Sum term evaluated on every point."""
    if isinstance(f, Sum):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        for t in f.terms:
            out = out + full_eval(t, x, der)
        return out
    if isinstance(f, Product):
        left, right = full_eval(f.left, x), full_eval(f.right, x)
        if der:
            return (full_eval(f.left, x, True) * right
                    + left * full_eval(f.right, x, True))
        return left * right
    if isinstance(f, Quotient):
        num, den = full_eval(f.num, x), full_eval(f.den, x)
        if der:
            return (full_eval(f.num, x, True) * den
                    - num * full_eval(f.den, x, True)) / (den * den)
        return num / den
    if isinstance(f, BumpComposite):
        u = (np.asarray(x, dtype=float) - f.center) / f.eps
        if der:
            return full_eval(f.profile, u, True)
        return f.eps * full_eval(f.profile, u)
    return f.der(x) if der else f.val(x)


def full_fsum(P, x):
    return full_eval(P.fplus, x) + full_eval(P.fminus, x)


PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def reference_stream(seed):
    """The trial's PCG64: the first four words of Philox(key=master_seed,
    counter=trial_index) are its initial state (w0 w1) and stream (w2 w3),
    set up as PCG's own seeding routine does."""
    w = [int(v) for v in np.random.Philox(key=seed.master_seed,
                                          counter=seed.trial_index).random_raw(4)]
    initstate, initseq = (w[0] << 64) | w[1], (w[2] << 64) | w[3]
    inc = ((initseq << 1) | 1) % 2 ** 128
    state = (inc + initstate) % 2 ** 128  # one step from 0, plus initstate
    state = (state * PCG64_MULTIPLIER + inc) % 2 ** 128
    bits = np.random.PCG64(0)
    bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                  "state": {"state": state, "inc": inc}}
    return bits


def reference_draw(P, n, seed):
    """One stream's rejection loop; returns (x, y, proposal rounds).

    X comes from the base of a perturbed pair.  A round that still needs m
    points proposes ceil(m c + 3 sqrt(m c (c - 1))) abscissae, c the
    envelope (at least 1), then as many acceptance uniforms; the label of
    an accepted x is +1 where its uniform times f_sigma(x) is below f+(x)."""
    rng = np.random.Generator(reference_stream(seed))
    base = P.marginal
    envelope = base.envelope
    c = max(envelope, 1.0)
    xs, fs, got, rounds = [], [], 0, 0
    while got < n:
        m = n - got
        batch = math.ceil(m * c + 3.0 * math.sqrt(m * c * (c - 1.0)))
        u = rng.random(batch)
        v = rng.random(batch)
        fx = full_fsum(base, u)
        if np.any(fx > envelope):
            raise EnvelopeViolated(P.name)
        accept = v * envelope <= fx
        xs.append(u[accept])
        fs.append(fx[accept])
        got += int(np.count_nonzero(accept))
        rounds += 1
    x = np.concatenate(xs)[:n] if xs else np.empty(0)
    fsum = np.concatenate(fs)[:n] if fs else np.empty(0)
    y = np.where(rng.random(n) * fsum < full_eval(P.fplus, x), 1, -1)
    return x, y.astype(np.int8), rounds


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


def reference_refine(x, y, a0, L):
    """refine_local's a_hat from the normal equations of the window, its
    sums taken as one reduceat segment over the window's points alone."""
    xt = x - a0
    inside = np.abs(xt) <= L * len(x) ** (-1.0 / 3.0)
    xt, yw = xt[inside], y[inside].astype(float)
    k = len(xt)
    if k < 2 or xt.min() == xt.max():
        return a0

    def total(v):
        return float(np.add.reduceat(v, [0])[0])

    sx, sxx, sy, sxy = total(xt), total(xt * xt), total(yw), total(xt * yw)
    det = sxx * k - sx * sx
    if abs(det) < 1e-30 * max(sxx * k, sx * sx, 1e-300):
        return a0
    b1 = (sxy * k - sx * sy) / det
    if b1 == 0.0:
        return a0
    return a0 - (sxx * sy - sx * sxy) / det / b1


def reference_two_step(x, y, L):
    m = len(x) // 2
    a0 = reference_erm(x[:m], y[:m])[0]
    if a0 <= 0.0:
        a0 = 1.0 / (2.0 * m)
    elif a0 >= 1.0:
        a0 = 1.0 - 1.0 / (2.0 * m)
    return reference_refine(x[m:2 * m], y[m:2 * m], a0, L)


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
    x, (y,) = draw_block((P,), n, 2024, [seed.trial_index for seed in seeds])
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
    # a round falls short about once in a few hundred streams, so look for
    # the streams among 2000 that need a second round at n = 20
    n, master = 20, 2024
    refill = [t for t in range(2000)
              if reference_draw(P, n, SeedPolicy(master, t))[2] > 1]
    assert refill
    # in one block with streams that need one round, each row still matches
    seeds = [SeedPolicy(master, t) for t in sorted({0, 1, 2, *refill})]
    x, (y,) = draw_block((P,), n, master, [seed.trial_index for seed in seeds])
    for k, seed in enumerate(seeds):
        rx, ry, _ = reference_draw(P, n, seed)
        assert x[k].tobytes() == rx.tobytes()
        assert y[k].tobytes() == ry.tobytes()


@pytest.mark.parametrize("name", list(MODELS))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("estimator", list(REFERENCE))
def test_trial_block_equals_per_trial_reference(name, n, estimator):
    # every estimator scores one draw; the named one leads, so each
    # estimator is checked in each position of the tuple
    order = list(REFERENCE)
    k = order.index(estimator)
    names = tuple(order[k:] + order[:k])
    P = MODELS[name]
    start, stop, master = 5, 5 + 12, 987654321
    errors, excesses = harness._trial_block(P, names, n, start, stop, master)
    assert errors.shape == excesses.shape == (len(names), stop - start)
    samples = [reference_draw(P, n, SeedPolicy(master, t))[:2]
               for t in range(start, stop)]
    for est, errs, excess in zip(names, errors, excesses):
        a_hats = [float(REFERENCE[est](x, y)) for x, y in samples]
        assert bits(errs) == bits([abs(a - P.threshold) for a in a_hats])
        assert bits(excess) == bits([excess_risk(P, a) for a in a_hats])


def test_erm_block_equals_reference_with_ties():
    # values from a coarse grid give many ties, and the 0/1 ends are samples;
    # the second grid reaches past 1 towards 2, the end of the key range
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 8, 40):
        for grid in ([0.0, 0.25, 0.5, 0.75, 1.0],
                     [0.0, 0.5, 1.0, 1.5, np.nextafter(2.0, 0.0)]):
            x = rng.choice(grid, size=(200, n))
            y = rng.choice(np.array([-1, 1], dtype=np.int8), size=(200, n))
            (a_hat,), (errors,) = erm_block(x, y[None])
            for k in range(len(x)):
                assert (a_hat[k], errors[k]) == reference_erm(x[k], y[k])


def test_erm_block_rejects_abscissae_outside_zero_two():
    y = np.array([[[1, -1, 1]]], dtype=np.int8)
    for bad in (np.nan, -np.nan, -0.0, -1e-300, 2.0, np.inf, -np.inf):
        with pytest.raises(ValueError, match=r"\[\+0\.0, 2\)"):
            erm_block(np.array([[0.25, bad, 0.75]]), y)


def test_erm_block_midpoint_rounding_onto_smaller_abscissa():
    # 1 and its successor average back to 1, so that candidate sits on the
    # two sample points at 1 and classifies both as +1: 2 errors, not 0
    up = np.nextafter(1.0, 2.0)
    x = np.array([[0.5, 1.0, 1.0, up, 0.25], [1.0, up, 0.5, 0.5, 0.75]])
    y = np.array([[-1, -1, -1, 1, -1], [1, 1, -1, 1, -1]], dtype=np.int8)
    (a_hat,), (errors,) = erm_block(x, y[None])
    assert (a_hat[0], errors[0]) == (0.75, 2)
    for k in range(len(x)):
        assert (a_hat[k], errors[k]) == reference_erm(x[k], y[k])


def test_two_step_block_nudges_each_row():
    x = np.array([[0.2, 0.8, 0.3, 0.7], [0.1, 0.9, 0.3, 0.7]])
    y = np.array([[1, 1, -1, 1], [-1, 1, -1, 1]], dtype=np.int8)
    (got,) = two_step_block(x, y[None], 1.0)
    assert bits(got) == bits([reference_two_step(x[k], y[k], 1.0)
                              for k in range(2)])


def test_blocks_reject_labels_of_another_shape():
    # two_step_block raised IndexError on short labels and ignored extra
    # ones; each block takes labels of shape (pairs, trials, n) alone
    x = np.array([[0.2, 0.8, 0.3, 0.7], [0.1, 0.9, 0.3, 0.7]])
    for shape in ((1, 2, 3), (1, 2, 5), (2, 4), (1, 1, 4), (1, 2, 2, 4)):
        ys = np.ones(shape, dtype=np.int8)
        named = re.escape(f"labels of shape {shape} for abscissae of shape "
                          "(2, 4)")
        with pytest.raises(ValueError, match=named):
            two_step_block(x, ys, 1.0)
        with pytest.raises(ValueError, match=named):
            erm_block(x, ys)


UP = np.nextafter(1.0, 2.0)
# ties, adjacent floats whose midpoint rounds down onto the smaller (0 and
# the least subnormal, 0.5, 0.75, 1 and their successors) or up (UP and its
# successor), and abscissae in [1, 2)
SPECIAL_X = [0.0, 5e-324, 0.25, 0.5, np.nextafter(0.5, 1.0), 0.75,
             np.nextafter(0.75, 1.0), 1.0, UP, np.nextafter(UP, 2.0), 1.5,
             np.nextafter(2.0, 0.0)]


@st.composite
def paired_blocks(draw):
    """x of shape (trials, n) and the labels of 1, 2 or 3 pairs on it."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 30)))
    rows, pairs = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x = draw(st.lists(st.one_of(st.sampled_from(SPECIAL_X),
                                st.floats(0.0, 2.0, exclude_max=True)),
                      min_size=rows * n, max_size=rows * n))
    y = draw(st.lists(st.sampled_from([-1, 1]), min_size=pairs * rows * n,
                      max_size=pairs * rows * n))
    # + 0.0 turns a drawn -0.0 into +0.0
    return (np.array(x, dtype=float).reshape(rows, n) + 0.0,
            np.array(y, dtype=np.int8).reshape(pairs, rows, n))


@given(paired_blocks())
@example((np.empty((2, 0)), np.empty((3, 2, 0), dtype=np.int8)))
@example((np.array([[0.5]]), np.array([[[1]], [[-1]]], dtype=np.int8)))
@example((np.array([[1.0, UP], [UP, 1.0]]),
          np.array([[[-1, 1], [1, -1]]] * 3, dtype=np.int8)))
@example((np.array([[0.5, 0.5, 0.25, 0.75, 0.75, 0.0, 5e-324]]),
          np.array([[[1, -1, -1, 1, -1, -1, 1]],
                    [[-1, 1, 1, -1, 1, 1, -1]]], dtype=np.int8)))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_paired_block_rows_equal_one_pair_calls(block):
    # each pair's row of a paired call equals that pair's own call and the
    # per-trial reference, bit for bit
    x, ys = block
    a_hat, errors = erm_block(x, ys)
    assert a_hat.shape == errors.shape == ys.shape[:2]
    for j, (y, a_row, e_row) in enumerate(zip(ys, a_hat, errors)):
        (own_a,), (own_e,) = erm_block(x, ys[j:j + 1])
        assert bits(a_row) == bits(own_a) and e_row.tolist() == own_e.tolist()
        for k in range(len(x)):
            assert (a_row[k], e_row[k]) == reference_erm(x[k], y[k])
    if x.shape[1] < 2:
        return
    steps = two_step_block(x, ys, 4.0)
    assert steps.shape == ys.shape[:2]
    for j, (y, row) in enumerate(zip(ys, steps)):
        assert bits(row) == bits(two_step_block(x, ys[j:j + 1], 4.0)[0])
        assert bits(row) == bits([reference_two_step(x[k], y[k], 4.0)
                                  for k in range(len(x))])


def test_refine_rows_with_empty_and_single_point_windows():
    # windows of 0, 1, 2 and more points, an empty one first, between and
    # last, and one whose points all sit at one abscissa
    rng = np.random.default_rng(9)
    m, L, a0 = 27, 0.3, 0.5  # half-width 0.1
    x = rng.uniform(0.7, 1.0, (7, m))
    x[1, :2] = 0.52
    x[2, 0] = 0.45
    x[3, :3] = (0.45, 0.5, 0.55)
    x[5, :] = rng.uniform(0.4, 0.6, m)
    y = rng.choice(np.array([-1, 1], dtype=np.int8), size=(7, m))
    y[5, :5] = 1
    starts = np.full((1, 7), a0)
    (a_hat,), (count,), (fell_back,) = estimators._refine_rows(x, y[None],
                                                               starts, L)
    assert count.tolist()[:5] == [0, 2, 1, 3, 0] and count[6] == 0
    assert fell_back.tolist()[:3] == [True, True, True]
    assert bits(a_hat) == bits([reference_refine(x[k], y[k], a0, L)
                                for k in range(7)])


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
        draw_block((P,), 10, 1, range(3))
    with pytest.raises(EnvelopeViolated):
        estimate_all((P,), ("erm",), 10, 1, range(3))


def test_clock_trials_draw_nothing(monkeypatch):
    def no_draw(pairs, n, master_seed, trials):
        raise AssertionError("the clock drew a sample")

    monkeypatch.setattr(estimators, "draw_block", no_draw)
    P = builtin_model("canonical")
    pairs = (P, MODELS["canonical-certified-q"], MODELS["tilted"])
    for n in (0, 1, 6, 10 ** 4):
        got = estimate_all(pairs, ("clock",), n, 3, range(7))
        assert bits(got) == bits([[[clock_estimator(max(n, 1))] * 7]] * 3)
    assert estimate_all(pairs, ("clock",), 10, 3, []).shape == (3, 1, 0)


@pytest.mark.parametrize("master, trial", [(-1, 0), (2 ** 128, 0), (0, -1)])
def test_kernel_rejects_seeds_without_a_stream(master, trial):
    # the range rule of SeedPolicy, for the last trial of a block too, and
    # for the clock, which draws nothing
    P = builtin_model("canonical")
    trials = [3, 0, trial] if trial < 0 else [0, 1]
    with pytest.raises(ValueError):
        draw_block((P,), 10, master, trials)
    for name in ("erm", "clock"):
        with pytest.raises(ValueError):
            estimate_all((P,), (name,), 10, master, trials)


def test_sub_blocks_respect_the_uniform_cap(monkeypatch):
    blocks = []

    def recording_draw_block(pairs, n, master_seed, trials):
        blocks.append((n, len(trials)))
        return draw_block(pairs, n, master_seed, trials)

    monkeypatch.setattr(estimators, "draw_block", recording_draw_block)
    P = builtin_model("canonical")
    for n in (250, 1000, 10 ** 4):
        estimate_all((P,), ("erm",), n, 3, range(25))
    per_n = {n: [k for m, k in blocks if m == n] for n, _ in blocks}
    # first-round doubles a trial under envelope 1.01: 2 x 258 at n = 250,
    # 2 x 1020 at n = 1000 and 2 x 10131 at n = 10^4
    assert per_n[250] == [25]
    assert per_n[1000] == [16, 9]
    assert per_n[10 ** 4] == [1] * 25
    for n, k in blocks:
        first_round = 2 * _proposal_size(n, P.envelope)
        assert k == 1 or first_round * k <= _MAX_BLOCK_UNIFORMS
    assert sub_blocks([], 10, 1.01) == []
    assert sub_blocks(list(range(5)), 0, 1.01) == [list(range(5))]


MIXED = ("erm", "twostep:L=4", "clock", "twostep")


def test_rate_sweep_draws_each_block_once(monkeypatch):
    blocks = []

    def recording_draw_block(pairs, n, master_seed, trials):
        blocks.append((n, list(trials)))
        return draw_block(pairs, n, master_seed, trials)

    monkeypatch.setattr(estimators, "draw_block", recording_draw_block)

    def sweep(names):
        blocks.clear()
        harness.rate_sweep(harness.ExperimentConfig(
            model="canonical", estimators=names, n_list=(250, 1000),
            trials=25, master_seed=3))
        return list(blocks)

    calls = sweep(MIXED)
    assert [(n, len(trials)) for n, trials in calls] == \
        [(250, 25), (1000, 16), (1000, 9)]
    for n in (250, 1000):
        assert [t for m, trials in calls if m == n for t in trials] == \
            [(n << 64) + t for t in range(25)]
    assert sweep(("erm",)) == calls
    assert sweep(("clock",)) == []


@pytest.mark.parametrize("name", list(MODELS))
def test_estimate_all_rows_equal_estimate_trials(name):
    """Each row of a call with several estimators equals the call with that
    estimator alone."""
    # at n = 1000 these 25 trials are drawn in blocks of 16 and 9
    P = MODELS[name]
    trials = [5, 0, 17, 3, 40, 41, 2, 99, 7, 8, 60, 1, 11, 12, 13, 30,
              31, 4, 50, 6, 9, 70, 21, 22, 23]
    (got,) = estimate_all((P,), MIXED, 1000, 2024, trials)
    assert got.shape == (len(MIXED), len(trials))
    for row, est in zip(got, MIXED):
        assert bits(row) == bits(estimate_all((P,), (est,), 1000, 2024, trials))
    assert estimate_all((P,), MIXED, 1000, 2024, []).shape == \
        (1, len(MIXED), 0)


# --- support-aware Sum against full evaluation ----------------------------------


def certified_q(name):
    return build_certificate(builtin_model(name), default_bump(), 0.05,
                             10 ** 4).q


SUPPORT_MODELS = {
    **{f"{name}-certified-q": certified_q(name)
       for name in ("canonical", "tilted", "curved")},
    "perturbed-config": model_from_config({
        "model.family": "perturbed", "model.base": "curved",
        "model.eps": "0.07"}),
}


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
@pytest.mark.parametrize("n", [1000, 10 ** 4])
def test_pair_with_its_certified_q_draws_each_block_once(name, n, monkeypatch):
    """perturb keeps the marginal, so a (P, Q) call makes one draw_block
    call a block, and each pair's rows equal those of its own call."""
    P = builtin_model(name)
    Q = build_certificate(P, default_bump(), 0.05, n).q
    calls = []

    def recording_draw_block(pairs, n, master_seed, trials):
        calls.append((tuple(pairs), list(trials)))
        return draw_block(pairs, n, master_seed, trials)

    monkeypatch.setattr(estimators, "draw_block", recording_draw_block)
    trials = list(range(40, 57))  # blocks of 16 and 1 at n = 1000
    got = estimate_all((P, Q), MIXED, n, 2024, trials)
    blocks = sub_blocks(trials, n, P.envelope)
    assert calls == [((P, Q), block) for block in blocks]
    for pair, rows in zip((P, Q), got):
        assert bits(rows) == bits(estimate_all((pair,), MIXED, n, 2024, trials))
    x, y = draw_block((P, Q), n, 2024, blocks[0])
    for pair, rows in zip((P, Q), y):
        own_x, (own_y,) = draw_block((pair,), n, 2024, blocks[0])
        assert own_x.tobytes() == x.tobytes()
        assert own_y.tobytes() == rows.tobytes()


def nodes(f):
    """f and every Field below it."""
    yield f
    for child in (getattr(f, fld.name) for fld in dataclasses.fields(f)):
        for c in child if isinstance(child, tuple) else (child,):
            if isinstance(c, Field):
                yield from nodes(c)


def bumps(P):
    return {b for f in (P.fplus, P.fminus) for b in nodes(f)
            if isinstance(b, BumpComposite)}


def neighbours(e, k):
    """e and its k nearest floats on each side."""
    steps = [e]
    for direction in (-np.inf, np.inf):
        v = e
        for _ in range(k):
            v = np.nextafter(v, direction)
            steps.append(v)
    return steps


def support_inputs(P):
    """Scalars, empty, 1-D and 2-D arrays, a 10^4-point grid, and each bump
    support end c +- eps r with its 4 floating-point neighbours each side."""
    ends = []
    for b in bumps(P):
        r = b.eps * b.profile.radius
        for e in (b.center - r, b.center + r, b.center):
            ends += neighbours(e, 4)
    ends = np.array(ends)
    grid = np.linspace(0.0, 1.0, 10 ** 4)
    return [0.5, P.threshold, float(ends[0]), np.float64(ends[1]),
            np.asarray(ends[2]), np.empty(0), np.empty((0, 3)), ends,
            grid[::40].reshape(10, 25), grid.reshape(100, 100)[:, ::3],
            ends.reshape(-1, 1), grid]


@pytest.mark.parametrize("name", list(SUPPORT_MODELS))
def test_sum_equals_full_evaluation_bitwise(name):
    P = SUPPORT_MODELS[name]
    assert bumps(P)
    for x in support_inputs(P):
        for f in (P.fplus, P.fminus):
            for der in (False, True):
                got = f.der(x) if der else f.val(x)
                want = full_eval(f, x, der)
                assert np.shape(got) == np.shape(want) == np.shape(x)
                assert bits(got) == bits(want)
        assert bits(P.fsum(x)) == bits(full_fsum(P, x))


def test_support_of_each_node():
    unbounded = (-np.inf, np.inf)
    phi = CosSquaredProfile(0.5)
    bump = BumpComposite(phi, center=0.3, eps=0.1)
    lo, hi = bump.support
    assert lo <= 0.25 < 0.35 <= hi
    assert 0.25 - lo < 1e-15 and hi - 0.35 < 1e-15
    assert phi.support == (-0.5, 0.5)
    wide = BumpComposite(CosSquaredProfile(2.0), center=0.4, eps=0.1)
    assert Product(bump, wide).support == bump.support
    assert Product(Affine(2.0, 1.0), wide).support == wide.support
    assert Quotient(bump, Const(0.0)).support == bump.support
    assert Quotient(Const(1.0), bump).support == unbounded
    for f in (Const(1.0), Affine(1.0, 0.0), Monomial(1.0, 2), bump + bump,
              BumpComposite(Affine(1.0, 0.0), center=0.5, eps=0.1)):
        assert f.support == unbounded
    disjoint = Product(bump, BumpComposite(phi, center=0.8, eps=0.1))
    assert disjoint.support[0] > disjoint.support[1]
    x = np.linspace(0.0, 1.0, 101)
    assert bits((Affine(1.0, 0.0) + disjoint).val(x)) == bits(x)


def test_bump_support_holds_every_nonzero_point():
    rng = np.random.default_rng(8)
    for radius in (1.0, 0.3, 1.7):
        phi = CosSquaredProfile(radius)
        for c, eps in zip(rng.uniform(0.05, 0.95, 200),
                          10.0 ** rng.uniform(-6.0, -0.5, 200)):
            bump = BumpComposite(phi, center=c, eps=eps)
            lo, hi = bump.support
            x = np.array(neighbours(c - eps * radius, 12)
                         + neighbours(c + eps * radius, 12))
            nonzero = (bump.val(x) != 0.0) | (bump.der(x) != 0.0)
            assert nonzero.any() and not nonzero.all()
            assert np.all((x[nonzero] >= lo) & (x[nonzero] <= hi))
            outside = (x < lo) | (x > hi)
            assert bits(bump.val(x[outside])) == bits(np.zeros(outside.sum()))


def test_draw_evaluates_the_bump_only_on_its_support(monkeypatch):
    """A certified Q draws X from its base, so no proposal reaches its bump,
    and labels it by f+ of Q, whose bump is evaluated at the accepted points
    inside the bump's support alone, once each."""
    Q = SUPPORT_MODELS["canonical-certified-q"]
    (bump,) = bumps(Q)
    lo, hi = bump.support
    Q.base.envelope  # computed before the spies go in
    proposals, in_fsum, reached = [], [False], []
    real_val, real_fsum = BumpComposite.val, DensityPair.fsum

    def recording_val(self, x):
        reached.append((in_fsum[0], np.array(x)))
        return real_val(self, x)

    def recording_fsum(self, x):
        proposals.append(np.array(x))
        in_fsum[0] = True
        try:
            return real_fsum(self, x)
        finally:
            in_fsum[0] = False

    monkeypatch.setattr(BumpComposite, "val", recording_val)
    monkeypatch.setattr(DensityPair, "fsum", recording_fsum)
    n = 10 ** 4
    sample = draw(Q, n, SeedPolicy(31, 4))
    assert n < sum(map(len, proposals)) < 1.02 * n
    assert not any(during_fsum for during_fsum, _ in reached)
    x = np.concatenate([pts.ravel() for _, pts in reached])
    assert np.all((x >= lo) & (x <= hi))
    inside = sample.x[(sample.x >= lo) & (sample.x <= hi)]
    assert np.array_equal(np.sort(x), np.sort(inside))
    # the bump covers about 8.6% of [0, 1]
    assert 0.07 * n < len(x) < 0.10 * n


def draw_digest(P, n, master_seed, trials):
    x, (y,) = draw_block((P,), n, master_seed, trials)
    h = hashlib.sha256(x.astype(float).tobytes())
    h.update(y.astype(np.int8).tobytes())
    return h.hexdigest()


# sha256 of the x then y bytes of draw_block((Q,), 10^4, seeds (s, 0) and
# (s, 1)) for the certified Q at delta = 0.05, on stream_version 2 to 4 (3
# changed only which trials a rate sweep reads, 4 only which the
# disjunction reads)
GOLDEN_Q = {
    ("canonical", 0): "232cc2280b20c2eb41e1730276311079dade87d0f3a7c329e0457feab1a8af99",
    ("canonical", 7): "3d6028a4ccad81f3efc86fded3f29075edeceb62ce1b89e0ce52f15a7ecc744d",
    ("canonical", 2024): "21cf572052d27cd7b9b243adf409f542e0aa26d4ca749c5621a3c367eb8b43a7",
    ("tilted", 0): "3534fdde08611581c98b00630f043a279bc5e4efdfc5564318555bd0e836c610",
    ("tilted", 7): "7e65f473d146fbbd46160ae82016b1d1661f63eded1fb40b5cbb4a1135a120ea",
    ("tilted", 2024): "25ac934baed6c1103c389ee6c2a36912090590aaff568be81f2cd9cc24a5ecb2",
    ("curved", 0): "0752fd4b6739faf27dbaf1e4e99ec1e94f37826b7834b3f37feb67458acaf8b7",
    ("curved", 7): "8a9b1f1850173ae8ba244f5c77d943fbdb7df14b8e4a3dcb682673f92afe5812",
    ("curved", 2024): "8e3acce45d4e2925c59a69f7c53acab810529eeec5927aa3dd79e6f3ef0565d6",
}


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
def test_certified_q_draws_match_golden_digests(name):
    Q = SUPPORT_MODELS[f"{name}-certified-q"]
    for (model, seed), digest in GOLDEN_Q.items():
        if model == name:
            assert draw_digest(Q, 10 ** 4, seed, (0, 1)) == digest


def test_canonical_draws_match_golden_digest():
    assert draw_digest(builtin_model("canonical"), 250, 11, range(32)) == \
        "00ba7f42f4e6f5bdd3cf36aee9dd1654d94d4485607c675439404ed939ecdd34"
