"""The batched trial kernel against a per-trial reference, bit for bit.

The reference is the one-trial-at-a-time code the block kernel replaced: a
rejection loop per stream, ERM by searchsorted on one sorted sample, the
split estimator on top of it, and one excess-risk quadrature per trial.
Densities in the reference are evaluated by `full_eval`, which walks the
expression tree and evaluates every Sum term on every point, so it does not
rest on the support-aware Sum it checks.
"""

import dataclasses
import hashlib

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
from threshlab.model import (
    DensityPair,
    builtin_model,
    builtin_models,
    model_from_config,
)
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


def reference_draw(P, n, seed):
    """One stream's rejection loop; returns (x, y, proposal rounds)."""
    rng = seed.rng()
    envelope = P.envelope
    xs, got, rounds = [], 0, 0
    while got < n:
        batch = max(2 * (n - got), 1024)
        u = rng.random((batch, 2))
        fx = full_fsum(P, u[:, 0])
        if np.any(fx > envelope):
            raise EnvelopeViolated(P.name)
        accept = u[:, 1] * envelope <= fx
        xs.append(u[accept, 0])
        got += int(np.count_nonzero(accept))
        rounds += 1
    x = np.concatenate(xs)[:n] if xs else np.empty(0)
    fsum = full_fsum(P, x)
    rho_plus = np.divide(full_eval(P.fplus, x), fsum,
                         out=np.zeros_like(fsum), where=fsum > 0)
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
    """The bump of the certified Q at n = 10^4 covers about 8.6% of [0, 1];
    a draw must evaluate it on those proposals alone, once in f+ and once
    in f-."""
    Q = SUPPORT_MODELS["canonical-certified-q"]
    (bump,) = bumps(Q)
    lo, hi = bump.support
    Q.envelope  # computed before the spies go in
    proposals, reached, in_fsum = [], [], [False]
    real_val, real_fsum = BumpComposite.val, DensityPair.fsum

    def counting_val(self, x):
        if in_fsum[0]:
            reached.append(np.size(x))
        return real_val(self, x)

    def recording_fsum(self, x):
        proposals.append(np.array(x))
        in_fsum[0] = True
        try:
            return real_fsum(self, x)
        finally:
            in_fsum[0] = False

    monkeypatch.setattr(BumpComposite, "val", counting_val)
    monkeypatch.setattr(DensityPair, "fsum", recording_fsum)
    draw(Q, 10 ** 4, SeedPolicy(31, 4))
    x = np.concatenate(proposals)
    assert len(x) >= 2 * 10 ** 4
    r = bump.eps * bump.profile.radius
    share = np.count_nonzero(np.abs(x - bump.center) <= r) / len(x)
    assert 0.07 < share < 0.10
    in_mask = np.count_nonzero((x >= lo) & (x <= hi))
    assert sum(reached) == 2 * in_mask
    assert sum(reached) < 0.1 * 2 * len(x)


def draw_digest(P, n, seeds):
    x, y = draw_block(P, n, seeds)
    h = hashlib.sha256(x.astype(float).tobytes())
    h.update(y.astype(np.int8).tobytes())
    return h.hexdigest()


# sha256 of the x then y bytes of draw_block(Q, 10^4, seeds (s, 0) and (s, 1))
# for the certified Q at delta = 0.05, computed while Sum still evaluated every
# term on every point
GOLDEN_Q = {
    ("canonical", 0): "27404fbe424d925ead01b44d44c5c9baaa4d47d39fc7e95927dd592d9849125f",
    ("canonical", 7): "887d1ffb8eb0f1c0c06d4b5f9a06a76710e7c26642aca6de333963401af0fae4",
    ("canonical", 2024): "b935f5e5d58cc964dd9bb1bfcd41a7343b06e39cdb86b62267b8ace1b3b923fc",
    ("tilted", 0): "d4d6ed5c99c6a17985b325335d394d042a0345eba3d72bfde7b21e27e6b6ab0c",
    ("tilted", 7): "497ccef83e88d12a241fe75e9216f510f53319a9a665f7f7ff457ec344e76df8",
    ("tilted", 2024): "1fd4a14003fc58bd2a365cc6a1e5d216f84565e18bbbd4de7cc15dae3f195ef8",
    ("curved", 0): "2b521a7e3b1cd83f8b56e635a62069efaaa307ed9b2349e0a7ccf0fff9af94d1",
    ("curved", 7): "a7a51846c6228849e5bf691c5b7a42178723c562e2add0f0752f1bb9f5cc9274",
    ("curved", 2024): "7b5e74a56caa379758db887d35109470834c97eef1d61db80f9ab6c01f980f13",
}


@pytest.mark.parametrize("name", ["canonical", "tilted", "curved"])
def test_certified_q_draws_match_golden_digests(name):
    Q = SUPPORT_MODELS[f"{name}-certified-q"]
    for (model, seed), digest in GOLDEN_Q.items():
        if model == name:
            seeds = [SeedPolicy(seed, t) for t in (0, 1)]
            assert draw_digest(Q, 10 ** 4, seeds) == digest


def test_canonical_draws_match_golden_digest():
    seeds = [SeedPolicy(11, t) for t in range(32)]
    assert draw_digest(builtin_model("canonical"), 250, seeds) == \
        "f2e1d7b341ab14989d8ccb251f0dcaa75016f4580d3d0c8cf73b8d9f63c9731f"
