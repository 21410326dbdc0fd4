"""Finite information-inequality checkers and the two-point disjunction."""

import math
import typing
from dataclasses import fields

import numpy as np
import pytest

from threshlab import estimators, lowerbound, perturbation
from threshlab.errors import InvalidModel, PremiseFails, TooLarge
from threshlab.estimators import erm_threshold
from threshlab.lowerbound import (
    DisjunctionReport,
    FiniteModel,
    GeneralLossSetup,
    disjunction_check,
    finite_relative_entropy,
    lemma21_check,
    lemma71_check,
)
from threshlab.model import DensityPair, builtin_model
from threshlab.perturbation import (
    build_certificate,
    default_bump,
    two_point_premises,
)
from threshlab.sampling import SeedPolicy, draw, draw_block


def random_finite_model(rng, k):
    p = rng.dirichlet(np.ones(k))
    q = rng.dirichlet(np.ones(k))
    q = 0.99 * q + 0.01 / k  # keep q strictly positive
    q = q / q.sum()
    return FiniteModel(p=tuple(p), q=tuple(q))


# --- FiniteModel guards -------------------------------------------------------


def test_finite_model_rejects_bad_sum():
    with pytest.raises(InvalidModel):
        FiniteModel(p=(0.5, 0.4), q=(0.5, 0.5))


def test_finite_model_rejects_negative():
    with pytest.raises(InvalidModel):
        FiniteModel(p=(1.5, -0.5), q=(0.5, 0.5))


def test_finite_model_rejects_absolute_continuity_failure():
    with pytest.raises(InvalidModel):
        FiniteModel(p=(0.5, 0.5), q=(1.0, 0.0))


_HALVES = FiniteModel(p=(0.5, 0.5), q=(0.5, 0.5))


@pytest.mark.parametrize("build", [
    lambda: FiniteModel(p=(math.nan, 1.0), q=(0.5, 0.5)),
    lambda: FiniteModel(p=(0.5, 0.5), q=(0.5, math.nan)),
    lambda: lemma21_check(_HALVES, [math.nan, 0.5]),
    lambda: GeneralLossSetup(model=_HALVES, loss_p=(0.0, 1.0),
                             loss_q=(1.0, 0.0), gamma=math.nan),
    lambda: GeneralLossSetup(model=_HALVES, loss_p=(math.nan, 1.0),
                             loss_q=(1.0, 0.0), gamma=0.5),
    lambda: GeneralLossSetup(model=_HALVES, loss_p=(0.0, 1.0),
                             loss_q=(math.inf, 0.0), gamma=0.5),
], ids=["p", "q", "lemma21-x", "gamma", "loss_p", "loss_q-inf"])
def test_finite_checkers_reject_nan(build):
    # a NaN fails a guard written as `not ok`, where `bad` would let it by
    with pytest.raises(InvalidModel):
        build()


def test_finite_model_rejects_length_mismatch_and_overflow():
    with pytest.raises(InvalidModel):
        FiniteModel(p=(1.0,), q=(0.5, 0.5))
    with pytest.raises(InvalidModel):
        FiniteModel(p=(1.0 / 9.0,) * 9, q=(1.0 / 9.0,) * 9)


def test_finite_entropy_closed_form():
    m = FiniteModel(p=(0.5, 0.5), q=(0.25, 0.75))
    expect = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert finite_relative_entropy(m) == pytest.approx(expect, abs=1e-15)
    assert expect == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-15)


# --- entropy filter (expectations under two measures) -----------------------------


def test_filter_identical_measures():
    m = FiniteModel(p=(0.3, 0.7), q=(0.3, 0.7))
    lhs, rhs, holds = lemma21_check(m, (0.2, 0.9))
    assert holds
    ex = 0.3 * 0.2 + 0.7 * 0.9
    assert lhs == pytest.approx(ex, abs=1e-15)
    assert rhs == pytest.approx(math.exp(-1.0) * (ex - 0.5), abs=1e-15)


def test_filter_indicator_example():
    m = FiniteModel(p=(0.5, 0.5), q=(0.25, 0.75))
    lhs, rhs, holds = lemma21_check(m, (1.0, 0.0))
    assert lhs == pytest.approx(0.25, abs=1e-15)
    assert rhs == pytest.approx(0.0, abs=1e-15)
    assert holds


def test_filter_constant_one_example():
    m = FiniteModel(p=(0.5, 0.5), q=(0.25, 0.75))
    lhs, rhs, holds = lemma21_check(m, (1.0, 1.0))
    assert lhs == pytest.approx(1.0, abs=1e-15)
    assert rhs == pytest.approx(
        math.exp(-2.0 * 0.5 * math.log(4.0 / 3.0) - 1.0) * 0.5, abs=1e-12
    )
    assert rhs == pytest.approx(0.1380, abs=2e-4)
    assert holds


def test_filter_rejects_bad_x():
    m = FiniteModel(p=(0.5, 0.5), q=(0.25, 0.75))
    with pytest.raises(InvalidModel):
        lemma21_check(m, (0.5,))
    with pytest.raises(InvalidModel):
        lemma21_check(m, (0.5, 1.5))


def test_filter_fuzz_never_violated():
    rng = np.random.default_rng(2718)
    for _ in range(2000):
        k = int(rng.integers(1, 9))
        m = random_finite_model(rng, k)
        x = rng.random(k)
        _, _, holds = lemma21_check(m, tuple(x))
        assert holds


# --- two-point disjunction -----------------------------------------------------------


@pytest.fixture(scope="module")
def cert():
    return build_certificate(builtin_model("canonical"), default_bump(),
                             0.05, 10 ** 4)


def test_disjunction_erm_small_run(cert):
    P = builtin_model("canonical")
    rep = disjunction_check(P, cert.q, 10 ** 4, cert.beta, 0.05,
                            "erm", trials=200, seed=SeedPolicy(314))
    assert isinstance(rep, DisjunctionReport)
    assert rep.holds
    assert min(rep.chi_mean_p, rep.chi_mean_q) < 0.95 + 3 * max(rep.stderr_p,
                                                                rep.stderr_q)


def test_disjunction_report_fields_have_their_declared_types(cert):
    # exactly float, int and bool: a numpy scalar, say a mean taken from
    # np.count_nonzero, would read np.float64(0.0) in the report's repr
    hints = typing.get_type_hints(DisjunctionReport)
    assert sorted(set(hints.values()), key=str) == [bool, float, int]
    for estimator in ("erm", "clock"):
        rep = disjunction_check(builtin_model("canonical"), cert.q, 10 ** 4,
                                cert.beta, 0.05, estimator, trials=20,
                                seed=SeedPolicy(314))
        assert {f.name: type(getattr(rep, f.name)) for f in fields(rep)} == hints


def test_disjunction_clock_small_run(cert):
    # the constant estimator cannot track both thresholds either
    P = builtin_model("canonical")
    rep = disjunction_check(P, cert.q, 10 ** 4, cert.beta, 0.05,
                            "clock", trials=20, seed=SeedPolicy(314))
    assert rep.holds


def test_disjunction_streams_match_per_trial_reference(cert):
    """Trial t runs on stream trial_index + t under both P and Q."""
    P, Q, n, trials = builtin_model("canonical"), cert.q, 10 ** 4, 50
    rep = disjunction_check(P, Q, n, cert.beta, 0.05, "erm", trials=trials,
                            seed=SeedPolicy(3, 4))
    means = []
    for pair in (P, Q):
        hits = 0
        for t in range(trials):
            s = draw(pair, n, SeedPolicy(3, 4 + t))
            err = erm_threshold(s).a_hat - pair.threshold
            hits += int(abs(cert.beta * err) <= 1.0)
        means.append(hits / trials)
    assert (rep.chi_mean_p, rep.chi_mean_q) == tuple(means)
    assert any(means)  # some hits, so the streams are actually compared


def test_disjunction_with_another_marginal_draws_apart(cert, monkeypatch):
    """A P whose marginal differs from Q's (here by its name alone) is drawn
    in calls of its own, on the same trials, and gives the same report."""
    P = builtin_model("canonical")
    renamed = DensityPair(P.fplus, P.fminus, name="canonical-copy")
    assert renamed.marginal != cert.q.marginal
    with pytest.raises(ValueError):
        draw_block((renamed, cert.q), 10, 0, range(2))
    calls = []

    def recording_draw_block(pairs, n, master_seed, trials):
        calls.append((tuple(pairs), list(trials)))
        return draw_block(pairs, n, master_seed, trials)

    monkeypatch.setattr(estimators, "draw_block", recording_draw_block)
    run = [disjunction_check(pair, cert.q, 10 ** 4, cert.beta, 0.05, "erm",
                             trials=3, seed=SeedPolicy(5, 2))
           for pair in (renamed, P)]
    assert run[0] == run[1]
    assert calls == [((renamed,), [t]) for t in (2, 3, 4)] \
        + [((cert.q,), [t]) for t in (2, 3, 4)] \
        + [((P, cert.q), [t]) for t in (2, 3, 4)]


def test_disjunction_window_is_closed(cert, monkeypatch):
    """chi is the indicator of [-1, 1]: with a power-of-two beta and
    a(P) = 0.5, an estimate at a +- 1/beta is a hit and one ulp beyond is
    not."""
    P, beta = builtin_model("canonical"), 2.0 ** 10
    a = P.threshold
    assert a == 0.5
    edges = [a + 1 / beta, a - 1 / beta]
    beyond = [np.nextafter(edges[0], 1.0), np.nextafter(edges[1], 0.0)]
    estimates = {P.name: np.array(edges + beyond),
                 cert.q.name: np.full(4, cert.q.threshold)}
    monkeypatch.setattr(lowerbound, "estimate_all", lambda pairs, *args:
                        np.array([[estimates[pair.name]] for pair in pairs]))
    rep = disjunction_check(P, cert.q, 10 ** 4, beta, 0.05, "erm", trials=4,
                            seed=SeedPolicy(0))
    assert (rep.chi_mean_p, rep.chi_mean_q) == (0.5, 1.0)


def test_disjunction_rejects_no_trials(cert):
    with pytest.raises(ValueError):
        disjunction_check(builtin_model("canonical"), cert.q, 10 ** 4,
                          cert.beta, 0.05, "erm", trials=0, seed=SeedPolicy(0))


def test_disjunction_delta_guard(cert):
    P = builtin_model("canonical")
    with pytest.raises(PremiseFails) as exc:
        disjunction_check(P, cert.q, 10 ** 4, cert.beta, 0.2, "erm",
                          trials=10, seed=SeedPolicy(1))
    assert exc.value.which == "delta"


def test_disjunction_entropy_guard(cert):
    # same pair at a hundredfold sample size blows the budget
    P = builtin_model("canonical")
    with pytest.raises(PremiseFails) as exc:
        disjunction_check(P, cert.q, 10 ** 6, cert.beta, 0.05, "erm",
                          trials=10, seed=SeedPolicy(1))
    assert exc.value.which == "entropy"


def test_disjunction_separation_guard(cert):
    P = builtin_model("canonical")
    with pytest.raises(PremiseFails) as exc:
        disjunction_check(P, cert.q, 10 ** 4, 1e-6, 0.05, "erm",
                          trials=10, seed=SeedPolicy(1))
    assert exc.value.which == "separation"


def test_entropy_budget_monotone_in_delta():
    # smaller delta leaves a larger admissible n H, so any pair accepted at
    # some delta is accepted at every smaller delta
    budgets = [0.5 * abs(math.log(11.0 * d))
               for d in (0.09, 0.05, 0.02, 0.01, 0.001)]
    assert budgets == sorted(budgets)


def test_two_point_premises_are_the_certificate_fields(cert):
    P = builtin_model("canonical")
    assert two_point_premises(P, cert.q, 10 ** 4, cert.beta, 0.05) == \
        (cert.entropy, cert.entropy_budget, cert.separation,
         cert.entropy_ok, cert.separation_ok)


def test_certificate_and_disjunction_share_the_entropy_budget(monkeypatch):
    """At delta = 0.01, (1/2) log(1/(11 delta)) is one ulp above
    (1/2)|log(11 delta)|.  With n H on the larger value the certificate and
    the disjunction both reject the entropy premise; on the smaller, both
    accept it."""
    delta, n = 0.01, 2 ** 14  # n H is exact for a power-of-two n
    budget = 0.5 * abs(math.log(11.0 * delta))
    above = 0.5 * math.log(1.0 / (11.0 * delta))
    assert above == math.nextafter(budget, math.inf)
    P = builtin_model("canonical")
    monkeypatch.setattr(lowerbound, "estimate_all", lambda pairs, *args:
                        np.array([[np.full(2, pair.threshold)] for pair in pairs]))
    for nh, ok in ((above, False), (budget, True)):
        monkeypatch.setattr(perturbation, "relative_entropy",
                            lambda P, Q, h=nh / n: h)
        cert = build_certificate(P, default_bump(), delta, n)
        assert n * cert.entropy == nh
        assert cert.entropy_ok is ok and cert.separation_ok
        run = lambda: disjunction_check(P, cert.q, n, cert.beta, delta, "erm",
                                        trials=2, seed=SeedPolicy(0))
        if ok:
            assert isinstance(run(), DisjunctionReport)
        else:
            with pytest.raises(PremiseFails) as exc:
                run()
            assert exc.value.which == "entropy"


# --- general-loss disjunction ---------------------------------------------------------


def test_general_loss_regrets():
    m = FiniteModel(p=(0.5, 0.5), q=(0.5, 0.5))
    s = GeneralLossSetup(model=m, loss_p=(1.0, 3.0), loss_q=(2.0, 1.0),
                         gamma=1.0)
    assert s.regrets() == ((0.0, 2.0), (1.0, 0.0))


def test_general_loss_rejects_nonpositive_gamma():
    m = FiniteModel(p=(0.5, 0.5), q=(0.5, 0.5))
    with pytest.raises(InvalidModel):
        GeneralLossSetup(model=m, loss_p=(0.0, 1.0), loss_q=(1.0, 0.0),
                         gamma=0.0)


def test_identical_measures_case():
    # P = Q with every h at regret >= gamma/2 under one of the losses
    m = FiniteModel(p=(0.4, 0.6), q=(0.4, 0.6))
    s = GeneralLossSetup(model=m, loss_p=(0.0, 1.0), loss_q=(1.0, 0.0),
                         gamma=1.0)
    for rule in ([0, 0], [0, 1], [1, 0], [1, 1]):
        ep, eq, holds = lemma71_check(s, 1, 0.25, rule)
        assert holds
        # pointwise Delta_P^g + Delta_Q^g >= gamma and P = Q force
        # eP + eQ >= gamma, hence max >= gamma/2 > delta*gamma
        assert max(ep, eq) >= 0.5 - 1e-12


def test_two_hypothesis_both_rules():
    m = FiniteModel(p=(0.7, 0.3), q=(0.2, 0.8))
    g = 0.5
    s = GeneralLossSetup(model=m, loss_p=(0.0, g), loss_q=(g, 0.0), gamma=g)
    for rule in ([0, 0], [0, 1], [1, 0], [1, 1]):
        ep, eq, holds = lemma71_check(s, 1, 0.1, rule)
        assert holds


def test_rule_table_is_lexicographic():
    # n = 2 over k = 2 outcomes: entry 2 * s0 + s1 decides (s0, s1)
    m = FiniteModel(p=(0.6, 0.4), q=(0.3, 0.7))
    s = GeneralLossSetup(model=m, loss_p=(0.0, 1.0), loss_q=(1.0, 0.0),
                         gamma=1.0)
    ep, eq, _ = lemma71_check(s, 2, 0.2, [0, 1, 1, 0])
    # regret 1 under P where h = 1: sequences (0, 1) and (1, 0)
    assert ep == pytest.approx(2 * 0.6 * 0.4, abs=1e-15)
    # regret 1 under Q where h = 0: sequences (0, 0) and (1, 1)
    assert eq == pytest.approx(0.3 ** 2 + 0.7 ** 2, abs=1e-15)


@pytest.mark.parametrize("rule", [
    pytest.param([-1, 0], id="negative"),
    pytest.param([0, 2], id="past-last-hypothesis"),
    pytest.param([0], id="short"),
    pytest.param([0, 1, 0], id="long"),
])
def test_rule_table_is_checked(rule):
    m = FiniteModel(p=(0.5, 0.5), q=(0.5, 0.5))
    s = GeneralLossSetup(model=m, loss_p=(0.0, 1.0), loss_q=(1.0, 0.0),
                         gamma=1.0)
    with pytest.raises(InvalidModel, match="decision_rule"):
        lemma71_check(s, 1, 0.2, rule)


def test_enumeration_cap():
    m = FiniteModel(p=(0.25,) * 4, q=(0.25,) * 4)
    s = GeneralLossSetup(model=m, loss_p=(0.0, 1.0), loss_q=(1.0, 0.0),
                         gamma=1.0)
    with pytest.raises(TooLarge):
        lemma71_check(s, 7, 0.2, [0] * 4 ** 7)


def test_premise_guard_on_regret_gap():
    m = FiniteModel(p=(0.5, 0.5), q=(0.5, 0.5))
    # hypothesis 0 is optimal under both losses: zero combined regret
    s = GeneralLossSetup(model=m, loss_p=(0.0, 1.0), loss_q=(0.0, 1.0),
                         gamma=0.5)
    with pytest.raises(PremiseFails) as exc:
        lemma71_check(s, 1, 0.1, [0, 0])
    assert exc.value.which == "regret-gap"


def test_delta_range_guard():
    m = FiniteModel(p=(0.5, 0.5), q=(0.5, 0.5))
    s = GeneralLossSetup(model=m, loss_p=(0.0, 1.0), loss_q=(1.0, 0.0),
                         gamma=1.0)
    with pytest.raises(InvalidModel):
        lemma71_check(s, 1, 0.7, [0, 0])


def random_admissible_setup(rng):
    """Resample until the combined-regret premise is satisfiable."""
    while True:
        k = int(rng.integers(2, 5))
        m = random_finite_model(rng, k)
        hyp = int(rng.integers(2, 5))
        loss_p = tuple(rng.random(hyp))
        loss_q = tuple(rng.random(hyp))
        dp = [v - min(loss_p) for v in loss_p]
        dq = [v - min(loss_q) for v in loss_q]
        floor = min(a + b for a, b in zip(dp, dq))
        if floor <= 1e-9:
            continue
        gamma = floor * rng.uniform(0.1, 1.0)
        return GeneralLossSetup(model=m, loss_p=loss_p, loss_q=loss_q,
                                gamma=gamma)


def test_general_loss_fuzz_never_violated():
    rng = np.random.default_rng(1618)
    for _ in range(500):
        s = random_admissible_setup(rng)
        k = s.model.outcomes
        n = int(rng.integers(1, 4))
        rule = [int(rng.integers(0, len(s.loss_p))) for _ in range(k ** n)]
        delta = float(rng.uniform(0.01, 0.49))
        _, _, holds = lemma71_check(s, n, delta, rule)
        assert holds
