"""Certificate fast paths: the threshold bisection guided by an inverse
quadratic predictor against the sequential solver and its margin calls,
jets against full evaluation, per-pair constants computed once, and the
certificate bytes."""

import inspect
import io
import math
import pickle
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from threshlab import cli, model, perturbation
from threshlab.cli import model_from_config
from threshlab.expr import Affine, CosSquaredProfile
from threshlab.harness import certificate_csv_lines, certificate_sweep
from threshlab.model import DensityPair, builtin_model, builtin_models
from threshlab.perturbation import default_bump, estimate_c1, make_plan, perturb

from test_kernel import bits as array_bits, full_eval, support_inputs

DATA = Path(__file__).parent / "data"
MODELS = ("canonical", "tilted", "curved")
DELTAS = (0.01, 0.05, 0.09)
N_LADDER = tuple(10 ** k for k in range(3, 8))


def bits(v) -> str:
    return float(v).hex()


def sequential_threshold(P) -> float:
    """Reference solver: the 2048-cell bracket, then one scalar margin call
    per bisection midpoint."""
    x = np.linspace(0.0, 1.0, 2049)
    sign = np.sign(P.margin(x))
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    exact = np.nonzero(sign[1:-1] == 0)[0]
    assert len(flips) + len(exact) == 1
    if len(exact) == 1:
        return float(x[exact[0] + 1])
    lo, hi = float(x[flips[0]]), float(x[flips[0] + 1])
    mlo = float(P.margin(lo))
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        mmid = float(P.margin(mid))
        if mmid == 0.0:
            lo = hi = mid
            break
        if (mmid > 0) == (mlo > 0):
            lo, mlo = mid, mmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def certified_q(P, delta, n):
    phi = default_bump()
    return perturb(P, phi, make_plan(P, phi, delta, n).eps)


def certified_qs():
    """((model, delta, n), Q) for the 45 certified Q of the grid below."""
    for name in MODELS:
        P = builtin_model(name)
        for delta in DELTAS:
            for n in N_LADDER:
                yield (name, delta, n), certified_q(P, delta, n)


# --- predicted-path bisection against the sequential solver -----------------------


def midpoint_tree(lo: float, hi: float, levels: int) -> list:
    """The midpoints that the next `levels` bisection levels of [lo, hi] can
    visit, each from the same 0.5 * (lo + hi) as the solver's."""
    if levels == 0:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + midpoint_tree(lo, mid, levels - 1) + midpoint_tree(mid, hi, levels - 1)


@pytest.fixture(params=[1, 3, 6])
def levels(request, monkeypatch):
    """Have every solve in the test evaluate the midpoint tree of this many
    levels beside the predicted path: extra points in a call must change no
    bit, and each call must walk every level it holds."""
    path = model._predicted_path
    monkeypatch.setattr(model, "_predicted_path", lambda lo, hi, *rest:
                        path(lo, hi, *rest) + midpoint_tree(lo, hi, request.param))
    return request.param


def test_builtin_thresholds_match_sequential(levels):
    for P in builtin_models():
        assert bits(P.threshold) == bits(sequential_threshold(P)), P.name


def test_certified_q_thresholds_match_sequential(levels):
    for name in MODELS:
        P = builtin_model(name)
        for delta in DELTAS:
            for n in N_LADDER:
                q = certified_q(P, delta, n)
                assert bits(q.threshold) == bits(sequential_threshold(q)), (name, delta, n)


def test_perturbed_config_threshold_matches_sequential(levels):
    P = model_from_config({"model.family": "perturbed", "model.base": "tilted",
                           "model.eps": "0.04"})
    assert bits(P.threshold) == bits(sequential_threshold(P))


def test_on_grid_crossing_takes_the_exact_path(levels):
    P = builtin_model("canonical")
    assert P.threshold == 0.5 == sequential_threshold(P)


def test_dyadic_crossing_takes_the_exact_zero_exit(levels):
    # m = 2x - 1 - 2^-14 is exactly 0 at the fourth midpoint of the bracket
    # [1/2, 1/2 + 2^-11]; walking on past it would end a few 1e-15 away
    P = DensityPair(Affine(1.0, 0.0), Affine(-1.0, 1.0 + 2.0 ** -14), name="dyadic")
    a = 0.5 + 2.0 ** -15
    assert float(P.margin(a)) == 0.0
    assert bits(P.threshold) == bits(a) == bits(sequential_threshold(P))


@pytest.mark.parametrize("name", MODELS)
def test_scalar_and_array_margin_agree_inside_the_bump(name):
    # the predicted-path walk reads array values where the sequential solver
    # read scalar ones, so their thresholds agree only as long as these do
    P = builtin_model(name)
    for delta in DELTAS:
        for n in N_LADDER:
            q = certified_q(P, delta, n)
            lo, hi = q.breakpoints[-2:]  # the bump's support [a - eps, a + eps]
            x = np.linspace(lo, hi, 201)
            scalar = np.array([float(q.margin(float(t))) for t in x])
            assert q.margin(x).tobytes() == scalar.tobytes(), (delta, n)


# --- the predicted path: margin calls per solve -------------------------------------


@pytest.fixture
def margin_calls(monkeypatch):
    """A list that gains one entry per DensityPair.margin call."""
    calls = []
    margin = DensityPair.margin
    monkeypatch.setattr(DensityPair, "margin",
                        lambda self, x: calls.append(1) or margin(self, x))
    return calls


def solve_calls(q, calls) -> tuple:
    """(margin calls of the bisection, threshold) when q is solved anew; the
    bracket grid's call is not counted."""
    calls.clear()
    a = replace(q).threshold
    return len(calls) - 1, a


def sequential_levels(q, calls) -> int:
    """Bisection levels of the sequential solver on q: its scalar margin
    calls, one per level, besides the bracket grid and m(lo)."""
    calls.clear()
    sequential_threshold(q)
    return len(calls) - 2


def test_secant_path_needs_few_margin_calls(levels, margin_calls):
    counts = []
    for key, q in certified_qs():
        n_calls, a = solve_calls(q, margin_calls)
        assert bits(a) == bits(q.threshold), key
        # no more calls than six levels a call would take
        assert n_calls <= math.ceil(sequential_levels(q, margin_calls) / 6), key
        counts.append(n_calls)
    assert len(counts) == 45
    # the inverse quadratic path: 2.18 calls a solve on average, at most 3
    assert np.mean(counts) <= 2.5
    assert max(counts) <= 3


def test_wrong_predictions_keep_every_bit(levels, margin_calls, monkeypatch):
    path = model._predicted_path
    for key, q in certified_qs():
        a = q.threshold

        def wrong_path(lo, hi, mlo, mhi, xc, mc):
            # a third margin equal to an end's falls back to the secant,
            # here with its root at the bracket end away from the crossing,
            # so the path turns the wrong way at its first midpoint
            return (path(lo, hi, -1.0, 0.0, xc, 0.0) if a < 0.5 * (lo + hi)
                    else path(lo, hi, 0.0, 1.0, xc, 0.0))

        monkeypatch.setattr(model, "_predicted_path", wrong_path)
        n_calls, got = solve_calls(q, margin_calls)
        assert bits(got) == bits(a), key
        # a wrong path still gains its first level each call, and the
        # tree beside it `levels` levels
        assert n_calls <= math.ceil(sequential_levels(q, margin_calls) / levels), key


# --- jets against full evaluation ---------------------------------------------------


def test_jet_equals_full_evaluation_bitwise():
    for key, q in certified_qs():
        for x in support_inputs(q):
            ders = []
            for f in (q.fplus, q.fminus):
                val, der = f.jet(x)
                want = full_eval(f, x), full_eval(f, x, der=True)
                assert np.shape(val) == np.shape(der) == np.shape(x), key
                assert array_bits(val) == array_bits(want[0]), key
                assert array_bits(der) == array_bits(want[1]), key
                ders.append(want[1])
            assert array_bits(q.margin_der(x)) == array_bits(ders[0] - ders[1]), key


# --- certificate bytes ------------------------------------------------------------


def test_certificate_grid_matches_golden_bytes():
    """The benchmark's 36 certificates (3 models x 3 deltas x n = 1e3..1e6),
    written before the fast threshold solver and the per-pair caches
    existed; the nH column since rewritten by the one-pass entropy."""
    rows = []
    for name in MODELS:
        P = builtin_model(name)
        for delta in DELTAS:
            rows.extend(certificate_sweep(P, delta=delta)[0])
    text = "".join(line + "\n" for line in certificate_csv_lines(rows))
    assert text == (DATA / "certificate_grid.csv").read_text()


def test_certificate_cli_matches_golden_bytes():
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["certificate", "--model", "canonical", "--delta", "0.05"]) == 0
    assert out.getvalue() == (DATA / "certificate_canonical_delta0.05.txt").read_text()


# --- per-pair constants -------------------------------------------------------------


def test_sweep_computes_c1_window_and_sup_grid_once_per_pair(monkeypatch):
    calls = Counter()

    def spy(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(perturbation, "_c5", spy("c1_window", perturbation._c5))
    # sup_density pads one grid per label; nothing else on this path does
    monkeypatch.setattr(model, "_padded_sup", spy("sup_grid", model._padded_sup))
    estimate_c1.cache_clear()
    for name in MODELS:
        P = builtin_model(name)
        for delta in DELTAS:
            rows, _ = certificate_sweep(P, delta=delta)
            assert len(rows) == 4
    assert calls == {"c1_window": len(MODELS), "sup_grid": 2 * len(MODELS)}


def test_cached_constants_equal_uncached_bitwise():
    phi = default_bump()
    x = np.linspace(0.0, 1.0, model._NONNEG_GRID)
    for name in MODELS:
        P = builtin_model(name)
        uncached = max(
            float(np.max(f.val(x))) + 0.5 * float(x[1] - x[0]) * float(np.max(np.abs(f.der(x))))
            for f in (P.fplus, P.fminus)
        )
        assert bits(P.sup_density()) == bits(P.sup_density()) == bits(uncached)

        c1 = estimate_c1(P, phi)
        hits = estimate_c1.cache_info().hits
        # an equal pair built anew hits the entry: the key is the value
        assert bits(estimate_c1(builtin_model(name), phi)) == bits(c1)
        assert estimate_c1.cache_info().hits == hits + 1
        assert bits(c1) == bits(estimate_c1.__wrapped__(builtin_model(name), phi))


def test_narrow_bump_does_not_hit_the_default_bump_entry():
    estimate_c1.cache_clear()
    P = builtin_model("canonical")
    wide = estimate_c1(P, default_bump())
    narrow = estimate_c1(P, CosSquaredProfile(0.5))
    info = estimate_c1.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    assert narrow < wide
    assert bits(narrow) == bits(estimate_c1.__wrapped__(P, CosSquaredProfile(0.5)))


def test_pair_with_cached_sup_pickles():
    P = builtin_model("tilted")
    x = np.linspace(0.0, 1.0, 1001)
    for pair in (P, certified_q(P, 0.05, 10 ** 4)):
        sup = pair.sup_density()
        clone = pickle.loads(pickle.dumps(pair))
        assert clone == pair and hash(clone) == hash(pair)
        assert clone.marginal == pair.marginal
        assert clone.breakpoints == pair.breakpoints
        assert bits(clone.sup_density()) == bits(sup)
        assert bits(clone.threshold) == bits(pair.threshold)
        assert clone.fsum(x).tobytes() == pair.fsum(x).tobytes()


def test_cached_names_keep_their_traceable_form():
    # the benchmark's tracer wraps DensityPair.sup_density as a plain method
    # and perturbation.estimate_c1 as a module attribute
    assert inspect.isfunction(DensityPair.__dict__["sup_density"])
    assert callable(vars(perturbation)["estimate_c1"])
