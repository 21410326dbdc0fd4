"""The three benchmark workloads and their per-pass output checks.

Each workload is a closed loop of passes: a pass starts when the previous
one ends. A pass's inputs are a pure function of (workload seed, pass
index). Calls go through module attributes (`harness.rate_sweep`, ...) so
that the tracer's wrappers see them.

Checks are statistical where the output is random, so that a new
random-stream layout with the same distributions still passes:

- rates-small-n: ERM's q50 must lie inside an order-statistic band of the
  reference distribution of the scaled error (see `median_band`);
- disjunction-n1e4: each chi-mean must not sit in a binomial tail of
  probability below ALPHA under the reference mean (see `binomial_ok`).

Both tests use a per-check false-alarm rate near 1e-6, not the 0.3% of a
3-sigma band: a run makes hundreds of checks, and a clean run must report
no failed pass.
"""

from __future__ import annotations

import math
import time

import numpy as np

from threshlab import harness, lowerbound, perturbation, risk, sampling
from threshlab import divergence, estimators
from threshlab.harness import ExperimentConfig
from threshlab.model import builtin_model
from threshlab.sampling import SeedPolicy

Z = 5.0        # two-sided normal tail 5.7e-7
ALPHA = 1e-6   # one-sided exact binomial tail


def pass_seed(seed: int, index: int) -> int:
    """64-bit master seed of pass `index`, a pure function of the workload seed."""
    lo, hi = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(2)
    return int(hi) << 32 | int(lo)


# --- statistical checks ------------------------------------------------------


def median_band(levels, quantiles, trials: int, ref_trials: int) -> tuple:
    """Interval that holds the sample median of `trials` draws except with
    probability ~1e-6: the reference quantiles at levels
    0.5 -+ Z (0.5/sqrt(trials) + 0.5/sqrt(ref_trials)). The second term
    covers the reference's own Monte Carlo error."""
    w = Z * (0.5 / math.sqrt(trials) + 0.5 / math.sqrt(ref_trials))
    lo, hi = np.interp([0.5 - w, 0.5 + w], levels, quantiles)
    return float(lo), float(hi)


def _binom_tail_ge(k: int, n: int, p: float) -> float:
    return sum(math.comb(n, j) * p ** j * (1.0 - p) ** (n - j) for j in range(k, n + 1))


def binomial_ok(hits: int, trials: int, ref_mean: float, ref_trials: int) -> bool:
    """False when `hits` of `trials` lies in a binomial tail of probability
    below ALPHA for every mean within Z reference standard errors of
    `ref_mean`."""
    se = math.sqrt(max(ref_mean * (1.0 - ref_mean), 1.0 / ref_trials) / ref_trials)
    p_hi = min(1.0, ref_mean + Z * se)
    p_lo = max(0.0, ref_mean - Z * se)
    upper = _binom_tail_ge(hits, trials, p_hi)
    lower = 1.0 - _binom_tail_ge(hits + 1, trials, p_lo)
    return upper >= ALPHA and lower >= ALPHA


# --- workloads -----------------------------------------------------------------


class RatesSmallN:
    """rate_sweep on canonical, erm + twostep:L=4, n in {250, 1000}, 2 workers."""

    name = "rates-small-n"
    MODEL = "canonical"
    ESTIMATORS = ("erm", "twostep:L=4")
    N_LIST = (250, 1000)
    TRIALS = 200
    workers = 2
    units_per_pass = len(ESTIMATORS) * len(N_LIST) * TRIALS  # one unit = one trial

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference["rates-small-n"]

    def config(self, index: int, workers: int) -> ExperimentConfig:
        return ExperimentConfig(
            model=self.MODEL, estimators=self.ESTIMATORS, n_list=self.N_LIST,
            trials=self.TRIALS, master_seed=pass_seed(self.seed, index),
            workers=workers,
        )

    def setup(self):
        # a serial sweep builds the model in this process, so forked workers
        # inherit it; a pooled sweep starts the pool machinery once
        for workers in (1, self.workers):
            harness.rate_sweep(ExperimentConfig(
                model=self.MODEL, estimators=("erm",), n_list=(250,),
                trials=workers, master_seed=self.seed, workers=workers))

    def run_pass(self, index: int):
        return harness.rate_sweep(self.config(index, self.workers))

    def check(self, report) -> list:
        problems = []
        if len(report.rows) != len(self.ESTIMATORS) * len(self.N_LIST):
            return [f"{len(report.rows)} rows"]
        for r in report.rows:
            values = (r.q50, r.q90, r.q95, r.mean_excess_scaled)
            if not all(math.isfinite(v) for v in values):
                problems.append(f"{r.estimator} n={r.n}: non-finite {values}")
            elif not (r.q50 <= r.q90 <= r.q95):
                problems.append(f"{r.estimator} n={r.n}: quantiles out of order")
            if r.estimator == "erm" and math.isfinite(r.q50):
                ref = self.ref[f"erm_n{r.n}"]
                lo, hi = median_band(ref["levels"], ref["quantiles"],
                                     r.trials, ref["trials"])
                if not (lo <= r.q50 <= hi):
                    problems.append(f"erm n={r.n}: q50 {r.q50} outside [{lo}, {hi}]")
        return problems

    def run_checks(self) -> list:
        """CSV bytes at workers=2 equal those at workers=1, for pass 0's seed."""
        csv = ["\n".join(harness.rates_csv_lines(harness.rate_sweep(self.config(0, w))))
               for w in (1, self.workers)]
        return [] if csv[0] == csv[1] else ["rates CSV differs between workers=1 and 2"]


class DisjunctionN1e4:
    """disjunction_check on canonical P vs the certified Q (delta 0.05, n 1e4)."""

    name = "disjunction-n1e4"
    DELTA = 0.05
    N = 10 ** 4
    ESTIMATORS = ("erm", "twostep:L=4")
    TRIALS = 25
    workers = 1
    # one unit = one trial; each check runs TRIALS trials on P and on Q
    units_per_pass = len(ESTIMATORS) * 2 * TRIALS

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference["disjunction-n1e4"]

    def setup(self):
        self.P = builtin_model("canonical")
        self.cert = perturbation.build_certificate(
            self.P, perturbation.default_bump(), self.DELTA, self.N)

    def run_pass(self, index: int):
        policy = SeedPolicy(pass_seed(self.seed, index))
        return [lowerbound.disjunction_check(
                    self.P, self.cert.q, self.N, self.cert.beta, self.DELTA,
                    est, trials=self.TRIALS, seed=policy)
                for est in self.ESTIMATORS]

    def check(self, reports) -> list:
        problems = []
        for est, rep in zip(self.ESTIMATORS, reports):
            if not rep.holds:
                problems.append(f"{est}: disjunction does not hold")
            ref = self.ref[est]
            for label, mean in (("p", rep.chi_mean_p), ("q", rep.chi_mean_q)):
                hits = round(mean * rep.trials)
                if not binomial_ok(hits, rep.trials, ref[f"chi_mean_{label}"],
                                   ref["trials"]):
                    problems.append(f"{est}: chi_mean_{label} {mean} vs "
                                    f"reference {ref[f'chi_mean_{label}']}")
        return problems

    def run_checks(self) -> list:
        return []


class CertificateSweep:
    """certificate_sweep over 3 models x 3 deltas x n in 1e3..1e6, serially."""

    name = "certificate-sweep"
    MODELS = ("canonical", "tilted", "curved")
    DELTAS = (0.01, 0.05, 0.09)
    N_LIST = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
    SEP_RTOL = 1e-9
    workers = 1
    units_per_pass = len(MODELS) * len(DELTAS) * len(N_LIST)  # one unit = one certificate

    def __init__(self, seed: int, reference: dict):
        self.seed = seed
        self.ref = reference["certificate-sweep"]

    def setup(self):
        self.models = {name: builtin_model(name) for name in self.MODELS}

    def run_pass(self, index: int):
        """All (model, delta) sweeps in an order drawn from the pass seed."""
        rng = np.random.default_rng(pass_seed(self.seed, index))
        grid = [(m, d) for m in self.MODELS for d in self.DELTAS]
        rows = []
        for k in rng.permutation(len(grid)):
            model, delta = grid[k]
            rows.extend(harness.certificate_sweep(
                self.models[model], delta=delta, n_list=self.N_LIST)[0])
        return rows

    def check(self, rows) -> list:
        problems = []
        if len(rows) != self.units_per_pass:
            return [f"{len(rows)} rows"]
        tol = 2.0 * divergence.QuadratureSpec().tol  # two label integrals
        for row in rows:
            key = f"{row['model']},{row['delta']!r},{row['n']}"
            ref = self.ref[key]
            if (row["entropy_ok"], row["sep_ok"]) != (ref["entropy_ok"], ref["sep_ok"]):
                problems.append(f"{key}: flags differ from the reference")
            if abs(row["nH"] - ref["nH"]) > row["n"] * tol:
                problems.append(f"{key}: nH {row['nH']!r} vs {ref['nH']!r}")
            if abs(row["sep"] - ref["sep"]) > self.SEP_RTOL * abs(ref["sep"]):
                problems.append(f"{key}: sep {row['sep']!r} vs {ref['sep']!r}")
        return problems

    def run_checks(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (RatesSmallN, DisjunctionN1e4, CertificateSweep)}


# --- per-call medians at n = 1e4 (informational) -------------------------------

# ROADMAP baseline, ms per call: single runs on 2 cores, Python 3.11.7, numpy 2.4.6
BASELINE_MS = {
    "draw P": 1.1, "draw Q": 4.7, "erm_threshold": 1.3, "two_step": 0.8,
    "excess_risk P": 0.1, "excess_risk Q": 1.6, "relative_entropy(P, Q)": 14.0,
}


def per_call_medians(seed: int, repeats: int = 15) -> dict:
    """Median ms per call at n = 1e4 for the calls in BASELINE_MS."""
    P = builtin_model("canonical")
    Q = perturbation.build_certificate(P, perturbation.default_bump(), 0.05, 10 ** 4).q
    n = 10 ** 4
    sP = sampling.draw(P, n, SeedPolicy(seed, 0))
    sQ = sampling.draw(Q, n, SeedPolicy(seed, 1))
    aP = estimators.erm_threshold(sP).a_hat
    aQ = estimators.erm_threshold(sQ).a_hat
    calls = {
        "draw P": lambda i: sampling.draw(P, n, SeedPolicy(seed, i)),
        "draw Q": lambda i: sampling.draw(Q, n, SeedPolicy(seed, i)),
        "erm_threshold": lambda i: estimators.erm_threshold(sP),
        "two_step": lambda i: estimators.two_step(sP, 4.0),
        "excess_risk P": lambda i: risk.excess_risk(P, aP),
        "excess_risk Q": lambda i: risk.excess_risk(Q, aQ),
        "relative_entropy(P, Q)": lambda i: divergence.relative_entropy(P, Q),
    }
    out = {}
    for name, call in calls.items():
        times = []
        for i in range(repeats):
            t0 = time.perf_counter()
            call(i)
            times.append(time.perf_counter() - t0)
        out[name] = 1e3 * float(np.median(times))
    return out
