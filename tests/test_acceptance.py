"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Each
test is self-contained and states its tolerance inline.
"""

import math

import numpy as np
import pytest

from threshlab.divergence import QuadratureSpec, adaptive_simpson, relative_entropy
from threshlab.estimators import clock_estimator, erm_threshold, two_step
from threshlab.harness import ExperimentConfig, rate_sweep, rates_csv_lines
from threshlab.lowerbound import (
    FiniteModel,
    GeneralLossSetup,
    disjunction_check,
    lemma21_check,
    lemma71_check,
)
from threshlab.model import builtin_model, builtin_models
from threshlab.perturbation import (
    build_certificate,
    default_bump,
    estimate_c1,
    make_plan,
    perturb,
)
from threshlab.risk import excess_risk, quadratic_bounds
from threshlab.sampling import LabeledSample, SeedPolicy, draw


def report(number, label, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:>2}: {label}"
          f"{' — ' + detail if detail else ''}")
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_01_perturbation_identities():
    bump = default_bump()
    x = np.linspace(0.0, 1.0, 10_000)
    worst_sum = 0.0
    worst_mass = 0.0
    for P in builtin_models():
        for eps in (0.04, 0.08, 0.16):
            q = perturb(P, bump, eps)
            worst_sum = max(worst_sum,
                            float(np.max(np.abs(q.fsum(x) - P.fsum(x)))))
            total, _ = adaptive_simpson(q.fsum, 0.0, 1.0,
                                        QuadratureSpec(tol=1e-10),
                                        q.breakpoints)
            worst_mass = max(worst_mass, abs(total - 1.0))
    report(1, "sum preservation and unit mass of the perturbed pair",
           worst_sum <= 1e-12 and worst_mass <= 1e-8,
           f"max sum gap {worst_sum:.2e}, max mass gap {worst_mass:.2e}")


def test_criterion_02_entropy_budget():
    bump = default_bump()
    worst_slack = -math.inf
    worst_design = 0.0
    for P in builtin_models():
        fsup = P.sup_density()
        for delta in (0.01, 0.05, 0.09):
            budget = 0.5 * abs(math.log(11.0 * delta))
            for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
                plan = make_plan(P, bump, delta, n)
                q = perturb(P, bump, plan.eps)
                nh = n * relative_entropy(P, q, QuadratureSpec(tol=1e-12))
                worst_slack = max(worst_slack, nh - budget)
                design = 0.5 * fsup * bump.l2sq * n * plan.eps ** 3
                worst_design = max(worst_design, abs(design - budget))
    report(2, "entropy stays within the budget; design identity exact",
           worst_slack <= 1e-8 and worst_design <= 1e-10,
           f"max nH - budget = {worst_slack:.3e}, "
           f"design identity gap {worst_design:.2e}")


def test_criterion_03_separation():
    bump = default_bump()
    ok = True
    details = []
    for name in ("canonical", "tilted"):
        P = builtin_model(name)
        n0 = None
        for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            cert = build_certificate(P, bump, 0.05, n)
            if cert.separation_ok:
                if n0 is None:
                    n0 = n
            else:
                n0 = None  # must hold for all n >= n0
        ok = ok and n0 is not None and n0 <= 10 ** 6
        details.append(f"{name}: n0={n0}")
    report(3, "beta |a(P) - a(Q)| > 4 from a reported n0 on",
           ok, "; ".join(details))


def test_criterion_04_entropy_filter_fuzz():
    rng = np.random.default_rng(20070501)
    violations = 0
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        q = 0.99 * q + 0.01 / k
        q = q / q.sum()
        m = FiniteModel(p=tuple(p), q=tuple(q))
        _, _, holds = lemma21_check(m, tuple(rng.random(k)))
        violations += 0 if holds else 1
    report(4, "expectation filter holds on 10^4 random finite models",
           violations == 0, f"{violations} violations")


def test_criterion_05_general_loss_fuzz():
    rng = np.random.default_rng(20070502)
    violations = 0
    count = 0
    while count < 10_000:
        k = int(rng.integers(2, 5))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        q = 0.99 * q + 0.01 / k
        q = q / q.sum()
        hyp = int(rng.integers(2, 5))
        loss_p = tuple(rng.random(hyp))
        loss_q = tuple(rng.random(hyp))
        dp = [v - min(loss_p) for v in loss_p]
        dq = [v - min(loss_q) for v in loss_q]
        floor = min(a + b for a, b in zip(dp, dq))
        if floor <= 1e-9:
            continue  # inadmissible draw; resample
        setup = GeneralLossSetup(
            model=FiniteModel(p=tuple(p), q=tuple(q)),
            loss_p=loss_p, loss_q=loss_q,
            gamma=floor * float(rng.uniform(0.1, 1.0)),
        )
        n = int(rng.integers(1, 4))
        rule = rng.integers(0, hyp, size=k ** n)
        delta = float(rng.uniform(0.01, 0.49))
        _, _, holds = lemma71_check(setup, n, delta, rule.tolist())
        violations += 0 if holds else 1
        count += 1
    report(5, "general-loss disjunction holds on 10^4 admissible setups",
           violations == 0, f"{violations} violations in {count} setups")


def test_criterion_06_disjunction_monte_carlo():
    P = builtin_model("canonical")
    cert = build_certificate(P, default_bump(), 0.05, 10 ** 4)
    ok = True
    details = []
    for est in ("erm", "twostep:L=4"):
        rep = disjunction_check(P, cert.q, 10 ** 4, cert.beta, 0.05,
                                est, trials=2000, seed=SeedPolicy(60601))
        ok = ok and rep.holds
        details.append(
            f"{est}: chi-means ({rep.chi_mean_p:.3f}, {rep.chi_mean_q:.3f})"
        )
    report(6, "every estimator misses one threshold of the certified pair",
           ok, "; ".join(details))


def test_criterion_07_erm_oracle():
    rng = np.random.default_rng(20070507)
    a_grid = np.linspace(0.0, 1.0, 10_001)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 13))
        xs = rng.random(k)
        ys = rng.choice([-1, 1], size=k)
        r = erm_threshold(LabeledSample(x=xs, y=ys.astype(np.int8), seed=0))
        order = np.argsort(xs, kind="stable")
        sx, sy = xs[order], ys[order]
        plus_prefix = np.concatenate(([0], np.cumsum(sy == 1)))
        minus_prefix = np.concatenate(([0], np.cumsum(sy == -1)))
        i = np.searchsorted(sx, a_grid, side="left")
        best = int(np.min(plus_prefix[i] + minus_prefix[-1] - minus_prefix[i]))
        mismatches += 0 if r.min_errors == best else 1
    report(7, "ERM error count equals the 10^4-point grid minimum",
           mismatches == 0, f"{mismatches} mismatches in 1000 samples")


def _sweep(estimators, n_list, trials=2000, L_list=()):
    cfg = ExperimentConfig(
        model="canonical", estimators=estimators, n_list=n_list,
        trials=trials, master_seed=92507, L_list=L_list, workers=8,
    )
    return rate_sweep(cfg)


def test_criterion_08_cube_root_tightness():
    rows = _sweep(("erm",), (250, 1000, 4000)).rows
    medians = [r.q50 for r in rows]
    ratio = max(medians) / min(medians)
    report(8, "scaled ERM error median is stable across n",
           ratio <= 2.0,
           "medians " + ", ".join(f"{m:.3f}" for m in medians)
           + f"; ratio {ratio:.2f}")


def test_criterion_09_window_width_improvement():
    P = builtin_model("canonical")
    a = P.threshold
    n, trials = 4000, 2000
    scale = n ** (1.0 / 3.0)
    tails = {}
    for L in (1.0, 8.0):
        hits = 0
        for t in range(trials):
            s = draw(P, n, SeedPolicy(11083, t))
            a_hat = two_step(s, L)
            hits += int(scale * abs(a_hat - a) > 2.0)
        tails[L] = hits / trials
    report(9, "wider refinement window does not inflate the error tail",
           tails[8.0] <= tails[1.0] + 0.02,
           f"P(scaled err > 2): L=1 -> {tails[1.0]:.4f}, "
           f"L=8 -> {tails[8.0]:.4f}")


def test_criterion_10_excess_risk_scaling():
    rows = _sweep(("twostep:L=4",), (250, 1000, 4000)).rows
    means = [r.mean_excess_scaled for r in rows]
    ratio = max(means) / min(means)
    report(10, "scaled two-step excess risk is bounded across n",
           ratio <= 3.0,
           "means " + ", ".join(f"{m:.4f}" for m in means)
           + f"; ratio {ratio:.2f}")


def test_criterion_11_quadratic_sandwich():
    ok = True
    worst = ""
    for P in builtin_models():
        qb = quadratic_bounds(P)
        a = P.threshold
        for alpha in np.linspace(0.0, 1.0, 101):
            e = excess_risk(P, float(alpha))
            lower = min(qb.c9, qb.c3 * (a - alpha) ** 2)
            upper = qb.c10 * (a - alpha) ** 2
            if not (lower <= e + 1e-8 and e <= upper + 1e-8):
                ok = False
                worst = f"{P.name} at alpha={alpha:.2f}"
    exact = max(
        abs(excess_risk(builtin_model("canonical"), float(al))
            - (al - 0.5) ** 2)
        for al in np.linspace(0.0, 1.0, 101)
    )
    report(11, "excess risk sits between the local quadratics",
           ok and exact <= 1e-10,
           worst or f"canonical exactness gap {exact:.2e}")


def test_criterion_12_clock_sweep():
    ok = True
    for k in range(0, 21):
        lo = 1 << k
        n = np.arange(lo, 2 * lo)
        vals = (n - lo) / lo
        for a in np.round(np.arange(0.0, 1.01, 0.1), 10):
            if not np.any(np.abs(vals - a) <= 2.0 / n + 1e-12):
                ok = False
    report(12, "deterministic clock passes within 2/n of every level",
           ok)


def test_criterion_13_determinism():
    def run(workers):
        cfg = ExperimentConfig(
            model="canonical", estimators=("erm", "twostep:L=2.0"),
            n_list=(64, 256), trials=50, master_seed=77, workers=workers,
        )
        return list(rates_csv_lines(rate_sweep(cfg)))

    same = run(1) == run(8)
    report(13, "rate reports are byte-identical for 1 and 8 workers", same)
