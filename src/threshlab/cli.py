"""Command-line interface.

Subcommands: validate, sample, rates, certificate, disjunction, risk-curve.
Global flags --seed, --trials, --out, --config apply where meaningful.
Precedence is flag > config > built-in default: a flat `key = value`
config file (keys `seed`, `trials`, `model.*`) supplies values that
explicit flags override.  Exit codes: 0 ok, 1 failed verdict (`validate`
FAIL, `disjunction` VIOLATED), 2 error, reported as `error: ...`.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ThreshlabError
from .harness import (
    ExperimentConfig,
    certificate_csv_lines,
    certificate_sweep,
    csv_lines,
    emit_outputs,
    parse_config,
    rate_sweep,
)
from .lowerbound import disjunction_check
from .model import resolve_model
from .perturbation import build_certificate, default_bump
from .risk import excess_risk, prediction_error, quadratic_bounds
from .sampling import SeedPolicy, draw


def _setting(flag, cfg, key, default) -> int:
    """An integer setting: the flag if given, else the config, else default."""
    return flag if flag is not None else int(cfg.get(key, default))


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are the one line
    `error: <message>` on stderr with exit code 2, like every other error;
    subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="threshlab")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed in [0, 2^128); default: config seed, else 0")
    p.add_argument("--trials", type=int, default=None,
                   help="default: config trials, else 200")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--config", default=None, help="flat key = value file")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="per-invariant pass/fail report")
    v.add_argument("model", nargs="?", default=None)

    s = sub.add_parser("sample", help="emit CSV x,y sample")
    s.add_argument("--model", default=None)
    s.add_argument("--n", type=int, default=1000)

    r = sub.add_parser("rates", help="Monte Carlo rate sweep")
    r.add_argument("--model", default=None)
    r.add_argument("--estimators", default="erm,twostep:L=4")
    r.add_argument("--n-list", type=_int_list, default=(250, 1000, 4000))
    r.add_argument("--workers", type=int, default=1, metavar="N",
                   help="on Linux, processes, this one included, at most "
                        "max(1, min(N, trials)), each scoring a consecutive "
                        "share of every n's trials; elsewhere the sweep runs "
                        "in this one process; default 1")
    r.add_argument("--svg", action="store_true")

    c = sub.add_parser("certificate", help="two-point certificate sweep")
    c.add_argument("--model", default=None)
    c.add_argument("--delta", type=float, default=0.05)
    c.add_argument("--n-list", type=_int_list,
                   default=(10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6))

    d = sub.add_parser("disjunction", help="two-point estimator disjunction")
    d.add_argument("--model", default=None)
    d.add_argument("--delta", type=float, default=0.05)
    d.add_argument("--n", type=int, default=10 ** 4)
    d.add_argument("--estimator", default="erm")

    k = sub.add_parser("risk-curve", help="loss and excess-risk curve CSV")
    k.add_argument("--model", default=None)
    k.add_argument("--points", type=int, default=101)
    return p


def main(argv=None) -> int:
    """Run one command; returns its exit code, argparse's own (2 for a
    usage error, 0 for --help) when parsing stops early."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as stop:
        return stop.code
    try:
        cfg = parse_config(args.config) if args.config else {}
        return _dispatch(args, cfg)
    except (ThreshlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args, cfg) -> int:
    model = resolve_model(args.model, cfg)
    seed = _setting(args.seed, cfg, "seed", 0)
    trials = _setting(args.trials, cfg, "trials", 200)

    if args.command == "validate":
        report = model.validate()
        ok_all = True
        for name, (ok, detail) in report.items():
            print(f"[{'PASS' if ok else 'FAIL'}] {model.name}: {name} — {detail}")
            ok_all = ok_all and ok
        return 0 if ok_all else 1

    if args.command == "sample":
        sample = draw(model, args.n, SeedPolicy(seed))
        print(f"# model={model.name} n={args.n} seed={seed}")
        for line in csv_lines("x,y", zip(sample.x, sample.y.tolist())):
            print(line)
        return 0

    if args.command == "rates":
        exp = ExperimentConfig(
            model=model,
            estimators=tuple(args.estimators.split(",")),
            n_list=args.n_list,
            trials=trials,
            master_seed=seed,
            workers=args.workers,
        )
        report = rate_sweep(exp)
        paths = emit_outputs(report, args.out, svg=args.svg)
        for path in paths:
            print(path)
        return 0

    if args.command == "certificate":
        rows, n0 = certificate_sweep(model, args.delta, args.n_list)
        for line in certificate_csv_lines(rows):
            print(line)
        print(f"# smallest n with both flags true: {n0}")
        return 0

    if args.command == "disjunction":
        cert = build_certificate(model, default_bump(), args.delta, args.n)
        rep = disjunction_check(
            model, cert.q, args.n, cert.beta, args.delta,
            args.estimator, trials, SeedPolicy(seed),
        )
        print(f"chi-mean under P: {rep.chi_mean_p:.4f} +- {rep.stderr_p:.4f}")
        print(f"chi-mean under Q: {rep.chi_mean_q:.4f} +- {rep.stderr_q:.4f}")
        print(f"verdict: {'holds' if rep.holds else 'VIOLATED'} "
              f"(threshold 1 - delta = {1 - args.delta})")
        return 0 if rep.holds else 1

    # risk-curve, the last subcommand the parser accepts
    if args.points < 1:
        raise ValueError("--points must be >= 1")
    qb = quadratic_bounds(model)
    alphas = np.linspace(0.0, 1.0, args.points)
    gap = model.threshold - alphas
    columns = (alphas, prediction_error(model, alphas),
               excess_risk(model, alphas),
               np.minimum(qb.c9, qb.c3 * gap ** 2), qb.c10 * gap ** 2)
    for line in csv_lines("alpha,loss,excess,lower_bound,upper_bound",
                          zip(*(c.tolist() for c in columns))):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
