"""Command-line interface.

Subcommands: validate, sample, rates, certificate, disjunction, risk-curve.
Global flags --seed, --trials, --out, --config apply where meaningful; a
flat `key = value` config file supplies defaults that explicit flags
override.
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
    emit_outputs,
    fmt_float,
    parse_config,
    rate_sweep,
)
from .lowerbound import disjunction_check
from .model import builtin_model, model_from_config
from .perturbation import build_certificate, default_bump
from .risk import excess_risk, prediction_error, quadratic_bounds
from .sampling import SeedPolicy, draw


def _resolve_model(args, cfg):
    name = getattr(args, "model", None) or cfg.get("model.family")
    if name is None:
        raise ThreshlabError("no model given (flag or config model.family)")
    if cfg.get("model.family") and (name == cfg.get("model.family")
                                    or getattr(args, "model", None) is None):
        if cfg["model.family"] == "perturbed" or "model.eps" in cfg:
            return model_from_config(cfg)
    return builtin_model(name)


def _int_list(text):
    return tuple(int(v) for v in text.split(","))


def _float_list(text):
    return tuple(float(v) for v in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="threshlab")
    p.add_argument("--seed", type=int, default=0, help="master seed (u64)")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--config", default=None, help="flat key = value file")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="per-invariant pass/fail report")
    v.add_argument("model", nargs="?", default=None)

    s = sub.add_parser("sample", help="emit CSV x,y sample")
    s.add_argument("--model", default="canonical")
    s.add_argument("--n", type=int, default=1000)

    r = sub.add_parser("rates", help="Monte Carlo rate sweep")
    r.add_argument("--model", default="canonical")
    r.add_argument("--estimators", default="erm,twostep:L=4")
    r.add_argument("--n-list", type=_int_list, default=(250, 1000, 4000))
    r.add_argument("--L-list", type=_float_list, default=())
    r.add_argument("--workers", type=int, default=1)
    r.add_argument("--svg", action="store_true")

    c = sub.add_parser("certificate", help="two-point certificate sweep")
    c.add_argument("--model", default="canonical")
    c.add_argument("--delta", type=float, default=0.05)
    c.add_argument("--n-list", type=_int_list,
                   default=(10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6))

    d = sub.add_parser("disjunction", help="two-point estimator disjunction")
    d.add_argument("--model", default="canonical")
    d.add_argument("--delta", type=float, default=0.05)
    d.add_argument("--n", type=int, default=10 ** 4)
    d.add_argument("--estimator", default="erm")

    k = sub.add_parser("risk-curve", help="loss and excess-risk curve CSV")
    k.add_argument("--model", default="canonical")
    k.add_argument("--points", type=int, default=101)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = parse_config(args.config) if args.config else {}
    try:
        return _dispatch(args, cfg)
    except ThreshlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args, cfg) -> int:
    if args.command == "validate":
        model = _resolve_model(args, cfg)
        report = model.validate()
        ok_all = True
        for name, (ok, detail) in report.items():
            print(f"[{'PASS' if ok else 'FAIL'}] {model.name}: {name} — {detail}")
            ok_all = ok_all and ok
        return 0 if ok_all else 1

    if args.command == "sample":
        model = _resolve_model(args, cfg)
        sample = draw(model, args.n, SeedPolicy(args.seed))
        print(f"# model={model.name} n={args.n} seed={args.seed}")
        print("x,y")
        for x, y in zip(sample.x, sample.y):
            print(f"{fmt_float(x)},{int(y)}")
        return 0

    if args.command == "rates":
        exp = ExperimentConfig(
            model=args.model,
            estimators=tuple(args.estimators.split(",")),
            n_list=args.n_list,
            L_list=args.L_list,
            trials=int(cfg.get("trials", args.trials)),
            master_seed=int(cfg.get("seed", args.seed)),
            workers=args.workers,
        )
        report = rate_sweep(exp)
        paths = emit_outputs(report, args.out, svg=args.svg)
        for path in paths:
            print(path)
        return 0

    if args.command == "certificate":
        model = _resolve_model(args, cfg)
        rows, n0 = certificate_sweep(model, default_bump(), args.delta,
                                     args.n_list)
        for line in certificate_csv_lines(rows):
            print(line)
        print(f"# smallest n with both flags true: {n0}")
        return 0

    if args.command == "disjunction":
        model = _resolve_model(args, cfg)
        cert = build_certificate(model, default_bump(), args.delta, args.n)
        rep = disjunction_check(
            model, cert.q, args.n, cert.beta, args.delta,
            args.estimator, args.trials, SeedPolicy(args.seed),
        )
        print(f"chi-mean under P: {rep.chi_mean_p:.4f} +- {rep.stderr_p:.4f}")
        print(f"chi-mean under Q: {rep.chi_mean_q:.4f} +- {rep.stderr_q:.4f}")
        print(f"verdict: {'holds' if rep.holds else 'VIOLATED'} "
              f"(threshold 1 - delta = {1 - args.delta})")
        return 0 if rep.holds else 1

    if args.command == "risk-curve":
        model = _resolve_model(args, cfg)
        qb = quadratic_bounds(model)
        a = model.threshold
        print("alpha,loss,excess,lower_bound,upper_bound")
        for alpha in np.linspace(0.0, 1.0, args.points):
            loss = prediction_error(model, float(alpha))
            excess = excess_risk(model, float(alpha))
            lower = min(qb.c9, qb.c3 * (a - alpha) ** 2)
            upper = qb.c10 * (a - alpha) ** 2
            print(",".join(fmt_float(v) for v in
                           (alpha, loss, excess, lower, upper)))
        return 0

    raise ThreshlabError(f"unknown command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
