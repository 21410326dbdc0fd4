"""Monte Carlo experiment driver and report emission.

Runs (estimator, n) sweeps with pre-assigned per-trial seeds, aggregates
quantiles of the critically scaled error n^(1/3)|a_hat - a(P)| and the mean
of n^(2/3) times the excess risk, and writes CSV / JSON / SVG reports.
Aggregation is keyed by trial index, so the report is byte-identical for
any worker count.
"""

from __future__ import annotations

import concurrent.futures
import functools
import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .divergence import QuadratureSpec
from .errors import ThreshlabError
from .estimators import resolve_estimator
from .model import DensityPair, builtin_model, model_from_config
from .perturbation import build_certificate, default_bump
from .risk import excess_risk
from .sampling import SeedPolicy, draw

__all__ = [
    "ExperimentConfig",
    "RateRow",
    "RateReport",
    "rate_sweep",
    "certificate_sweep",
    "emit_outputs",
    "parse_config",
]

RATES_HEADER = "model,estimator,L,n,trials,q50,q90,q95,mean_excess_scaled,seed"
CERT_HEADER = "model,delta,n,eps,c1,beta,nH,budget,sep,entropy_ok,sep_ok"


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    estimators: tuple
    n_list: tuple
    trials: int
    master_seed: int
    L_list: tuple = ()
    workers: int = 1

    def __post_init__(self):
        if any(n < 4 for n in self.n_list):
            raise ValueError("all n values must be >= 4")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        # estimator names must resolve now, not at trial time
        for name in self.expanded_estimators():
            resolve_estimator(name)

    def expanded_estimators(self) -> tuple:
        """Cross bare "twostep" with the L list; leave explicit names alone."""
        out = []
        for name in self.estimators:
            if name == "twostep" and self.L_list:
                out.extend(f"twostep:L={fmt_float(L)}" for L in self.L_list)
            else:
                out.append(name)
        return tuple(out)


@dataclass(frozen=True)
class RateRow:
    model: str
    estimator: str
    L: float | None
    n: int
    trials: int
    q50: float
    q90: float
    q95: float
    mean_excess_scaled: float
    seed: int


@dataclass(frozen=True)
class RateReport:
    rows: tuple


def fmt_float(v: float) -> str:
    """Shortest round-trip decimal; deterministic across platforms."""
    return repr(float(v))


def _estimator_L(name: str) -> float | None:
    if name.startswith("twostep:"):
        return float(name.partition("=")[2])
    return None


@functools.lru_cache(maxsize=32)
def _build_model(spec) -> DensityPair:
    if isinstance(spec, str):
        return builtin_model(spec)
    return model_from_config(dict(spec))


def _stream_master(master_seed: int, est_name: str, n: int) -> int:
    """64-bit stream seed, a pure function of (master_seed, estimator, n)."""
    est_id = zlib.crc32(est_name.encode())
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(est_id, n))
    lo, hi = ss.generate_state(2)
    return int(hi) << 32 | int(lo)


def _trial_block(model_spec, est_name, n, start, stop, stream_master):
    """Run trials [start, stop); returns [(trial, abs_err, excess)]."""
    P = _build_model(model_spec)
    est = resolve_estimator(est_name)
    a = P.threshold
    out = []
    for trial in range(start, stop):
        s = draw(P, n, SeedPolicy(stream_master, trial))
        a_hat = est(s)
        out.append((trial, abs(a_hat - a), excess_risk(P, a_hat)))
    return out


def rate_sweep(cfg: ExperimentConfig, model_spec=None) -> RateReport:
    """One RateRow per (estimator, n); deterministic given master_seed."""
    spec = model_spec if model_spec is not None else cfg.model
    rows = []
    with _executor(cfg.workers) as pool:
        for est_name in cfg.expanded_estimators():
            for n in cfg.n_list:
                stream = _stream_master(cfg.master_seed, est_name, n)
                results = [None] * cfg.trials
                chunk = max(1, math.ceil(cfg.trials / max(cfg.workers * 4, 1)))
                futures = [
                    pool.submit(_trial_block, spec, est_name, n,
                                lo, min(lo + chunk, cfg.trials), stream)
                    for lo in range(0, cfg.trials, chunk)
                ]
                for fut in concurrent.futures.as_completed(futures):
                    for trial, err, excess in fut.result():
                        results[trial] = (err, excess)
                rows.append(_aggregate(cfg, est_name, n, results))
    return RateReport(rows=tuple(rows))


def _aggregate(cfg: ExperimentConfig, est_name: str, n: int, results) -> RateRow:
    scale = n ** (1.0 / 3.0)
    if results:
        errs = np.array([r[0] for r in results]) * scale
        excess = np.array([r[1] for r in results]) * n ** (2.0 / 3.0)
        q50, q90, q95 = (float(q) for q in
                         np.quantile(errs, [0.5, 0.9, 0.95], method="linear"))
        mean_excess = float(np.mean(excess))
    else:
        q50 = q90 = q95 = mean_excess = float("nan")
    return RateRow(
        model=cfg.model, estimator=est_name, L=_estimator_L(est_name),
        n=n, trials=cfg.trials, q50=q50, q90=q90, q95=q95,
        mean_excess_scaled=mean_excess, seed=cfg.master_seed,
    )


class _SerialExecutor:
    def submit(self, fn, *args):
        fut = concurrent.futures.Future()
        try:
            fut.set_result(fn(*args))
        except BaseException as exc:  # propagate via the future, like a pool
            fut.set_exception(exc)
        return fut

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _executor(workers: int):
    if workers <= 1:
        return _SerialExecutor()
    return concurrent.futures.ProcessPoolExecutor(max_workers=workers)


# --- certificate sweep --------------------------------------------------------


def certificate_sweep(P: DensityPair, phi=None, delta: float = 0.05,
                      n_list=(10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6),
                      spec: QuadratureSpec = QuadratureSpec()):
    """One certificate row per n; returns (rows, n0) where n0 is the smallest
    n in the list with both flags true (None if never)."""
    if phi is None:
        phi = default_bump()
    rows = []
    n0 = None
    for n in n_list:
        cert = build_certificate(P, phi, delta, n, spec)
        rows.append({
            "model": P.name,
            "delta": delta,
            "n": n,
            "eps": cert.plan.eps,
            "c1": cert.c1,
            "beta": cert.beta,
            "nH": n * cert.entropy,
            "budget": cert.entropy_budget,
            "sep": cert.separation,
            "entropy_ok": cert.entropy_ok,
            "sep_ok": cert.separation_ok,
        })
        if n0 is None and cert.entropy_ok and cert.separation_ok:
            n0 = n
    return rows, n0


# --- emission -----------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return fmt_float(v)
    return str(v)


def rates_csv_lines(report: RateReport):
    yield RATES_HEADER
    for r in report.rows:
        yield ",".join(_cell(v) for v in (
            r.model, r.estimator, r.L, r.n, r.trials,
            r.q50, r.q90, r.q95, r.mean_excess_scaled, r.seed,
        ))


def certificate_csv_lines(rows):
    yield CERT_HEADER
    keys = CERT_HEADER.split(",")
    for row in rows:
        yield ",".join(_cell(row[k]) for k in keys)


def _svg(report: RateReport) -> str:
    """Static quantile plot: one polyline per (estimator, quantile),
    fixed 800x500 viewport, log10-x axis."""
    width, height = 800, 500
    pad = 60
    rows = [r for r in report.rows if r.trials > 0]
    pieces = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if rows:
        xs = [math.log10(r.n) for r in rows]
        ys = [v for r in rows for v in (r.q50, r.q90, r.q95)]
        xlo, xhi = min(xs), max(xs)
        ylo, yhi = min(ys), max(ys)
        xspan = (xhi - xlo) or 1.0
        yspan = (yhi - ylo) or 1.0

        def px(logn):
            return pad + (logn - xlo) / xspan * (width - 2 * pad)

        def py(v):
            return height - pad - (v - ylo) / yspan * (height - 2 * pad)

        colors = {"q50": "#1f77b4", "q90": "#ff7f0e", "q95": "#d62728"}
        for est in sorted({r.estimator for r in rows}):
            sub = sorted((r for r in rows if r.estimator == est),
                         key=lambda r: r.n)
            for quant in ("q50", "q90", "q95"):
                pts = " ".join(
                    f"{px(math.log10(r.n)):.2f},{py(getattr(r, quant)):.2f}"
                    for r in sub
                )
                pieces.append(
                    f'<polyline fill="none" stroke="{colors[quant]}" '
                    f'stroke-width="1.5" points="{pts}">'
                    f"<title>{est} {quant}</title></polyline>"
                )
    pieces.append("</svg>")
    return "\n".join(pieces)


def emit_outputs(report: RateReport, out_dir, basename: str = "rates",
                 svg: bool = False) -> list:
    """Write <basename>.csv, .json, and optionally .svg; returns the paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    csv_path = os.path.join(out_dir, f"{basename}.csv")
    try:
        with open(csv_path, "w") as fh:
            for line in rates_csv_lines(report):
                fh.write(line + "\n")
    except OSError as exc:
        raise ThreshlabError(f"cannot write {csv_path}: {exc}") from exc
    paths.append(csv_path)
    json_path = os.path.join(out_dir, f"{basename}.json")
    payload = {
        "schema_version": 1,
        "rows": [
            {
                "model": r.model, "estimator": r.estimator, "L": r.L,
                "n": r.n, "trials": r.trials, "q50": r.q50, "q90": r.q90,
                "q95": r.q95, "mean_excess_scaled": r.mean_excess_scaled,
                "seed": r.seed,
            }
            for r in report.rows
        ],
    }
    with open(json_path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    paths.append(json_path)
    if svg:
        svg_path = os.path.join(out_dir, f"{basename}.svg")
        with open(svg_path, "w") as fh:
            fh.write(_svg(report))
        paths.append(svg_path)
    return paths


# --- flat key = value config ---------------------------------------------------


def parse_config(path) -> dict:
    """Flat `key = value` text; '#' starts a comment; values stay strings."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ThreshlabError(f"malformed config line: {raw.rstrip()}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out
