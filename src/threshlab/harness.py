"""Monte Carlo experiment driver and report emission.

Runs (estimator, n) sweeps, aggregates quantiles of the critically scaled
error n^(1/3)|a_hat - a(P)| and the mean of n^(2/3) times the excess risk,
and writes CSV / JSON / SVG reports.  Trial t at sample size n reads stream
SeedPolicy(master_seed, n * 2^64 + t) for every estimator, whichever
process scores it, so the report is byte-identical for any worker count.
The rule holds since stream_version 3; the current stream_version is 4.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import signal
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ThreshlabError
from .estimators import estimate_all, estimator_key, resolve_estimator
from .model import DensityPair, resolve_model
from .perturbation import build_certificate, default_bump
from .risk import excess_risk
from .sampling import STREAM_VERSION, SeedPolicy

__all__ = [
    "ExperimentConfig",
    "RateRow",
    "RateReport",
    "rate_sweep",
    "certificate_sweep",
    "emit_outputs",
]

# os.fork is missing on Windows and unsafe on macOS
_FORK = sys.platform == "linux"

RATES_HEADER = "model,estimator,L,n,trials,q50,q90,q95,mean_excess_scaled,seed"
CERT_HEADER = "model,delta,n,eps,c1,beta,nH,budget,sep,entropy_ok,sep_ok"


@dataclass(frozen=True)
class ExperimentConfig:
    model: str | DensityPair  # a built-in name or a pair; see resolve_model
    estimators: tuple
    n_list: tuple
    trials: int
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if any(n < 4 for n in self.n_list):
            raise ValueError("all n values must be >= 4")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for what, items in (("estimator", self.estimators), ("n", self.n_list)):
            if len(set(items)) < len(items):
                raise ValueError(f"repeated {what} {max(items, key=items.count)}")
        SeedPolicy(self.master_seed)  # the range rule of every stream
        # estimator names must resolve now, not at trial time, and no two
        # may run one estimator (twostep is twostep:L=1)
        first = {}
        for name in self.estimators:
            other = first.setdefault(estimator_key(name), name)
            if other != name:
                raise ValueError(f"estimators {other} and {name} run one "
                                 "estimator; list it once")


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


def _trial_block(P, estimators, n, start, stop, master_seed):
    """Score trials [start, stop) of one master seed at size n, each block
    drawn once for every estimator; returns [|a_hat - a(P)|, excess risk],
    two arrays of shape (estimators, trials)."""
    a_hats = estimate_all((P,), estimators, n, master_seed,
                          range(start, stop))[0]
    return [np.abs(a_hats - P.threshold), excess_risk(P, a_hats)]


def _score_share(P, pieces):
    """One share of a sweep: the _trial_block result of each piece
    (estimators, n, start, stop, master_seed), in order."""
    return [_trial_block(P, *piece) for piece in pieces]


def _run_child(P, share, write_fd, read_fds):
    """A forked child's whole life: score its share, pickle the list, or
    the exception raised, into write_fd, and _exit without returning into
    the caller's stack or flushing stdio buffers it shares with the parent."""
    code = 1
    try:
        for fd in read_fds:  # its own read end, and any earlier sibling's
            os.close(fd)
        try:
            message = _score_share(P, share)
        except BaseException as exc:  # the parent raises it
            message = exc
        with open(write_fd, "wb") as pipe:
            pickle.dump(message, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _forked_shares(P, shares):
    """_score_share of each share: one forked child per share after the
    first, each returning its result through one pipe, while this process
    scores shares[0].  Every child is reaped before this returns or raises;
    a child's exception is raised here, and if this process's own share
    raises, the children are killed."""
    children = []  # (pid, read end) of each child not yet reaped
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # say, no process ids left
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _run_child(P, share, write_fd,
                           [read_fd, *(pipe.fileno() for _, pipe in children)])
            os.close(write_fd)
            children.append((pid, open(read_fd, "rb")))
        scored = [_score_share(P, shares[0])]
        while children:
            pid, pipe = children[0]
            with pipe:  # to EOF before waitpid: a result can outgrow the pipe
                message = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            if status != 0:
                raise ThreshlabError(f"a rate_sweep worker exited with status "
                                     f"{status} before returning its share")
            value = pickle.loads(message)
            if isinstance(value, BaseException):
                raise value
            scored.append(value)
    finally:
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return scored


def rate_sweep(cfg: ExperimentConfig) -> RateReport:
    """One RateRow per (estimator, n); deterministic given master_seed.

    Each n's trials are cut into k consecutive shares, and a share's trials
    are drawn once and scored by every estimator.  On Linux k = max(1,
    min(workers, trials)): this process scores share 0 of every n while
    k - 1 forked children, started and reaped inside the call, score the
    others, one share a child, each returning it through a pipe.  Elsewhere
    k = 1 whatever workers is, and this process scores the whole sweep.
    The shares are put back in trial order, so the rows do not depend on
    the worker count.
    """
    P = resolve_model(cfg.model)
    P.marginal.envelope  # computed once here, not again in each share
    if not (cfg.estimators and cfg.n_list):
        return RateReport(rows=())
    k = max(1, min(cfg.workers, cfg.trials)) if _FORK else 1
    # trial t at size n is trial n * 2^64 + t of the master seed, for all estimators
    shares = [[(cfg.estimators, n, (n << 64) + cfg.trials * i // k,
                (n << 64) + cfg.trials * (i + 1) // k, cfg.master_seed)
               for n in cfg.n_list] for i in range(k)]
    scored = _forked_shares(P, shares)
    # scored[i][j] is share i's [errors, excess risks] at the j-th n; each
    # quantity becomes one (n, estimator, trial) array
    errs, excess = (np.concatenate([np.stack([piece[q] for piece in share])
                                    for share in scored], axis=2)
                    for q in (0, 1))
    return RateReport(rows=tuple(
        _aggregate(cfg, P.name, est, n, errs[j, e], excess[j, e])
        for e, est in enumerate(cfg.estimators)
        for j, n in enumerate(cfg.n_list)))


def _aggregate(cfg: ExperimentConfig, model_name: str, est_name: str, n: int,
               errs, excess) -> RateRow:
    """One cell's row from its trials' |a_hat - a(P)| and excess risk."""
    if len(errs):
        errs = errs * n ** (1.0 / 3.0)
        q50, q90, q95 = (float(q) for q in
                         np.quantile(errs, [0.5, 0.9, 0.95], method="linear"))
        mean_excess = float(np.mean(excess * n ** (2.0 / 3.0)))
    else:
        q50 = q90 = q95 = mean_excess = float("nan")
    return RateRow(
        model=model_name, estimator=est_name, L=resolve_estimator(est_name)[1],
        n=n, trials=cfg.trials, q50=q50, q90=q90, q95=q95,
        mean_excess_scaled=mean_excess, seed=cfg.master_seed,
    )


# --- certificate sweep --------------------------------------------------------


def certificate_sweep(P: DensityPair, delta: float = 0.05,
                      n_list=(10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)):
    """One certificate row per n under the default bump; returns (rows, n0),
    n0 the smallest n in the list with both flags true (None if never)."""
    phi = default_bump()
    rows = []
    for n in n_list:
        cert = build_certificate(P, phi, delta, n)
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
    passing = [r["n"] for r in rows if r["entropy_ok"] and r["sep_ok"]]
    return rows, min(passing, default=None)


# --- emission -----------------------------------------------------------------


def _cell(v) -> str:
    """A CSV cell: blank for None, true/false for a bool, and for a float
    its shortest round-trip decimal, deterministic across platforms."""
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def csv_lines(header: str, rows):
    """The lines of a CSV report: the header, then one line per row of
    values; every CSV report the CLI prints or writes goes through it."""
    yield header
    for row in rows:
        yield ",".join(_cell(v) for v in row)


def rates_csv_lines(report: RateReport):
    keys = RATES_HEADER.split(",")
    return csv_lines(RATES_HEADER,
                     ([getattr(r, k) for k in keys] for r in report.rows))


def certificate_csv_lines(rows):
    keys = CERT_HEADER.split(",")
    return csv_lines(CERT_HEADER, ([row[k] for k in keys] for row in rows))


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


def emit_outputs(report: RateReport, out_dir, svg: bool = False) -> list:
    """Write rates.csv, rates.json, optionally rates.svg; returns the paths."""
    # the statistics of a zero-trial row are NaN; JSON has no NaN, so null
    payload = {
        "schema_version": 2,
        "stream_version": STREAM_VERSION,
        "rows": [
            {k: None if isinstance(v, float) and math.isnan(v) else v
             for k, v in asdict(r).items()}
            for r in report.rows
        ],
    }
    texts = {
        "rates.csv": "".join(line + "\n" for line in rates_csv_lines(report)),
        "rates.json": json.dumps(payload, indent=1, sort_keys=True,
                                 allow_nan=False) + "\n",
    }
    if svg:
        texts["rates.svg"] = _svg(report)
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        paths.append(path)
    return paths
