"""Regenerate perfbench/reference.json, the values the output checks compare to.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; the checks then hold
later commits to those outputs. It takes about two minutes on 2 cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from threshlab.estimators import erm_threshold  # noqa: E402
from threshlab.harness import certificate_sweep  # noqa: E402
from threshlab.lowerbound import disjunction_check  # noqa: E402
from threshlab.model import builtin_model  # noqa: E402
from threshlab.perturbation import build_certificate, default_bump  # noqa: E402
from threshlab.sampling import SeedPolicy, draw  # noqa: E402

from run import git_revision  # noqa: E402
from workloads import CertificateSweep, DisjunctionN1e4, RatesSmallN  # noqa: E402

SEED = 2007  # used by no benchmark pass: those derive 64-bit pass seeds
RATES_TRIALS = 20_000
DISJ_TRIALS = 4_000


def rates_reference() -> dict:
    P = builtin_model(RatesSmallN.MODEL)
    levels = np.round(np.arange(0.25, 0.7501, 0.0025), 4)
    out = {}
    for n in RatesSmallN.N_LIST:
        errs = np.array([abs(erm_threshold(draw(P, n, SeedPolicy(SEED + n, t))).a_hat
                             - P.threshold) for t in range(RATES_TRIALS)])
        errs *= n ** (1.0 / 3.0)
        out[f"erm_n{n}"] = {
            "trials": RATES_TRIALS,
            "levels": levels.tolist(),
            "quantiles": np.quantile(errs, levels).tolist(),
        }
    return out


def disjunction_reference() -> dict:
    w = DisjunctionN1e4
    P = builtin_model("canonical")
    cert = build_certificate(P, default_bump(), w.DELTA, w.N)
    out = {}
    for est in w.ESTIMATORS:
        rep = disjunction_check(P, cert.q, w.N, cert.beta, w.DELTA, est,
                                trials=DISJ_TRIALS, seed=SeedPolicy(SEED))
        out[est] = {"trials": DISJ_TRIALS, "chi_mean_p": rep.chi_mean_p,
                    "chi_mean_q": rep.chi_mean_q}
    return out


def certificate_reference() -> dict:
    w = CertificateSweep
    out = {}
    for model in w.MODELS:
        for delta in w.DELTAS:
            rows, _ = certificate_sweep(builtin_model(model), delta=delta,
                                        n_list=w.N_LIST)
            for row in rows:
                out[f"{model},{delta!r},{row['n']}"] = {
                    "nH": float(row["nH"]), "sep": float(row["sep"]),
                    "entropy_ok": bool(row["entropy_ok"]),
                    "sep_ok": bool(row["sep_ok"]),
                }
    return out


def main():
    ref = {
        "revision": git_revision(),
        "seed": SEED,
        "rates-small-n": rates_reference(),
        "disjunction-n1e4": disjunction_reference(),
        "certificate-sweep": certificate_reference(),
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
