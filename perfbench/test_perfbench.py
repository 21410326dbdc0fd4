"""Self-tests of the benchmark: python3 -m pytest perfbench -q (about two minutes)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def bench(cwd: Path, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=300)


def short_run(workload: str, trace: int) -> dict:
    proc = bench(ROOT, "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {w: short_run(w, 1) for w in NAMES}


@pytest.mark.parametrize("workload", NAMES)
def test_short_mode_emits_every_end_to_end_metric(workload):
    result = short_run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_per_layer_metric(workload, traced_runs):
    result = traced_runs[workload]
    assert result["correct"] and result["failed"] == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_traced_run_collects_pool_worker_spans(traced_runs):
    m = traced_runs["rates-small-n"]["metrics"]
    # every draw runs in a pool worker, apart from set-up's serial warm-up
    assert m["sampling.draw.calls"]["value"] > 2 * workloads.RatesSmallN.units_per_pass
    assert m["harness.pool_busy_frac"]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_one_seed(workload, traced_runs):
    again = short_run(workload, 1)["metrics"]
    first = traced_runs[workload]["metrics"]
    counts = {k for k, m in first.items() if m["unit"] == "count"}
    assert counts
    assert {k: first[k] for k in counts} == {k: again[k] for k in counts}


def corrupt_rates(report):
    rows = list(report.rows)
    rows[0] = dataclasses.replace(rows[0], q50=rows[0].q95 + 1.0)
    return dataclasses.replace(report, rows=tuple(rows))


def corrupt_disjunction(reports):
    return [dataclasses.replace(reports[0], chi_mean_q=1.0), *reports[1:]]


def corrupt_certificate(rows):
    rows = [dict(r) for r in rows]
    rows[0]["entropy_ok"] = not rows[0]["entropy_ok"]
    return rows


@pytest.mark.parametrize("cls, corrupt", [
    (workloads.RatesSmallN, corrupt_rates),
    (workloads.DisjunctionN1e4, corrupt_disjunction),
    (workloads.CertificateSweep, corrupt_certificate),
])
def test_corrupted_pass_counts_as_failed(cls, corrupt, monkeypatch):
    workload = cls(SEED, REFERENCE)
    workload.setup()
    honest = workload.run_pass
    monkeypatch.setattr(workload, "run_pass",
                        lambda i: corrupt(honest(i)) if i == 1 else honest(i))
    passes = run.Passes().run(workload, range(3))
    assert (passes.attempted, passes.failed) == (3, 1)
    assert passes.problems and passes.problems[0].startswith("pass 1:")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(tmp_path, "--workload", NAMES[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_median_band_and_binomial_tail():
    levels = [0.0, 0.5, 1.0]
    lo, hi = workloads.median_band(levels, [0.0, 1.0, 2.0], trials=100,
                                   ref_trials=10 ** 12)
    assert lo == pytest.approx(0.5, abs=1e-4) and hi == pytest.approx(1.5, abs=1e-4)
    assert workloads.binomial_ok(1, 25, 0.04, 4000)
    assert not workloads.binomial_ok(20, 25, 0.04, 4000)
    assert not workloads.binomial_ok(0, 25, 0.9, 4000)
