"""threshlab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) as a closed loop of passes for S
seconds from one process (rates-small-n adds 2 pool workers), checks every
pass's output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": passes, "failed": failed passes,
     "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are end to end; with --trace 1 the run spends
half its time untraced, then traces a fixed number of passes and reports
per-module metrics (tracing.py). A fuller record of the run goes to
perfbench/results/<workload>-seed<N>-trace<T>.json, and a summary to
stderr.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports, model build, ...

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 5   # fresh-process set-ups per run; setup_s is their median
TAIL_BEYOND = 10    # the tail percentile has at least this many passes beyond it
MIN_PASSES = TAIL_BEYOND + 1
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_revision():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_seconds() -> float:
    """User + sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Largest peak RSS of this process and of any reaped child (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


class Passes:
    """Outcome of a closed loop of passes."""

    def __init__(self):
        self.seconds = []     # wall time of each pass that returned
        self.cpu = []         # CPU seconds of the same passes
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, workload, indices):
        for index in indices:
            self.attempted += 1
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                out = workload.run_pass(index)
            except Exception:  # a failing pass is counted, and the loop goes on
                self.failed += 1
                self.problems.append(f"pass {index}: {traceback.format_exc()}")
                continue
            self.seconds.append(time.perf_counter() - t0)
            self.cpu.append(cpu_seconds() - cpu0)
            problems = workload.check(out)
            if problems:
                self.failed += 1
                self.problems.extend(f"pass {index}: {p}" for p in problems)
        return self

    def run_for(self, workload, seconds: float):
        """Start passes 0, 1, ... until `seconds` have passed and MIN_PASSES are done."""
        deadline = time.perf_counter() + seconds

        def indices():
            index = 0
            while index < MIN_PASSES or time.perf_counter() < deadline:
                yield index
                index += 1

        return self.run(workload, indices())

    def p50(self) -> float:
        return statistics.median(self.seconds)

    def tail(self) -> tuple:
        """(seconds, percentile, passes beyond): the highest percentile of
        pass time with TAIL_BEYOND passes above it (the max when too few)."""
        s = sorted(self.seconds)
        n = len(s)
        if n <= TAIL_BEYOND:
            return s[-1], 100.0, 0
        return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def setup_samples(workload: str, seed: int, count: int) -> list:
    """Set-up time of `count` fresh processes, each run to completion in turn."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "revision": git_revision(),
        "seed": seed,
        "blas": blas.get("name"),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, args, record: dict) -> tuple:
    passes = Passes().run_for(workload, args.seconds)
    peak = peak_rss_mib()  # before the set-up processes below are reaped
    setups = [record["setup_s_main"]] + setup_samples(
        args.workload, args.seed, SETUP_SAMPLES - 1)
    units = workload.units_per_pass
    tail_s, tail_pct, beyond = passes.tail()
    record.update(tail_percentile=tail_pct, tail_passes_beyond=beyond,
                  setup_samples_s=setups, pass_seconds=passes.seconds)
    metrics = {
        "units_per_s": metric(units / passes.p50(), "units/s"),
        "pass_p50_s": metric(passes.p50(), "s"),
        "pass_tail_s": metric(tail_s, "s"),
        "cpu_ms_per_unit": metric(
            1e3 * statistics.median(passes.cpu) / units, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak, "MiB"),
    }
    return passes, metrics


def traced(workload, args, record: dict) -> tuple:
    import tracing
    import workloads

    passes = Passes().run_for(workload, args.seconds / 2.0)
    untraced_p50 = passes.p50()
    per_call = workloads.per_call_medians(args.seed)
    print("per-call medians at n = 1e4 (ms)       this run   ROADMAP baseline",
          file=sys.stderr)
    for k, v in per_call.items():
        print(f"  {k:<36} {v:8.3f}   {workloads.BASELINE_MS[k]:8.3f}",
              file=sys.stderr)
    count = max(2, int(args.seconds) // 8)
    first = len(passes.seconds)
    with tracing.Tracer() as tracer:
        workload.setup()
        passes.run(workload, range(count))
    overhead = 1.0 - untraced_p50 / statistics.median(passes.seconds[first:])
    values = tracer.metrics(units=count * workload.units_per_pass,
                            workers=workload.workers, overhead_frac=overhead)
    record.update(traced_passes=count, per_call_ms={
        k: {"median": v, "baseline": workloads.BASELINE_MS[k]}
        for k, v in per_call.items()})
    return passes, {k: metric(v, u) for k, (v, u) in values.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print {\"setup_s\": ...} and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "threshlab" / "__init__.py").is_file():
        print(f"error: threshlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())
    workload = workloads.WORKLOADS[args.workload](args.seed, reference)
    workload.setup()
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "units_per_pass": workload.units_per_pass,
              "setup_s_main": setup_s, **environment(args.seed)}
    run = traced if args.trace else end_to_end
    passes, metrics = run(workload, args, record)
    run_problems = workload.run_checks()
    record.update(
        passes=passes.attempted, failed=passes.failed,
        failed_frac=passes.failed / passes.attempted,
        run_problems=run_problems, problems=passes.problems[:20],
        metrics=metrics)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    for line in passes.problems[:20] + run_problems:
        print(f"check failed: {line}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  passes {passes.attempted}, failed {passes.failed}, "
          f"record {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({
        "correct": passes.failed == 0 and not run_problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
