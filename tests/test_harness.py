"""Experiment driver: determinism, report formats, and the CLI."""

import ast
import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from threshlab import cli, errors, harness
from threshlab.harness import (
    CERT_HEADER,
    RATES_HEADER,
    ExperimentConfig,
    RateReport,
    certificate_csv_lines,
    certificate_sweep,
    emit_outputs,
    parse_config,
    rate_sweep,
    rates_csv_lines,
)
from threshlab.errors import (InvalidModel, PremiseFails, QuadratureNotConverged,
                              ThreshlabError)
from threshlab.estimators import (erm_threshold, estimate_all,
                                  resolve_estimator, two_step)
from threshlab.model import builtin_model, model_from_config, nonneg_on_grid
from threshlab.risk import excess_risk
from threshlab.sampling import SeedPolicy, draw

DATA = Path(__file__).parent / "data"


def small_config(workers=1, trials=40, model="canonical"):
    return ExperimentConfig(
        model=model,
        estimators=("erm", "twostep:L=2.0"),
        n_list=(64, 256),
        trials=trials,
        master_seed=20260823,
        workers=workers,
    )


# --- config validation ----------------------------------------------------------


def test_config_rejects_tiny_n():
    with pytest.raises(ValueError):
        ExperimentConfig(model="canonical", estimators=("erm",),
                         n_list=(2,), trials=1, master_seed=0)


def test_config_rejects_unknown_estimator():
    with pytest.raises(ValueError):
        ExperimentConfig(model="canonical", estimators=("kernel",),
                         n_list=(64,), trials=1, master_seed=0)


@pytest.mark.parametrize("workers", [0, -2])
def test_config_rejects_workers_below_one(workers):
    with pytest.raises(ValueError):
        ExperimentConfig(model="canonical", estimators=("erm",),
                         n_list=(64,), trials=1, master_seed=0,
                         workers=workers)


def test_L_column_comes_from_the_name():
    cfg = ExperimentConfig(
        model="canonical", estimators=("erm", "clock", "twostep",
                                       "twostep:L=4", "twostep:L=0.5"),
        n_list=(64,), trials=2, master_seed=0)
    assert [r.L for r in rate_sweep(cfg).rows] == [None, None, None, 4.0, 0.5]


# --- determinism -----------------------------------------------------------------


def test_sweep_is_deterministic_across_worker_counts():
    serial = rate_sweep(small_config(workers=1))
    parallel = rate_sweep(small_config(workers=8))
    assert list(rates_csv_lines(serial)) == list(rates_csv_lines(parallel))


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_reports_are_byte_identical_when_shares_are_uneven(workers, tmp_path):
    # 41 trials cut into 2, 3 or 8 shares of unequal sizes, on a built-in
    # pair and on a renamed perturbed one, whose X is drawn from its base
    bump = model_from_config({"model.family": "perturbed", "model.base": "curved",
                              "model.eps": "0.08", "model.name": "my-bump"})
    assert bump.marginal is not bump
    for i, model in enumerate(("canonical", bump)):
        paths = [emit_outputs(rate_sweep(small_config(workers=w, trials=41,
                                                      model=model)),
                              tmp_path / f"m{i}-w{w}") for w in (1, workers)]
        for serial, pooled in zip(*paths):
            assert open(serial, "rb").read() == open(pooled, "rb").read()


@pytest.fixture(autouse=True)
def deadline():
    """Fails a test here that runs over a minute, such as a sweep waiting on
    a forked child that never ends its pipe, instead of hanging the suite."""
    if sys.platform != "linux":  # a sweep forks nothing off Linux
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("the sweep waited over 60 s for its children")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    # a bare fork is no multiprocessing child, so ask the kernel
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_pooled_sweep_reaps_its_processes():
    rate_sweep(small_config(workers=2, trials=4))
    assert_no_child_left()


@pytest.fixture
def forks(monkeypatch):
    """The pid of each child that rate_sweep forks, through the real os.fork."""
    if not hasattr(os, "fork"):
        pytest.skip("no os.fork on this platform")
    pids = []

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    real_fork = os.fork
    monkeypatch.setattr(harness.os, "fork", counting_fork)
    return pids


@pytest.mark.parametrize("trials, started", [(40, [7]), (3, [2]), (1, []),
                                             (0, [])])
def test_pool_starts_at_most_one_process_per_job(trials, started, forks,
                                                 monkeypatch):
    cfg = {"model": "canonical", "estimators": ("erm",), "n_list": (64,),
           "trials": trials, "master_seed": 1}
    serial = list(rates_csv_lines(rate_sweep(ExperimentConfig(**cfg))))
    if harness._FORK:
        # this process scores one share, so k - 1 forks for k shares
        forked = rate_sweep(ExperimentConfig(**cfg, workers=8))
        assert list(rates_csv_lines(forked)) == serial
        assert len(forks) == sum(started)
        assert_no_child_left()
        forks.clear()
    # off Linux a sweep is one share, scored in this process
    monkeypatch.setattr(harness, "_FORK", False)
    report = rate_sweep(ExperimentConfig(**cfg, workers=8))
    assert list(rates_csv_lines(report)) == serial
    assert [r.trials for r in report.rows] == [trials]
    assert forks == []
    assert_no_child_left()


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("grid", [{"estimators": ()}, {"n_list": ()}])
def test_an_empty_sweep_starts_no_process(grid, workers, forks, monkeypatch):
    cfg = ExperimentConfig(**{"model": "canonical", "estimators": ("erm",),
                              "n_list": (64,), "trials": 5, "master_seed": 1,
                              "workers": workers, **grid})
    assert rate_sweep(cfg).rows == ()
    monkeypatch.setattr(harness, "_FORK", False)
    assert rate_sweep(cfg).rows == ()
    assert forks == []
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="os.fork is used on Linux only")
def test_pool_forks_its_workers_on_linux(forks):
    # each extra share is a bare os.fork, with no process pool
    rate_sweep(small_config(workers=2))
    assert len(forks) == 1
    assert_no_child_left()


@pytest.fixture
def share_hook(monkeypatch):
    """share_hook(hook) makes each _score_share call run hook(pieces) first,
    in whichever process scores that share."""
    def install(hook):
        def hooked(P, pieces):
            hook(pieces)
            return score(P, pieces)

        score = harness._score_share
        monkeypatch.setattr(harness, "_score_share", hooked)

    return install


def in_children(action):
    """A share hook that runs action() in forked children only."""
    parent = os.getpid()

    def hook(pieces):
        if os.getpid() != parent:
            action()

    return hook


@pytest.mark.skipif(sys.platform != "linux", reason="os.fork is used on Linux only")
def test_each_forked_child_scores_one_piece_per_n(share_hook, forks,
                                                  tmp_path):
    log = tmp_path / "shares.log"

    def record(pieces):
        with open(log, "a") as fh:
            fh.write(repr((os.getpid(), pieces)) + "\n")

    share_hook(record)
    rate_sweep(small_config(workers=3))
    lines = log.read_text().splitlines()
    scored = dict(ast.literal_eval(line) for line in lines)
    assert len(lines) == 3 and sorted(scored) == sorted([os.getpid(), *forks])
    for pid in forks:
        assert [piece[:2] for piece in scored[pid]] == \
            [(("erm", "twostep:L=2.0"), n) for n in (64, 256)]
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="os.fork is used on Linux only")
def test_a_childs_error_reaches_the_caller_with_its_type(share_hook):
    def fail():
        raise QuadratureNotConverged("child says no")

    share_hook(in_children(fail))
    with pytest.raises(QuadratureNotConverged, match="^child says no$"):
        rate_sweep(small_config(workers=3))
    assert_no_child_left()


def test_every_threshlab_error_survives_pickling():
    # a forked share's error crosses to the caller pickled
    for cls in vars(errors).values():
        if not (isinstance(cls, type) and issubclass(cls, ThreshlabError)):
            continue
        exc = (cls("delta", "delta=0.2 outside (0, 1/11)") if cls is PremiseFails
               else cls("says no"))
        clone = pickle.loads(pickle.dumps(exc))
        assert type(clone) is cls and str(clone) == str(exc)
        assert getattr(clone, "which", None) == getattr(exc, "which", None)


@pytest.mark.skipif(sys.platform != "linux", reason="os.fork is used on Linux only")
def test_a_child_that_dies_without_a_result_is_an_error(share_hook):
    share_hook(in_children(lambda: os._exit(3)))
    with pytest.raises(ThreshlabError, match="status 3"):
        rate_sweep(small_config(workers=2))
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="os.fork is used on Linux only")
def test_an_error_in_the_callers_share_kills_the_children(share_hook):
    parent = os.getpid()

    def hook(pieces):
        if os.getpid() == parent:
            raise InvalidModel("caller says no")
        time.sleep(60)  # unless killed

    share_hook(hook)
    start = time.monotonic()
    with pytest.raises(InvalidModel, match="^caller says no$"):
        rate_sweep(small_config(workers=3))
    assert time.monotonic() - start < 30
    assert_no_child_left()


@pytest.mark.skipif(sys.platform != "linux", reason="os.fork is used on Linux only")
def test_a_failed_fork_leaves_no_child_and_no_pipe(monkeypatch):
    # the second of two forks fails, as it would with no process ids left
    calls = []

    def fork_once():
        calls.append(None)
        if len(calls) > 1:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    real_fork = os.fork
    monkeypatch.setattr(harness.os, "fork", fork_once)
    open_fds = os.listdir("/proc/self/fd")
    with pytest.raises(BlockingIOError):
        rate_sweep(small_config(workers=3))
    assert len(calls) == 2
    assert_no_child_left()
    assert sorted(os.listdir("/proc/self/fd")) == sorted(open_fds)


def test_a_share_larger_than_the_pipe_buffer_arrives_whole(tmp_path):
    # a child's result: 2 estimators x 2 n x 2 arrays x 1500 trials x 8
    # bytes, about 96 KB, against a 64 KiB pipe buffer
    cfg = {"model": "canonical", "estimators": ("erm", "twostep"),
           "n_list": (8, 16), "trials": 3000, "master_seed": 5}
    paths = [emit_outputs(rate_sweep(ExperimentConfig(**cfg, workers=w)),
                          tmp_path / f"w{w}", svg=True) for w in (1, 2)]
    for serial, pooled in zip(*paths):
        assert open(serial, "rb").read() == open(pooled, "rb").read()
    assert_no_child_left()


def test_a_pooled_sweep_imports_no_executor_and_starts_no_thread():
    # a fresh interpreter, since this one may have imported both already
    code = """if True:
        import sys, threading
        started = []
        start = threading.Thread.start
        threading.Thread.start = lambda self: (started.append(self), start(self))
        from threshlab.harness import ExperimentConfig, rate_sweep
        rate_sweep(ExperimentConfig(model="canonical", estimators=("erm",),
                                    n_list=(64,), trials=4, master_seed=1,
                                    workers=2))
        print(sorted(m for m in ("multiprocessing", "concurrent.futures")
                     if m in sys.modules), len(started))
    """
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["[]", "0"]


def _oracle_stats(P, est, n, trials, seed):
    """A rate row's (q50, q90, q95, mean_excess_scaled) rebuilt trial by
    trial: trial t reads draw(P, n, SeedPolicy(seed, n * 2^64 + t)) and is
    scored by the one-row estimator."""
    L = resolve_estimator(est)[1]
    a_hats = []
    for t in range(trials):
        sample = draw(P, n, SeedPolicy(seed, (n << 64) + t))
        a_hats.append(erm_threshold(sample).a_hat if L is None
                      else two_step(sample, L))
    errs = np.abs(np.array(a_hats) - P.threshold) * n ** (1.0 / 3.0)
    excess = np.array([excess_risk(P, a) for a in a_hats]) * n ** (2.0 / 3.0)
    return (*np.quantile(errs, [0.5, 0.9, 0.95], method="linear"),
            np.mean(excess))


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_rate_rows_read_counter_n_2_64_plus_t_for_every_estimator(workers):
    seed, trials = 20260823, 9
    cfg = ExperimentConfig(
        model="tilted", estimators=("erm", "twostep:L=4", "twostep:L=0.5"),
        n_list=(64, 250), trials=trials, master_seed=seed, workers=workers)
    P = builtin_model("tilted")
    stats = {(r.estimator, r.n): (r.q50, r.q90, r.q95, r.mean_excess_scaled)
             for r in rate_sweep(cfg).rows}
    assert len(stats) == 6
    for (est, n), row in stats.items():
        assert row == _oracle_stats(P, est, n, trials, seed)


def test_two_spellings_of_one_estimator_read_the_same_samples():
    P = builtin_model("tilted")
    for n in (64, 250):
        (spelled,) = estimate_all((P,), ("twostep:L=4", "twostep:L=4.0"),
                                  n, 20260823, range(n << 64, (n << 64) + 9))
        assert spelled[0].tolist() == spelled[1].tolist()


def test_rates_csv_matches_golden_bytes(tmp_path, capsys):
    assert cli.main(["--seed", "7", "--trials", "20", "--out", str(tmp_path),
                     "rates", "--model", "canonical", "--estimators",
                     "erm,twostep:L=4", "--n-list", "64,256"]) == 0
    assert (tmp_path / "rates.csv").read_bytes() == \
        (DATA / "rates_canonical_seed7.csv").read_bytes()


def test_sweep_repeatable_in_process():
    a = rate_sweep(small_config())
    b = rate_sweep(small_config())
    assert a == b


def test_quantiles_are_monotone():
    for row in rate_sweep(small_config()).rows:
        assert row.q50 <= row.q90 <= row.q95


def test_rows_cover_the_grid():
    report = rate_sweep(small_config())
    keys = {(r.estimator, r.n) for r in report.rows}
    assert keys == {("erm", 64), ("erm", 256),
                    ("twostep:L=2.0", 64), ("twostep:L=2.0", 256)}
    assert all(r.trials == 40 for r in report.rows)


# --- emission ---------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    report = rate_sweep(small_config())
    paths = emit_outputs(report, tmp_path)
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    assert lines[0] == RATES_HEADER
    assert len(lines) == 1 + len(report.rows)
    cols = RATES_HEADER.split(",")
    parsed = [dict(zip(cols, line.split(","))) for line in lines[1:]]
    for row, rec in zip(report.rows, parsed):
        assert rec["model"] == row.model
        assert rec["estimator"] == row.estimator
        assert int(rec["n"]) == row.n
        assert float(rec["q50"]) == row.q50  # repr() round-trips exactly
        assert float(rec["mean_excess_scaled"]) == row.mean_excess_scaled
        assert (rec["L"] == "") == (row.L is None)
    assert str(tmp_path / "rates.csv") in paths


def test_empty_report_is_header_only(tmp_path):
    emit_outputs(RateReport(rows=()), tmp_path)
    assert (tmp_path / "rates.csv").read_text() == RATES_HEADER + "\n"


def test_json_payload_schema(tmp_path):
    report = rate_sweep(small_config())
    emit_outputs(report, tmp_path)
    payload = json.loads((tmp_path / "rates.json").read_text())
    assert payload["schema_version"] == 2
    assert payload["stream_version"] == 4
    assert len(payload["rows"]) == len(report.rows)
    first = payload["rows"][0]
    assert set(first) == set(RATES_HEADER.split(","))


def test_svg_is_wellformed_with_one_polyline_per_series(tmp_path):
    report = rate_sweep(small_config())
    emit_outputs(report, tmp_path, svg=True)
    root = ET.parse(tmp_path / "rates.svg").getroot()
    polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
    estimators = {r.estimator for r in report.rows}
    assert len(polylines) == 3 * len(estimators)  # q50 / q90 / q95 each


# --- certificate sweep -------------------------------------------------------------


def test_certificate_sweep_reports_smallest_passing_n():
    P = builtin_model("canonical")
    rows, n0 = certificate_sweep(P, 0.05, n_list=(10 ** 3, 10 ** 4))
    assert n0 == 10 ** 3
    lines = list(certificate_csv_lines(rows))
    assert lines[0] == CERT_HEADER
    assert len(lines) == 3
    assert lines[1].split(",")[-2:] == ["true", "true"]


def test_certificate_sweep_reports_smallest_passing_n_in_any_order():
    # every row passes; n0 is the smallest n, not the first in list order,
    # and the rows keep the list's order
    P = builtin_model("canonical")
    n_list = (10 ** 6, 10 ** 5, 10 ** 4, 10 ** 3)
    rows, n0 = certificate_sweep(P, 0.05, n_list=n_list)
    assert all(r["entropy_ok"] and r["sep_ok"] for r in rows)
    assert [r["n"] for r in rows] == list(n_list)
    assert n0 == 10 ** 3


# --- config file --------------------------------------------------------------------


def test_parse_config_comments_and_whitespace(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment defaults\n"
        "model.family = canonical\n"
        "trials = 12  # small smoke run\n"
        "\n"
        "seed=7\n"
    )
    cfg = parse_config(path)
    assert cfg == {"model.family": "canonical", "trials": "12", "seed": "7"}


@pytest.mark.parametrize("text, word", [
    pytest.param("trails = 5\n", "unknown config key 'trails'", id="misspelt"),
    pytest.param("model.family = canonical\nmodel.name = a,b\n",
                 "name 'a,b' contains a comma", id="comma-in-name"),
    pytest.param("model.family = canonical\nmodel.eps = 0.1\n",
                 "model.eps needs model.family = perturbed", id="eps-canonical"),
    pytest.param("model.base = tilted\n",
                 "model.base needs model.family = perturbed", id="base-no-family"),
    pytest.param("seed = 3\nseed = 9\n", "repeated config key 'seed'",
                 id="repeated-key"),
    pytest.param("model.family = tilted\nmodel.name =\n",
                 "config line without a value: model.name =", id="empty-value"),
    pytest.param("model.name = solo\n", "config is missing model.family",
                 id="name-no-family"),
    pytest.param("model.family = perturbed\nmodel.eps = 0\n",
                 "eps must be positive", id="eps-zero"),
    pytest.param("model.family = perturbed\nmodel.eps = nan\n",
                 "eps must be positive and finite, got nan", id="eps-nan"),
    pytest.param("model.family = perturbed\nmodel.eps = inf\n",
                 "eps must be positive and finite, got inf", id="eps-inf"),
])
def test_cli_rejects_bad_config(text, word, tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    assert cli.main(["--config", str(path), "validate"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {word}")


def test_parse_config_rejects_malformed_line(tmp_path):
    from threshlab.errors import ThreshlabError

    path = tmp_path / "bad.cfg"
    path.write_text("this line has no equals sign\n")
    with pytest.raises(ThreshlabError):
        parse_config(path)


# --- CLI ------------------------------------------------------------------------------


def test_cli_validate_passes_for_builtin(capsys):
    assert cli.main(["validate", "tilted"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_validate_nonneg_details_are_the_grid_min(tmp_path, capsys):
    """A nonnegativity entry prints only the grid minimum its verdict reads;
    no validate line claims a certified bound.  The config is README's."""
    path = tmp_path / "perturbed.cfg"
    path.write_text("model.family = perturbed\nmodel.base = canonical\n"
                    "model.eps = 0.1     # comments allowed\n"
                    "model.name = my-bump\ntrials = 500\nseed = 7\n")
    cases = [(["validate", name], builtin_model(name))
             for name in ("canonical", "tilted", "curved")]
    cases.append((["--config", str(path), "validate"],
                  model_from_config(parse_config(path))))
    for argv, P in cases:
        report = P.validate()
        for label in ("fplus", "fminus"):
            gmin = nonneg_on_grid(getattr(P, label))[1]
            assert report[f"nonneg_{label}"][1] == f"grid min {gmin:.3e}"
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.count(" nonneg_") == 2 and "certified" not in out


@pytest.mark.parametrize("argv, golden", [
    (["--seed", "7", "sample", "--model", "canonical", "--n", "20"],
     "sample_canonical_seed7_n20.txt"),
    (["risk-curve", "--model", "tilted", "--points", "11"],
     "risk_curve_tilted_points11.txt"),
])
def test_cli_csv_matches_golden_bytes(capsys, argv, golden):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


def test_cli_sample_emits_csv(capsys):
    assert cli.main(["--seed", "5", "sample", "--model", "canonical",
                     "--n", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# model=canonical n=10 seed=5"
    assert lines[1] == "x,y"
    assert len(lines) == 12
    x, y = lines[2].split(",")
    assert 0.0 <= float(x) <= 1.0
    assert int(y) in (-1, 1)


def test_cli_rates_writes_reports(tmp_path, capsys):
    assert cli.main(["--trials", "5", "--out", str(tmp_path),
                     "rates", "--model", "canonical",
                     "--estimators", "erm", "--n-list", "64"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(tmp_path / "rates.csv") in printed
    assert (tmp_path / "rates.json").exists()


def test_cli_certificate_prints_summary(capsys):
    assert cli.main(["certificate", "--model", "canonical",
                     "--delta", "0.05", "--n-list", "1000,10000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(CERT_HEADER)
    assert "# smallest n with both flags true: 1000" in out


def test_cli_disjunction_holds(capsys):
    assert cli.main(["--trials", "50", "--seed", "3", "disjunction",
                     "--model", "canonical", "--delta", "0.05",
                     "--n", "10000", "--estimator", "erm"]) == 0
    out = capsys.readouterr().out
    assert "verdict: holds" in out


def test_cli_disjunction_matches_golden_bytes(capsys):
    # P and Q both score trials 0..49 of master seed 3 (stream_version 4)
    assert cli.main(["--seed", "3", "--trials", "50", "disjunction",
                     "--model", "canonical", "--n", "10000",
                     "--estimator", "erm"]) == 0
    assert capsys.readouterr().out == \
        (DATA / "disjunction_canonical_seed3.txt").read_text()


def test_cli_twostep_disjunction_matches_golden_bytes(capsys):
    # the two-step estimator on the same trials: ERM on each first half,
    # then each pair's refinement on the second half
    assert cli.main(["--seed", "3", "--trials", "50", "disjunction",
                     "--model", "canonical", "--n", "10000",
                     "--estimator", "twostep:L=4"]) == 0
    assert capsys.readouterr().out == \
        (DATA / "disjunction_canonical_seed3_twostep4.txt").read_text()


def test_cli_risk_curve(capsys):
    assert cli.main(["risk-curve", "--model", "canonical",
                     "--points", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "alpha,loss,excess,lower_bound,upper_bound"
    assert len(lines) == 12
    mid = dict(zip(lines[0].split(","), lines[6].split(",")))
    assert float(mid["alpha"]) == pytest.approx(0.5)
    assert float(mid["excess"]) == pytest.approx(0.0, abs=1e-10)


def test_cli_reports_errors_cleanly(capsys):
    assert cli.main(["validate", "mystery"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_supplies_model(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("model.family = perturbed\nmodel.base = canonical\n"
                    "model.eps = 0.1\n")
    assert cli.main(["--config", str(path), "validate"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


# --- CLI precedence: flag > config > built-in default --------------------------------

PERTURBED_CFG = ("model.family = perturbed\nmodel.base = canonical\n"
                 "model.eps = 0.1\n")


def _write_cfg(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return str(path)


def _perturbed_cfg(tmp_path):
    """Path of a perturbed-model config and the name of its model."""
    path = _write_cfg(tmp_path, PERTURBED_CFG)
    name = model_from_config(parse_config(path)).name
    assert name != "canonical"
    return path, name


def test_cli_config_model_reaches_risk_curve(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "model.family = tilted\n")
    assert cli.main(["--config", cfg, "risk-curve", "--points", "1001"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    rows = [tuple(float(v) for v in line.split(",")) for line in lines]
    alpha_min = min(rows, key=lambda r: abs(r[2]))[0]
    assert alpha_min == pytest.approx((5 ** 0.5 - 1) / 2, abs=6e-4)


def test_cli_config_model_reaches_sample(tmp_path, capsys):
    cfg, name = _perturbed_cfg(tmp_path)
    assert cli.main(["--config", cfg, "sample", "--n", "3"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header == f"# model={name} n=3 seed=0"


def test_cli_config_model_labels_rates_rows(tmp_path, capsys):
    cfg, name = _perturbed_cfg(tmp_path)
    assert cli.main(["--config", cfg, "--trials", "2", "--out", str(tmp_path),
                     "rates", "--estimators", "erm", "--n-list", "64"]) == 0
    rows = (tmp_path / "rates.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [name]


def test_cli_flags_beat_config(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "trials = 3\nseed = 9\n")
    assert cli.main(["--config", cfg, "--trials", "7", "--seed", "1",
                     "--out", str(tmp_path), "rates", "--estimators", "erm",
                     "--n-list", "64"]) == 0
    cols = RATES_HEADER.split(",")
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    row = dict(zip(cols, lines[1].split(",")))
    assert (row["trials"], row["seed"]) == ("7", "1")


def test_cli_config_seed_reaches_sample(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "seed = 9\n")
    assert cli.main(["--config", cfg, "sample", "--n", "5"]) == 0
    from_config = capsys.readouterr().out
    assert from_config.startswith("# model=canonical n=5 seed=9\n")
    assert cli.main(["--seed", "9", "sample", "--n", "5"]) == 0
    assert capsys.readouterr().out == from_config


def test_cli_config_seed_and_trials_reach_disjunction(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "trials = 50\nseed = 3\n")
    assert cli.main(["--config", cfg, "disjunction"]) == 0
    from_config = capsys.readouterr().out
    outputs = []
    for flags in (["--trials", "50", "--seed", "3"],
                  ["--trials", "50", "--seed", "0"],
                  ["--trials", "25", "--seed", "3"]):
        assert cli.main(flags + ["disjunction"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == from_config
    assert from_config not in outputs[1:]


@pytest.mark.parametrize("argv", [
    ["rates", "--estimators", "kernel"],
    ["disjunction", "--n", "1000", "--estimator", "kernel"],
    ["rates", "--n-list", "2"],
    ["--trials", "-1", "rates"],
    ["--trials", "0", "disjunction"],
    ["sample", "--n", "-1"],
    ["--config", "no-such-file.cfg", "validate"],
    ["rates", "--estimators", "erm,erm", "--n-list", "8"],
    ["rates", "--estimators", "erm", "--n-list", "8,8"],
    ["certificate", "--n-list", "0"],
])
def test_cli_user_input_errors_exit_2(argv, tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path)] + argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("first, second", [
    ("twostep", "twostep:L=1"), ("twostep:L=4", "twostep:L=4.0"),
    ("twostep:L=1.0", "twostep"), ("twostep:L=0.5", "twostep:L=5e-1"),
])
def test_cli_rejects_two_names_of_one_estimator(first, second, tmp_path,
                                                capsys):
    assert cli.main(["--out", str(tmp_path), "rates", "--n-list", "8",
                     "--estimators", f"erm,{first},clock,{second}"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert f" {first} " in lines[0] and f" {second} " in lines[0]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", [
    "twostepfoo", "twostep:L=nan", "twostep:L=inf", "twostep:L=-1",
    "twostep:L=abc",
])
def test_cli_rejects_malformed_estimator_before_any_work(name, tmp_path,
                                                         capsys):
    assert cli.main(["--out", str(tmp_path), "rates", "--workers", "2",
                     "--estimators", f"erm,{name}"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_cli_rejects_workers_below_one_before_any_file(workers, tmp_path,
                                                       capsys):
    assert cli.main(["--out", str(tmp_path / "out"), "rates",
                     "--workers", workers]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("seed", [str(2 ** 128), str(2 ** 200), "-1"])
def test_cli_rates_rejects_a_seed_without_a_stream(seed, tmp_path, capsys):
    assert cli.main(["--seed", seed, "--trials", "2",
                     "--out", str(tmp_path / "out"), "rates",
                     "--estimators", "erm", "--n-list", "8"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "2^128" in lines[0]
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_cli_rates_has_no_L_list(tmp_path, capsys):
    assert cli.main(["--out", str(tmp_path / "out"), "rates",
                     "--estimators", "erm,twostep", "--L-list", "1,4"]) == 2
    assert "--L-list" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["rates", "--n-list", "1,x"],
    ["rates", "--L-list", "1,4"],
    [],
])
def test_cli_usage_errors_print_one_error_line(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "usage:" not in captured.out + captured.err


@pytest.mark.parametrize("where", ["out-is-a-file", "csv-is-a-directory"])
def test_cli_rates_write_errors_exit_2(where, tmp_path, capsys):
    out = tmp_path / "out"
    if where == "out-is-a-file":
        out.write_text("")
    else:
        (out / "rates.csv").mkdir(parents=True)
    assert cli.main(["--trials", "2", "--out", str(out), "rates",
                     "--estimators", "erm", "--n-list", "8"]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out == ""


def test_cli_help_returns_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["rates", "--help"]) == 0
    captured = capsys.readouterr()
    assert captured.out.count("usage: threshlab") == 2
    assert captured.err == ""


def test_cli_risk_curve_error_prints_nothing_to_stdout(capsys):
    assert cli.main(["risk-curve", "--points", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("points", ["0", "-3"])
def test_cli_risk_curve_rejects_fewer_than_one_point(points, capsys):
    assert cli.main(["risk-curve", "--points", points]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --points must be >= 1\n"
    assert cli.main(["risk-curve", "--points", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("0.0,")


def test_cli_rates_zero_trials_writes_valid_json(tmp_path, capsys):
    assert cli.main(["--trials", "0", "--out", str(tmp_path), "rates",
                     "--estimators", "erm", "--n-list", "64"]) == 0

    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    payload = json.loads((tmp_path / "rates.json").read_text(),
                         parse_constant=reject)
    row = payload["rows"][0]
    assert row["trials"] == 0
    assert [row[k] for k in ("q50", "q90", "q95", "mean_excess_scaled")] \
        == [None] * 4
    csv_row = (tmp_path / "rates.csv").read_text().splitlines()[1]
    assert csv_row == "canonical,erm,,64,0,nan,nan,nan,nan,0"
    # no job, so no pool: two workers write the same files
    assert cli.main(["--trials", "0", "--out", str(tmp_path / "w2"), "rates",
                     "--workers", "2", "--estimators", "erm",
                     "--n-list", "64"]) == 0
    for name in ("rates.csv", "rates.json"):
        assert (tmp_path / "w2" / name).read_bytes() == \
            (tmp_path / name).read_bytes()
