"""The ``tpm-lab`` command-line contract, one table row per check.

A row is a config, the argv and the exit code. It runs through
``cli.main`` with every warning an error: a numpy RuntimeWarning would
print outside the log format. A fresh process runs only what a process
measures of itself: a wall-time limit, the CPUs it runs on, its peak RSS.
Re-record the reports in tests/data after an intended change with
``OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m tests.test_console``,
and review the diff.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from perfbench import oracle, workloads
from tpm_lab import cli

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
DATA_DIR = Path(__file__).resolve().parent / "data"


def haar(dim: int, name: str = "haar_d{}", channel: dict | None = None,
         scale: float = 0.1, **overrides) -> dict:
    """A Gibbs scenario of two random Hamiltonians and a Haar channel."""
    h = {"kind": "random", "scale": scale}
    return {"name": name.format(dim), "dim": dim, "beta": 1.0, **overrides,
            "initial": {"kind": "gibbs"}, "first_hamiltonian": h,
            "channel": channel or {"kind": "haar_random"},
            "second_hamiltonian": h}


def row(name, config, argv: str, code, limit=None):
    # --config follows the command, argv's first word. A row with a
    # wall-time limit, in seconds, runs in a child process.
    return pytest.param(config, argv.split(), code, limit, id=name)


ROWS = [
    *(row(f"help-{command}", None, f"{command} --help", 0)
      for command in ("verify", "jarzynski", "sweep", "sample")),
    # A bookkeeping residual of 2.2e−16 passes the engine's 1e−10 and
    # fails a tighter verdict: exit 1, with a FAIL line naming the tol.
    row("verify-tol-below-residual", haar(3, scale=0.125, seed=5),
        "verify --tol 1e-16", 1),
    # Depolarizing is one Kraus operator plus a replacement weight.
    row("depolarizing-d128", haar(128, "depolarizing_d{}", channel={
        "kind": "depolarizing", "p": 0.3}), "jarzynski", 0, limit=60),
    # One Gram-matrix test accepts each measurement.
    row("haar-d256", haar(256), "verify", 0, limit=60),
    # Gibbs weights kept in the measured basis pass at β·spread = 30.0.
    row("haar-scale1-d64", haar(64, "haar_scale1_d{}", scale=1.0, seed=3),
        "jarzynski", 0, limit=60),
    row("full-support-sample-1e6", "random_full_support",
        "sample --count 1000000 --weight work", 0, limit=60),
    # Guide tables of 2^16 buckets for the first stage, 128 x 4096 for
    # the second.
    row("haar-d128-sample-1e6", haar(128),
        "sample --count 1000000 --weight mi", 0, limit=60),
    # The draw counts a block of 2^16 draws at a time.
    row("haar-d16-sample-1e7", haar(16),
        "sample --count 10000000 --weight mi", 0, limit=60),
]


def config_path(directory: Path, config, name: str = "config.json"):
    """``--config`` for a shipped scenario's name, or for a dict written to
    ``directory``."""
    if config is None or isinstance(config, str):
        return config and str(SCENARIO_DIR / f"{config}.json")
    path = directory / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def with_config(argv: list[str], config: str | None) -> list[str]:
    command, *options = argv
    return [command, *(["--config", config] if config else []), *options]


def run_main(capsys, caplog, argv):
    """Exit code, stdout and log lines of ``cli.main(argv)``."""
    caplog.clear()
    with caplog.at_level("INFO", logger="tpm_lab"):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    messages = [record.getMessage() for record in caplog.records]
    return code, capsys.readouterr().out, messages


CHILD_ENV = {**os.environ,
             "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
# Children run two at a time. OpenBLAS threads wait for work by spinning,
# so two d ≥ 128 children each on a thread per CPU run ten times slower:
# those with a time limit run with BLAS on one thread.
ONE_BLAS_THREAD = {**CHILD_ENV, "OPENBLAS_NUM_THREADS": "1"}
# Every CPU this process may use (None), its first one and its first two.
CPUS = sorted(os.sched_getaffinity(0))
CPU_SETS = (None, set(CPUS[:1]), set(CPUS[:2]))
# Run as ``python -c``: its last stderr line is its own peak RSS in KiB.
PEAK_RSS = ("import resource, sys; from tpm_lab.cli import main; "
            "status = main(sys.argv[1:]); sys.stdout.flush(); "
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "
            "file=sys.stderr); sys.exit(status)")


def child(args, env=CHILD_ENV, timeout=None, cpus=None):
    """``python args`` in a fresh process, pinned to ``cpus`` if given."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=timeout, preexec_fn=cpus and (
            lambda: os.sched_setaffinity(0, cpus)))


@pytest.fixture(scope="module")
def spawned(tmp_path_factory):
    """Every child process of this module, by key, run two at a time when
    the first test that reads one starts. Nothing else runs meanwhile: a
    fork while this process is inside a BLAS call can deadlock it."""
    tmp = tmp_path_factory.mktemp("children")
    jobs = {}
    for param in ROWS:
        config, argv, _, limit = param.values
        if limit:
            path = config_path(tmp, config, f"{param.id}.json")
            jobs[param.id] = (["-m", "tpm_lab.cli", *with_config(argv, path)],
                              ONE_BLAS_THREAD, limit)
    sample = ["sample", "--config", config_path(tmp, haar(16), "d16.json")]
    for weight in ("mi", "work"):
        for cpus in CPU_SETS:
            jobs[weight, str(cpus)] = (
                ["-m", "tpm_lab.cli", *sample, "--count", "1000003",
                 "--weight", weight, "--format", "json"], CHILD_ENV, None, cpus)
    for count in ("1000000", "100000000"):
        jobs[count] = (["-c", PEAK_RSS, *sample, "--count", count,
                        "--weight", "mi"],)
    with ThreadPoolExecutor(2) as pool:
        futures = {key: pool.submit(child, *job) for key, job in jobs.items()}
    return {key: future.result() for key, future in futures.items()}


@pytest.mark.parametrize("config, argv, code, limit", ROWS)
def test_row(tmp_path, capsys, caplog, request, config, argv, code, limit):
    if limit:
        done = request.getfixturevalue("spawned")[request.node.callspec.id]
        assert done.returncode == code, done.stderr
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, messages = run_main(
            capsys, caplog, with_config(argv, config_path(tmp_path, config)))
    assert got == code, messages
    assert code != 1 or messages[-1].startswith("FAIL "), messages


BETAS = ["0.1", "0.25", "0.5", "1", "1.5", "2", "3", "0.5"]


def timed(capsys, caplog, argv, limit=120.0):
    """``run_main(argv)``, which must finish within ``limit`` seconds."""
    start = time.perf_counter()
    done = run_main(capsys, caplog, argv)
    assert time.perf_counter() - start <= limit, argv
    return done


@pytest.mark.parametrize("initial", ["gibbs", "maximally_mixed"])
def test_beta_sweep_rows_are_verify_rows(tmp_path, capsys, caplog, initial):
    # A β sweep forms each point after the first without a pass over the
    # Kraus operators: from the kept transition table and the new Gibbs
    # weights, or, for the maximally mixed state, from the previous
    # point's tables. At d = 64, with pairwise-degenerate first levels,
    # dephasing and a final hopping chain, each CSV row must be byte for
    # byte the row of verify run on that point alone; β = 0.5 comes back.
    chain = [[0.05 * k if j == k else 0.3 * (abs(j - k) == 1)
              for j in range(64)] for k in range(64)]
    raw = {"name": "dephasing_d64", "dim": 64, "beta": 1.0,
           "initial": {"kind": initial},
           "first_hamiltonian": {"kind": "diagonal", "energies":
                                 [0.1 * (k // 2) for k in range(64)]},
           "channel": {"kind": "dephasing", "p": 0.3},
           "second_hamiltonian": {"kind": "explicit",
                                  "matrix": {"re": chain}}}
    argv = ["sweep", "--param", "beta", "--values", *BETAS]
    code, out, _ = timed(capsys, caplog,
                         with_config(argv, config_path(tmp_path, raw)))
    assert code == 0
    lines = out.splitlines(keepends=True)
    assert len(lines) == 1 + len(BETAS)
    for beta, line in zip(BETAS, lines[1:]):
        point = {**raw, "name": "dephasing_d64[beta=%g]" % float(beta),
                 "beta": float(beta)}
        argv = ["verify", "--config", config_path(tmp_path, point)]
        code, out, _ = timed(capsys, caplog, argv)
        assert (code, out.splitlines(keepends=True)[1]) == (0, line)


@pytest.mark.parametrize("weight", ["mi", "work"])
def test_sample_is_the_same_on_any_cpus(spawned, weight):
    # Each slice of the sample is drawn from its own stretch of the seed's
    # one PCG64 stream, so at d = 16 the report is the same on one CPU, on
    # two and on all of them; 1000003 draws are no whole number of
    # 2^16-draw blocks.
    every, *pinned = (spawned[weight, str(cpus)] for cpus in CPU_SETS)
    assert every.returncode == 0, every.stderr
    for done in pinned:
        assert (done.returncode, done.stdout) == (0, every.stdout)


def test_sample_peak_rss_does_not_grow_with_the_count(spawned):
    # A sample is its cell counts, so from 10^6 to 10^8 draws at d = 16 a
    # fresh process's peak RSS grows by at most 1 MiB of allocator slack.
    small, large = spawned["1000000"], spawned["100000000"]
    assert (small.returncode, large.returncode) == (0, 0), large.stderr
    growth = (int(large.stderr.splitlines()[-1])
              - int(small.stderr.splitlines()[-1]))
    assert growth <= 1024, f"peak RSS grew by {growth} KiB"


REPORTS = {"verify.csv": "verify", "verify.json": "verify --format json",
           "jarzynski.csv": "jarzynski",
           "sweep_beta.csv": "sweep --param beta --values 0.5 1 2"}
RECORDED_BUILD = DATA_DIR / "recorded_build.txt"


def recorded(stem: str, report: str) -> tuple[list[str], Path]:
    """The argv of a recorded report and the file that holds its stdout."""
    argv = with_config(REPORTS[report].split(),
                       str(SCENARIO_DIR / f"{stem}.json"))
    return argv, DATA_DIR / report.replace(".", f"_{stem}.")


def build() -> str:
    """numpy's version, its BLAS library's, the kernel OpenBLAS picked for
    this CPU at run time and the BLAS thread setting."""
    try:  # mode="dicts" is numpy ≥ 1.25's
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        library = "BLAS unknown"
    core = "unknown"
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("*openbl*"):
        for name in ("scipy_openblas_get_corename64_",
                     "openblas_get_corename64_", "openblas_get_corename"):
            with contextlib.suppress(OSError, AttributeError):
                corename = getattr(ctypes.CDLL(str(lib)), name)
                corename.restype = ctypes.c_char_p
                core = corename().decode()
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return (f"numpy {np.__version__}, {library}, core {core}, "
            f"OPENBLAS_NUM_THREADS={threads}")


@pytest.mark.parametrize("report", REPORTS)
@pytest.mark.parametrize("stem", SHIPPED)
def test_stdout_matches_the_recorded_report(capsys, caplog, stem, report):
    argv, path = recorded(stem, report)
    code, out, _ = run_main(capsys, caplog, argv)
    # Only the non-unital scenario fails the Jarzynski check.
    assert code == (report == "jarzynski.csv" and stem == "amplitude_damping")
    # Random Hamiltonians and Haar unitaries pass through LAPACK, whose
    # last bits depend on the build.
    assert out.encode() == path.read_bytes(), (
        f"{path.name} was recorded on "
        f"{RECORDED_BUILD.read_text(encoding='utf-8').strip()}; "
        f"this run: {build()}")


def pool_reports(workload: str):
    """Each seed-0 case of a benchmark pool and the file that holds its
    report."""
    for k, case in enumerate(workloads.make_cases(workload, 0)):
        extension = case.options.get(
            "format", "json" if case.command == "sample" else "csv")
        yield case, DATA_DIR / f"pool_{workload}_{k}.{extension}"


def run_case(directory: Path, case, name: str) -> tuple[int, bytes]:
    """Exit code and report bytes of one benchmark case run through
    ``cli.main``."""
    config, out = directory / f"{name}.json", directory / f"{name}.out"
    config.write_text(case.config_text(), encoding="utf-8")
    code = cli.main(case.argv(str(config), str(out)))
    return code, out.read_bytes()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_pool_matches_the_recorded_report(tmp_path, workload):
    # The d = 24 and d = 64 pools give the same bytes with BLAS on one
    # thread and on two.
    for case, path in pool_reports(workload):
        assert run_case(tmp_path, case, path.stem) == (0, path.read_bytes()), (
            f"{path.name} was recorded on "
            f"{RECORDED_BUILD.read_text(encoding='utf-8').strip()}; "
            f"this run: {build()}")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_zero_pool_matches_the_benchmark_oracle(tmp_path, workload):
    for k, case in enumerate(workloads.make_cases(workload, 0)):
        config, out = tmp_path / f"{k}.json", tmp_path / f"{k}.out"
        config.write_text(case.config_text(), encoding="utf-8")
        assert cli.main(case.argv(str(config), str(out))) == 0
        report = out.read_text(encoding="utf-8")
        assert oracle.mismatches(case, report, oracle.expected(case)) == []


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        sys.exit("record with OPENBLAS_NUM_THREADS=1")
    for stem in SHIPPED:
        for report in REPORTS:
            argv, path = recorded(stem, report)
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                cli.main(argv)
            path.write_bytes(stdout.getvalue().encode())
    for workload in workloads.WORKLOADS:
        for case, path in pool_reports(workload):
            path.write_bytes(run_case(DATA_DIR, case, "pool")[1])
    for scratch in ("pool.json", "pool.out"):
        (DATA_DIR / scratch).unlink()
    RECORDED_BUILD.write_text(build() + "\n", encoding="utf-8")
