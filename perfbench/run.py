"""tpm-lab benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's scenario configs from the seed, then runs them as
``tpm-lab`` commands through ``tpm_lab.cli.main(argv)`` in this one
process, each writing its report to a file. The CLI's stderr log is
captured, not silenced: logging runs at its normal level and a failing
case's log is printed. Every report is checked against independent
reference values (oracle.py).

``--trace 0`` measures the end-to-end metrics: set-up time and peak RSS
of fresh processes, then a timed loop of cases for S seconds. Times are
scaled to a reference machine speed by a calibration timed around each
case and set-up (see ``calibrate``); the raw wall times are in the
metadata. ``--trace 1`` runs one case with per-layer tracemalloc peaks,
then the reference cases (compared with reference_reports.json), then
for the rest of the S seconds each case untraced and again with layer
spans (tracing.py), and reports the per-layer metrics; the spans are
written to .bench_build/perfbench/trace-<workload>.json.

The last line of stdout is the result object; the line before it holds
the run metadata. Exits non-zero without a result when the program's
sources (src/tpm_lab) are not there.
"""

import os

# Pin BLAS to one thread before numpy loads it, here and in child processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, input_sizes, make_cases  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 7
# The pool of this seed is run in every --trace 1 run; its reports are
# compared with the digests recorded by record_reference.py.
REFERENCE_SEED = 0
REFERENCE_REPORTS = BENCH / "reference_reports.json"
PEAK_LAYERS = ("quantum", "tpm", "sampler")
# The calibration's wall time at the reference speed (2-vCPU x86-64 VM,
# numpy's bundled OpenBLAS on one thread): a time t measured while the
# calibration takes c is reported as t * CALIBRATION_S / c.
CALIBRATION_S = 0.015
_CALIBRATION_MATRIX = np.random.default_rng(0).standard_normal((48, 48))
_CALIBRATION_MATRIX = _CALIBRATION_MATRIX @ _CALIBRATION_MATRIX.T


def self_time_metric(span_name: str) -> str:
    # cli.main is the root span: its self time is the CLI's own work.
    return ("cli.self" if span_name == "cli.main" else span_name) + "_s"


# BENCHMARK.json declares these; a --trace 1 run emits every PER_LAYER name.
END_TO_END = {"setup_s": "s", "case_p50_s": "s", "cases_per_s": "1/s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}
PER_LAYER = {
    **{self_time_metric(name): "s" for name in tracing.SPAN_NAMES},
    **{count: "count" for count, _ in tracing.COUNTS.values()},
    **{f"{layer}.peak_alloc_mb": "MB" for layer in PEAK_LAYERS},
    "cli.report_identical_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Outcome:
    """One CLI case as it ran: wall time, exit code or error, report, log."""

    index: int
    seconds: float
    exit_code: int | None
    error: str | None
    report: str | None
    log: str


def capture_cli_log() -> io.StringIO:
    """Route the CLI's stderr log into a buffer, at its own level and format.

    cli.main calls logging.basicConfig, which adds no handler when the root
    logger already has one.
    """
    log = io.StringIO()
    handler = logging.StreamHandler(log)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    logging.getLogger().addHandler(handler)
    logging.getLogger().setLevel(logging.INFO)
    return log


class CaseRunner:
    """Runs case i of the pool (cycling) through ``tpm_lab.cli.main``."""

    def __init__(self, cli, cases, work: Path, log: io.StringIO):
        self.cli = cli
        self.cases = cases
        work.mkdir(parents=True, exist_ok=True)
        self.config_paths = []
        for i, case in enumerate(cases):
            path = work / f"config-{i}.json"
            path.write_text(case.config_text(), encoding="utf-8")
            self.config_paths.append(str(path))
        self.work = work
        self.out_path = work / "report"
        self.log = log

    def case(self, i: int):
        return self.cases[i % len(self.cases)]

    def argv(self, i: int, out_path: str) -> list[str]:
        return self.case(i).argv(self.config_paths[i % len(self.cases)],
                                 out_path)

    def run(self, i: int) -> Outcome:
        argv = self.argv(i, str(self.out_path))
        self.out_path.unlink(missing_ok=True)
        # Start each case with no garbage pending, as a fresh process would.
        gc.collect()
        exit_code = error = None
        start = perf_counter()
        try:
            exit_code = self.cli.main(argv)
        except (Exception, SystemExit) as exc:
            error = repr(exc)
        seconds = perf_counter() - start
        report = (self.out_path.read_text(encoding="utf-8")
                  if self.out_path.exists() else None)
        log = self.log.getvalue()
        self.log.seek(0)
        self.log.truncate()
        return Outcome(i, seconds, exit_code, error, report, log)


def import_program():
    if not (SRC / "tpm_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tpm_lab sources under {SRC}; "
                 "run from the repository root")
    sys.path.insert(0, str(SRC))
    import tpm_lab.cli
    return tpm_lab.cli


def count_failures(runner: CaseRunner, outcomes: list[Outcome]) -> int:
    """Check every outcome; print each failing case's reason and log.

    Every workload is built so that each case exits 0 (its identities
    hold far inside the CLI tolerances), so any other exit code fails.
    """
    references = {}
    failed = 0
    for outcome in outcomes:
        case = runner.case(outcome.index)
        if outcome.error is not None:
            problems = [f"raised {outcome.error}"]
        elif outcome.exit_code != 0:
            problems = [f"exit code {outcome.exit_code}, want 0"]
        elif outcome.report is None:
            problems = ["wrote no report"]
        else:
            key = outcome.index % len(runner.cases)
            if key not in references:
                references[key] = oracle.expected(case)
            problems = oracle.mismatches(case, outcome.report, references[key])
        if problems:
            failed += 1
            print(f"perfbench: case {outcome.index} ({case.config['name']}) "
                  f"failed: {'; '.join(problems[:5])}\n{outcome.log}",
                  file=sys.stderr)
    return failed


def digest(report: str | None) -> str | None:
    return (None if report is None
            else hashlib.sha256(report.encode("utf-8")).hexdigest())


def run_reference(cli, workload: str, work: Path, log: io.StringIO):
    """Run every case of the reference seed's pool once, untraced."""
    runner = CaseRunner(cli, make_cases(workload, REFERENCE_SEED), work, log)
    return runner, [runner.run(i) for i in range(len(runner.cases))]


def probe(runner: CaseRunner, *case_argv: str) -> list[float]:
    """Run setup_probe.py in a fresh process: [set-up seconds, peak RSS MiB]."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
            *runner.config_paths]
    if case_argv:
        argv += ["--", *case_argv]
    done = subprocess.run(argv, capture_output=True, text=True, check=True,
                          timeout=120)
    return [float(line) for line in done.stdout.split()]


def calibrate() -> float:
    """Wall seconds of a fixed mix of interpreter and LAPACK work.

    The speed of the shared machines this runs on drifts by up to 2x
    between windows of a few seconds (for CPU time as much as for wall
    time), far beyond the benchmark's bounds. Dividing each time by this
    work, which is not tpm_lab's, timed around it cancels that drift but
    not a change in tpm_lab.
    """
    start = perf_counter()
    x = 0
    for i in range(120_000):
        x += i * i
    for _ in range(16):
        np.linalg.eigh(_CALIBRATION_MATRIX)
    return perf_counter() - start


def calibrated(timed):
    """Run ``timed() -> seconds`` between two calibrations; scale its result."""
    before = calibrate()
    seconds = timed()
    return seconds * CALIBRATION_S / ((before + calibrate()) / 2), seconds


def measure(runner: CaseRunner, seconds: float):
    """End-to-end metrics: fresh-process probes, then the timed loop."""
    probe(runner)  # warm-up: compiles bytecode in a fresh checkout
    setups = [calibrated(lambda: probe(runner)[0])
              for _ in range(SETUP_REPEATS)]
    # Peak RSS is the largest of fresh processes that each run one case,
    # as a tpm-lab call does: the first case of every command variant in
    # the pool. After many cases in one process, the high-water mark
    # depends on how the allocator reuses freed memory (on sample-mc it
    # lands on 195 or 218 MiB from one process to the next).
    variants = {}
    for i, case in enumerate(runner.cases):
        variants.setdefault(case.variant(), i)
    peak_rss_mb = max(
        probe(runner, *runner.argv(i, str(runner.work / "probe-report")))[1]
        for i in variants.values())
    runner.run(0)  # warm-up: lazy imports and first-call costs
    outcomes, scaled = [], []
    calibrations = [calibrate()]
    start = perf_counter()
    while not outcomes or perf_counter() - start < seconds:
        outcomes.append(runner.run(len(outcomes)))
        calibrations.append(calibrate())
        scaled.append(outcomes[-1].seconds * CALIBRATION_S
                      / ((calibrations[-2] + calibrations[-1]) / 2))
    failed = count_failures(runner, outcomes)
    wall = [o.seconds for o in outcomes]
    return {
        "setup_s": statistics.median(s for s, _ in setups),
        "case_p50_s": statistics.median(scaled),
        # Case time only: the harness's own work between cases is excluded.
        "cases_per_s": len(scaled) / sum(scaled),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (len(outcomes) - failed) / len(outcomes),
    }, outcomes, failed, {"wall": {
        "setup_s": statistics.median(w for _, w in setups),
        "case_p50_s": statistics.median(wall),
        "cases_per_s": len(wall) / sum(wall),
        "calibration_p50_s": statistics.median(calibrations)}}


def trace_layers(runner: CaseRunner, seconds: float, workload: str):
    """Per-layer peaks from one case, the reference cases, then spans
    from the rest of the time.

    Each case runs untraced and then traced, so machine drift hits both
    alike and their ratio is the tracing overhead.
    """
    start = perf_counter()
    tracemalloc.start()
    try:
        with tracing.installed(tracing.PeakRecorder()) as peaks:
            first = runner.run(0)  # also the warm-up
    finally:
        tracemalloc.stop()
    reference_runner, reference = run_reference(
        runner.cli, workload, runner.work / "reference", runner.log)
    recorded = json.loads(REFERENCE_REPORTS.read_text())[workload]
    spans = tracing.SpanRecorder()
    plain, traced = [], []
    while not plain or perf_counter() - start < seconds:
        i = spans.case = len(plain)
        plain.append(runner.run(i))
        with tracing.installed(spans):
            traced.append(runner.run(i))

    n = len(traced)
    self_s = spans.self_seconds()
    metrics = {self_time_metric(name): t / n for name, t in self_s.items()}
    for count, _ in tracing.COUNTS.values():
        metrics[count] = spans.counts[count] / n
    for layer in PEAK_LAYERS:
        metrics[f"{layer}.peak_alloc_mb"] = peaks.peaks[layer] / 2**20
    metrics["cli.report_identical_ratio"] = sum(
        digest(o.report) == want
        for o, want in zip(reference, recorded, strict=True)) / len(recorded)
    traced_s = sum(o.seconds for o in traced)
    metrics["trace.overhead_ratio"] = traced_s / sum(o.seconds for o in plain)

    layer_share = {}
    for name, t in self_s.items():
        layer = tracing.layer_of(name)
        layer_share[layer] = layer_share.get(layer, 0.0) + t / traced_s
    write_trace(workload, spans, self_s, layer_share)
    outcomes = [first, *plain, *traced]
    failed = (count_failures(runner, outcomes)
              + count_failures(reference_runner, reference))
    return metrics, outcomes + reference, failed, {"layer_share": layer_share}


def write_trace(workload: str, spans, self_s: dict, layer_share: dict):
    names = list(tracing.SPAN_NAMES)
    origin = spans.spans[0][3] if spans.spans else 0.0
    payload = {
        "workload": workload,
        "self_seconds": self_s,
        "layer_share": layer_share,
        "span_columns": ["case", "name", "parent", "start_us", "end_us"],
        "names": names,
        "spans": [[case, names.index(name), parent,
                   round((start - origin) * 1e6), round((end - origin) * 1e6)]
                  for case, name, parent, start, end in spans.spans],
    }
    path = WORK_DIR / f"trace-{workload}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n",
                    encoding="utf-8")


def blas_info() -> dict:
    """BLAS name and version from numpy, and its thread count if readable."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib_path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    cases = make_cases(args.workload, args.seed)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        runner = CaseRunner(cli, cases, work, capture_cli_log())
        metrics, outcomes, failed, extra_meta = (
            trace_layers(runner, args.seconds, args.workload) if args.trace
            else measure(runner, args.seconds))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cases": len(outcomes), "pool": len(cases),
        "exit_codes": Counter(str(o.exit_code) for o in outcomes),
        "stderr_lines": sum(o.log.count("\n") for o in outcomes),
        "input_sizes": input_sizes(args.workload),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **extra_meta,
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(outcomes), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in (PER_LAYER if args.trace
                                       else END_TO_END).items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
