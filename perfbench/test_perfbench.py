"""Self-tests of the benchmark.

Run from the repository root: python3 -m pytest -q perfbench
"""

import csv
import io
import json
import math
from pathlib import Path

import pytest

import oracle
import run
import tracing
from workloads import WORKLOADS, make_cases

DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_regenerates_byte_identical_configs(workload):
    def rendered(seed):
        return [(case.config_text(), case.argv("config.json", "out"))
                for case in make_cases(workload, seed)]

    assert rendered(7) == rendered(7)
    assert rendered(7) != rendered(8)


def test_emitted_metrics_are_declared():
    for kind, emitted in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
        assert emitted == declared, kind
    assert sorted(w["name"] for w in DECLARED["workloads"]) == sorted(WORKLOADS)


def test_wrappers_are_restored_and_missing_names_are_errors(monkeypatch):
    cli = run.import_program()
    original = cli.joint_distribution
    with tracing.installed(tracing.SpanRecorder()):
        assert cli.joint_distribution is not original
    assert cli.joint_distribution is original

    monkeypatch.setitem(tracing.SPANS, "tpm_lab.cli:no_such_name", "cli.x")
    with pytest.raises(LookupError, match="no_such_name"):
        with tracing.installed(tracing.SpanRecorder()):
            pass
    assert cli.joint_distribution is original


def test_self_time_subtracts_children():
    recorder = tracing.SpanRecorder()
    recorder.spans = [[0, "cli.main", -1, 0.0, 10.0],
                      [0, "tpm.joint", 0, 1.0, 7.0],
                      [0, "tpm.table", 1, 2.0, 3.0]]
    self_s = recorder.self_seconds()
    assert self_s["cli.main"] == 4.0
    assert self_s["tpm.joint"] == 5.0
    assert self_s["tpm.table"] == 1.0


def _report(case, rows) -> str:
    if case.options["format"] == "json":
        return json.dumps(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=oracle.ROW_FIELDS)
    writer.writeheader()
    writer.writerows({name: repr(row[name]) for name in oracle.ROW_FIELDS}
                     for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("index", [0, 4])  # a CSV and a JSON sweep
def test_nan_in_a_report_fails_its_case(index):
    case = make_cases("sweep-small", 7)[index]
    want = oracle.expected(case)
    assert oracle.mismatches(case, _report(case, want), want) == []

    rows = [dict(row) for row in want]
    rows[3]["mi_vs_dissipation_gap"] = math.nan
    problems = oracle.mismatches(case, _report(case, rows), want)
    assert len(problems) == 1 and "mi_vs_dissipation_gap" in problems[0]

    # A NaN reference accepts no value, not even NaN.
    assert oracle._differs("nan", math.nan)
    assert oracle._differs(1.0, math.nan)
    assert not oracle._differs("inf", math.inf)


def test_reference_digests_cover_every_reference_case():
    recorded = json.loads(run.REFERENCE_REPORTS.read_text())
    assert sorted(recorded) == sorted(WORKLOADS)
    for workload, digests in recorded.items():
        assert len(digests) == len(make_cases(workload, run.REFERENCE_SEED))
        assert all(len(d) == 64 for d in digests)
