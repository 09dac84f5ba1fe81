"""Records the report digests behind ``cli.report_identical_ratio``.

Runs every case of each workload's reference pool (seed
``run.REFERENCE_SEED``) once, checks it like any benchmark case, and
writes the SHA-256 of each report to perfbench/reference_reports.json.
A --trace 1 run reports the share of those reports that are still
byte-identical. Run it from the repository root, only when a change to
the report bytes is intended:

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # first: pins BLAS to one thread before numpy loads
from workloads import WORKLOADS


def main() -> int:
    cli = run.import_program()
    log = run.capture_cli_log()
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=run.WORK_DIR))
    digests = {}
    try:
        for workload in sorted(WORKLOADS):
            runner, outcomes = run.run_reference(cli, workload,
                                                 work / workload, log)
            if run.count_failures(runner, outcomes):
                return f"record_reference: {workload} has failing cases"
            digests[workload] = [run.digest(o.report) for o in outcomes]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_REPORTS.write_text(json.dumps(digests, indent=1) + "\n",
                                     encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
