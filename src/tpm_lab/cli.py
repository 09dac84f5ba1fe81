"""Scenario runner: verify / jarzynski / sweep / sample over JSON configs.

Exit codes, a stable contract for CI: 0 pass; 1 the checked identity
fails its tolerance; 2 a ConfigError, logged with the field or option it
names; 3 a ValidationError, logged with its invariant and residual, or an
OverflowError, LinAlgError or MemoryError (a size that is addressable
but does not fit in memory). The exception type alone picks the code:
any other exception is a bug and propagates with its traceback.
The data stream (CSV or JSON) goes to --out or stdout; diagnostic flags
(NOT-FULL-SUPPORT, NON-UNITAL, DEGENERATE-SPECTRUM) go to stderr via
logging and are never mixed into the data.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import Check, ConfigError, ValidationError
from .sampler import (
    MAX_COUNT,
    EstimatorReport,
    estimate_exponential_average,
    sample_trajectories,
)
from .scenarios import (
    ROLE_SAMPLER,
    BuiltScenario,
    ScenarioConfig,
    _number,
    build_scenario,
    derive_seed,
    load_scenario,
    sweep_configs,
)
from .tpm import (
    BOOKKEEPING_TOL,
    JARZYNSKI_TOL,
    JointDistribution,
    MutualInformationTable,
    TpmExperiment,
    compare_mi_to_dissipation,
    joint_distribution,
    mutual_information_table,
    work_statistics,
)

__all__ = [
    "ReportRow",
    "REPORT_COLUMNS",
    "run_verify",
    "run_sweep",
    "run_sample",
    "rows_to_csv",
    "rows_to_json",
    "main",
]

log = logging.getLogger("tpm_lab")

# Thresholds for stderr diagnostics only; they gate no computation.
NOT_FULL_SUPPORT_FLAG = 1e-10
NON_UNITAL_FLAG = 1e-8
# The check each verdict command reads, and the identity it logs.
_VERDICTS = {"verify": ("bookkeeping", "exponential-average bookkeeping"),
             "jarzynski": ("jarzynski", "Jarzynski equality")}

EXIT_PASS = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_VALIDATION_ERROR = 3


class ReportRow(NamedTuple):
    """One scenario's worth of verification numbers, in column order, as
    an immutable ``NamedTuple``."""

    name: str
    dim: int
    beta: float
    exp_avg_mi: float
    support_defect: float
    avg_mi: float
    jarzynski_lhs: float
    jarzynski_rhs: float
    jarzynski_defect: float
    unitality_residual: float
    colsum_max_dev: float
    factorization_residual: float
    mi_vs_dissipation_gap: float


REPORT_COLUMNS = ReportRow._fields


def _joint(built: BuiltScenario, transition=None) -> JointDistribution:
    """The exact joint table of one scenario (``transition`` as in
    :func:`~tpm_lab.tpm.joint_distribution`); its flags are logged."""
    jd = joint_distribution(built.experiment,
                            support_epsilon=built.support_epsilon,
                            transition=transition)
    _flag(built, jd)
    return jd


def _flag(built: BuiltScenario, jd: JointDistribution) -> None:
    """Log each failed diagnostic flag check to stderr, via logging only."""
    experiment = built.experiment
    max_rank = max(experiment.first_measurement.max_rank,
                   experiment.second_measurement.max_rank)
    for text, check in (
            ("NOT-FULL-SUPPORT scenario=%s support_defect=%.6g",
             Check("full_support", jd.support_defect, NOT_FULL_SUPPORT_FLAG)),
            ("NON-UNITAL scenario=%s unitality_residual=%.6g",
             Check("unitality", experiment.channel.unitality_residual,
                   NON_UNITAL_FLAG)),
            ("DEGENERATE-SPECTRUM scenario=%s max_projector_rank=%d",
             Check("rank_one", max_rank, 1))):
        if not check.passed:
            log.warning(text, built.config.name, check.value)


class _Tables(NamedTuple):
    """The β-independent tables of one experiment: its joint table and
    its mutual-information table."""

    experiment: TpmExperiment
    jd: JointDistribution
    mi: MutualInformationTable


def _tables(built: BuiltScenario, kept: _Tables | None = None) -> _Tables:
    """The joint and mutual-information tables of a built scenario; its
    flags are logged.

    ``kept``, the tables of the previous sweep point, is reused whole if
    the scenario kept that point's experiment (a β retune of any state
    but a Gibbs one). If only the Gibbs state was replaced, the joint
    table is formed from the kept transition table and the new
    populations. Either way the tables, log lines and errors are those
    of evaluating the scenario afresh.
    """
    experiment = built.experiment
    if (kept is not None and experiment is kept.experiment
            and built.support_epsilon == kept.jd.support_epsilon):
        _flag(built, kept.jd)
        return kept
    retuned = kept is not None and all(
        getattr(experiment, part) is getattr(kept.experiment, part)
        for part in ("first_measurement", "channel", "second_measurement"))
    jd = _joint(built, kept.jd.transition if retuned else None)
    return _Tables(experiment, jd, mutual_information_table(jd))


def _work_inputs(built: BuiltScenario) -> tuple:
    """What work statistics read of a scenario besides its joint table."""
    return (built.experiment.first_measurement.energies,
            built.experiment.second_measurement.energies, built.config.beta,
            built.first_ensemble.partition_function,
            built.second_ensemble.partition_function)


def run_verify(config: ScenarioConfig) -> tuple[ReportRow, tuple[Check, ...]]:
    """Build a scenario: every report column, and the checks it passed."""
    return _row(build_scenario(config))


def _row(built: BuiltScenario, tables: _Tables | None = None
         ) -> tuple[ReportRow, tuple[Check, ...]]:
    """Every report column of a built scenario, read from its ``tables``
    (formed here if not given) and its :func:`work_statistics`: the
    records, checks and errors that ``sample`` and library callers get,
    and the gap of :func:`compare_mi_to_dissipation`. Returned with the
    checks of those two records."""
    config = built.config
    _, jd, mi = _tables(built) if tables is None else tables
    ws = work_statistics(jd, *_work_inputs(built))
    row = ReportRow(
        name=config.name, dim=config.dim, beta=config.beta,
        exp_avg_mi=mi.exp_average, support_defect=mi.support_defect,
        avg_mi=mi.average_mi, jarzynski_lhs=ws.jarzynski_lhs,
        jarzynski_rhs=ws.jarzynski_rhs, jarzynski_defect=ws.jarzynski_defect,
        unitality_residual=built.experiment.channel.unitality_residual,
        colsum_max_dev=float(abs(ws.conditional_colsums - 1.0).max()),
        factorization_residual=jd.factorization_residual,
        mi_vs_dissipation_gap=compare_mi_to_dissipation(mi, ws))
    return row, mi.checks + ws.checks


def run_sweep(config: ScenarioConfig, parameter: str,
              values) -> list[ReportRow]:
    """One report row per sweep value, in input order.

    A point whose random ingredients read the seed runs with one derived
    from the base seed and the point index (:func:`sweep_configs`), so
    output does not depend on execution order; no values, no rows.

    A point that differs from the previous one only in β or the channel
    is that point's scenario retuned (see :func:`build_scenario`); any
    other point is rebuilt. A point is handed the previous point's tables
    (see :func:`_tables`): one that kept the previous experiment (any
    state but a Gibbs one) reuses them whole, and one whose Gibbs state
    alone was replaced forms its joint table from the kept transition
    table T and its new populations in O(d²) plus the grouping. Only that
    one previous point is held, its T (d² doubles) included. Every check,
    report row, log line and error equals that of :func:`run_verify` on
    each point.
    """
    rows, built, tables = [], None, None
    for variant in sweep_configs(config, parameter, values):
        built = build_scenario(variant, previous=built)
        tables = _tables(built, tables)
        rows.append(_row(built, tables)[0])
    return rows


def run_sample(config: ScenarioConfig, count: int,
               weight: str = "mi") -> EstimatorReport:
    """Monte Carlo estimate of an exponential average on one scenario.

    ``weight="mi"`` estimates ⟨e^{−I}⟩ against the engine's exact
    exponential average; ``weight="work"`` uses βW so the sample mean
    estimates ⟨e^{−βW}⟩, compared against the exact work average (which
    equals Z'/Z whenever the Jarzynski conditions hold). The estimate's
    effective sample size and largest weight share go to stderr as one
    INFO line; the report itself does not carry them.
    """
    count = _number(count, "--count", f"[1, {MAX_COUNT}]", integer=True)
    if weight not in ("mi", "work"):
        raise ValueError(f"weight must be 'mi' or 'work', got {weight!r}")
    if count == 1:
        log.warning("count=1: std_error is degenerate (reported as 0)")
    built = build_scenario(config)
    jd = _joint(built)
    if weight == "mi":
        mi = mutual_information_table(jd)
        weight_table, exact = mi.i_table, mi.exp_average
    else:
        ws = work_statistics(jd, *_work_inputs(built))
        weight_table, exact = config.beta * ws.work_table, ws.jarzynski_lhs
    counts = sample_trajectories(jd, count,
                                 derive_seed(config.seed, ROLE_SAMPLER))
    report = estimate_exponential_average(counts, weight_table, exact=exact)
    log.info("ESTIMATOR scenario=%s effective_sample_size=%.6g of %d "
             "max_weight_share=%.6g", config.name,
             report.effective_sample_size, report.sample_count,
             report.max_weight_share)
    return report


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def rows_to_csv(rows: list[ReportRow]) -> str:
    """CSV report: UTF-8, header in field order, 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow([_format_value(getattr(row, name))
                         for name in REPORT_COLUMNS])
    return buf.getvalue()


def _json_value(value) -> str:
    """A str, float, int or None as ``json.dumps`` writes it: floats by
    ``float.__repr__``, NaN and ±inf as ``NaN``/``Infinity``/``-Infinity``,
    strings ASCII-escaped."""
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    return "null" if value is None else int.__repr__(value)


def _json_object(items, indent: str) -> str:
    """``json.dumps(dict(items), indent=2)`` of a nonempty flat object whose
    keys are plain identifiers, for an object nested at ``indent``."""
    body = ",\n".join(f'{indent}  "{key}": {_json_value(value)}'
                      for key, value in items)
    return f"{{\n{body}\n{indent}}}"


def rows_to_json(rows: list[ReportRow]) -> str:
    """JSON report: a list of one object per row, keys in column order,
    byte for byte ``json.dumps(..., indent=2)`` plus a newline."""
    if not rows:
        return "[]\n"
    objects = ",\n  ".join(_json_object(zip(REPORT_COLUMNS, row), "  ")
                           for row in rows)
    return f"[\n  {objects}\n]\n"


def _estimate_to_json(config: ScenarioConfig, weight: str,
                      report: EstimatorReport) -> str:
    payload = {
        "scenario": config.name,
        "weight": weight,
        "sample_count": report.sample_count,
        "mean": report.mean,
        "std_error": report.std_error,
        "exact_value": report.exact_value,
        "z_score": report.z_score,
    }
    return _json_object(payload.items(), "") + "\n"


def _write_output(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report {out_path}: {exc}",
                          field="--out") from exc


def _load_config(args) -> ScenarioConfig:
    config = load_scenario(args.config)
    if args.seed is not None:
        config = config._replace(seed=_number(args.seed, "--seed",
                                              "[0, inf)", integer=True))
    return config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tpm-lab",
        description="Exact and Monte Carlo checks of exponential averages "
                    "in two-point-measurement experiments.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True,
                        help="scenario JSON file")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--out", default=None,
                        help="write the report here instead of stdout")
    # Row reports come as CSV or JSON; an estimate only as JSON.
    rows = argparse.ArgumentParser(add_help=False, parents=[common])
    rows.add_argument("--format", choices=("csv", "json"), default="csv",
                      help="report format (default csv)")

    sub = parser.add_subparsers(dest="command", required=True)
    p_verify = sub.add_parser(
        "verify", parents=[rows],
        help="check ⟨e^{-I}⟩ bookkeeping and the Jensen bound on the MI")
    p_verify.add_argument(
        "--tol", type=float, default=BOOKKEEPING_TOL,
        help="absolute bound on |⟨e^{-I}⟩ + support_defect − 1| (default "
             "%(default)g); a larger tol cannot pass a residual the engine "
             "already rejects: that run exits 3 with bookkeeping")
    p_jarzynski = sub.add_parser(
        "jarzynski", parents=[rows],
        help="check ⟨e^{-βW}⟩ = Z'/Z")
    p_jarzynski.add_argument(
        "--tol", type=float, default=JARZYNSKI_TOL,
        help="relative tolerance on ⟨e^{-βW}⟩/(Z'/Z) − 1 (default %(default)g)")
    p_sweep = sub.add_parser(
        "sweep", parents=[rows],
        help="re-run a scenario over a parameter grid")
    p_sweep.add_argument("--param", required=True,
                         choices=("beta", "channel_param", "dim"))
    p_sweep.add_argument("--values", nargs="*", type=float, default=[],
                         help="sweep values (may be empty)")
    p_sample = sub.add_parser(
        "sample", parents=[common],
        help="Monte Carlo estimate of an exponential average")
    p_sample.add_argument("--format", choices=("json",), default="json",
                          help="report format (JSON only)")
    p_sample.add_argument("--count", type=int, required=True)
    p_sample.add_argument("--weight", choices=("mi", "work"), default="mi")
    return parser


# Built once, when the module is imported: every main() call parses with
# it, and parsing leaves it unchanged.
_PARSER = _build_parser()


def _dispatch(args) -> int:
    config = _load_config(args)
    if args.command == "sample":
        report = run_sample(config, args.count, args.weight)
        _write_output(_estimate_to_json(config, args.weight, report), args.out)
        return EXIT_PASS
    if args.command == "sweep":
        rows = run_sweep(config, args.param, list(args.values))
    else:
        tol = _number(args.tol, "--tol", "[0, inf)")
        invariant, identity = _VERDICTS[args.command]
        row, checks = run_verify(config)
        rows, verdict = [row], next(check for check in checks if
                                    check.invariant == invariant)._replace(bound=tol)
        # Read before the report is written: a NaN verdict cannot be formed
        # (see WorkStatistics), a validation error, which writes no report.
        if math.isnan(verdict.value):
            raise ValidationError(
                f"Z'/Z = {row.jarzynski_rhs!r} is not a positive finite "
                f"double; the relative Jarzynski check cannot be formed",
                invariant="representable_rhs")
    _write_output(rows_to_csv(rows) if args.format == "csv"
                  else rows_to_json(rows), args.out)
    if args.command == "sweep":
        return EXIT_PASS
    if verdict.passed:
        log.info("PASS %s: %s", config.name, identity)
        return EXIT_PASS
    log.error("FAIL %s: %s (tol %g)", config.name, identity, verdict.bound)
    return EXIT_IDENTITY_FAILURE


def main(argv=None) -> int:
    """Run one ``tpm-lab`` command on ``argv`` (default ``sys.argv[1:]``)
    and return its exit code. It may be called repeatedly in one process;
    every call parses with the one parser built at import."""
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s: %(message)s")
    args = _PARSER.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        log.error("config error (field=%s): %s", exc.field, exc)
        return EXIT_CONFIG_ERROR
    except ValidationError as exc:
        log.error("validation error (invariant=%s, residual=%s): %s",
                  exc.invariant, exc.residual, exc)
        return EXIT_VALIDATION_ERROR
    except OverflowError as exc:
        log.error("overflow: %s", exc)
        return EXIT_VALIDATION_ERROR
    except np.linalg.LinAlgError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_VALIDATION_ERROR
    except MemoryError as exc:
        log.error("out of memory: %s", exc)
        return EXIT_VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
