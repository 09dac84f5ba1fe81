"""The record types: immutable named tuples with a fixed field order."""

from __future__ import annotations

import contextlib
import copy
from pathlib import Path

import pytest

from tpm_lab import cli, quantum
from tpm_lab.quantum import maximally_mixed
from tpm_lab.sampler import EstimatorReport
from tpm_lab.scenarios import (
    BuiltScenario,
    ScenarioConfig,
    build_scenario,
    load_scenario,
    scenario_from_dict,
    sweep_configs,
)
from tpm_lab.tpm import (
    JointDistribution,
    MutualInformationTable,
    TpmExperiment,
    WorkStatistics,
    joint_distribution,
    mutual_information_table,
)

SCENARIO = (Path(__file__).resolve().parents[1] / "scenarios"
            / "amplitude_damping.json")
RAW = {
    "name": "records",
    "dim": 2,
    "beta": 1.0,
    "initial": {"kind": "gibbs"},
    "first_hamiltonian": {"kind": "diagonal", "energies": [0.0, 1.0]},
    "channel": {"kind": "depolarizing", "p": 0.3},
    "second_hamiltonian": {"kind": "diagonal", "energies": [0.0, 2.0]},
}

SPECS = ("initial", "first_hamiltonian", "channel", "second_hamiltonian",
         "first_measurement", "second_measurement", "tolerances")


@pytest.fixture(scope="module")
def records():
    config = load_scenario(SCENARIO)
    built = build_scenario(config)
    jd = joint_distribution(built.experiment)
    return {
        cli.ReportRow: cli.run_verify(config),
        EstimatorReport: cli.run_sample(config, 100),
        quantum.GibbsEnsemble: built.first_ensemble,
        TpmExperiment: built.experiment,
        JointDistribution: jd,
        MutualInformationTable: mutual_information_table(jd),
        WorkStatistics: cli._work(built, jd),
        ScenarioConfig: config,
        BuiltScenario: built,
    }


@pytest.mark.parametrize("name", ["field", "new_attribute"])
def test_every_record_rejects_attribute_assignment(records, name):
    assert len(records) == 9
    for record_type, record in records.items():
        assert type(record) is record_type
        assert isinstance(record, tuple)
        target = record._fields[0] if name == "field" else name
        with pytest.raises(AttributeError):
            setattr(record, target, 0)


def test_report_columns_are_pinned():
    assert cli.REPORT_COLUMNS == (
        "name", "dim", "beta", "exp_avg_mi", "support_defect", "avg_mi",
        "jarzynski_lhs", "jarzynski_rhs", "jarzynski_defect",
        "unitality_residual", "colsum_max_dev", "factorization_residual",
        "mi_vs_dissipation_gap")
    assert cli.ReportRow._fields == cli.REPORT_COLUMNS


def test_configs_cannot_change_each_others_default_specs():
    a, b = (scenario_from_dict(copy.deepcopy(RAW)) for _ in range(2))
    direct = ScenarioConfig(**RAW)
    for spec in (a.first_measurement, a.second_measurement):
        with contextlib.suppress(TypeError):
            spec["kind"] = "projectors"
    with contextlib.suppress(TypeError):
        a.tolerances["support_epsilon"] = 0.5
    for config in (b, direct):
        assert config.first_measurement == {"kind": "eigenbasis"}
        assert config.second_measurement == {"kind": "eigenbasis"}
        assert config.tolerances == {}
        assert config.seed == 0


@pytest.mark.parametrize("parameter, values, changed", [
    ("beta", [0.5, 1.0, 2.0], set()),
    ("channel_param", [0.1, 0.2], {"channel"}),
])
def test_sweep_variants_keep_unchanged_specs_as_the_same_objects(
        monkeypatch, parameter, values, changed):
    config = scenario_from_dict(copy.deepcopy(RAW))
    for variant in sweep_configs(config, parameter, values):
        for name in SPECS:
            same = getattr(variant, name) is getattr(config, name)
            assert same == (name not in changed), name
    eig_calls = []
    hermitian_eig = quantum.hermitian_eig
    monkeypatch.setattr(quantum, "hermitian_eig",
                        lambda a: eig_calls.append(a) or hermitian_eig(a))
    cli.run_sweep(config, parameter, values)
    assert len(eig_calls) == 2


def test_experiment_replace_rejects_mismatched_dims(records):
    experiment = records[TpmExperiment]
    with pytest.raises(ValueError, match="dimensions disagree"):
        experiment._replace(initial_state=maximally_mixed(3))
    assert experiment._replace(initial_state=maximally_mixed(2)).dim == 2
