"""Tests for scenario configs and the command-line runner."""

from __future__ import annotations

import copy
import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import RESTRICTED_SUPPORT_EPSILON, RESTRICTED_SUPPORT_JOINT
from tpm_lab import cli, quantum
from tpm_lab.errors import ConfigError, ValidationError
from tpm_lab.quantum import gibbs_ensemble, standard_channel
from tpm_lab.sampler import MAX_COUNT
from tpm_lab.scenarios import (
    MAX_DIM,
    build_scenario,
    derive_seed,
    load_scenario,
    scenario_from_dict,
    sweep_configs,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SHIPPED = sorted(SCENARIO_DIR.glob("*.json"))

BASE_RAW = {
    "name": "base",
    "dim": 2,
    "beta": 1.0,
    "seed": 7,
    "initial": {"kind": "gibbs"},
    "first_hamiltonian": {"kind": "diagonal", "energies": [0.0, 1.0]},
    "channel": {"kind": "identity"},
    "second_hamiltonian": {"kind": "diagonal", "energies": [0.0, 1.0]},
}


def raw_config(**overrides) -> dict:
    raw = copy.deepcopy(BASE_RAW)
    raw.update(overrides)
    return raw


def write_config(tmp_path: Path, raw: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


# --- config parsing and validation ------------------------------------------

def test_shipped_configs_exist():
    names = {p.name for p in SHIPPED}
    assert "qubit_hadamard.json" in names
    assert "identity_same_basis.json" in names
    assert "amplitude_damping.json" in names
    assert "random_full_support.json" in names


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_shipped_configs_parse_build_and_run(path):
    config = load_scenario(path)
    row = cli.run_verify(config)
    for column in cli.REPORT_COLUMNS:
        value = getattr(row, column)
        if column != "name":
            assert np.isfinite(value)
    assert cli.verify_passed(row)


@pytest.mark.parametrize("missing", ["name", "dim", "beta", "initial",
                                     "first_hamiltonian", "channel",
                                     "second_hamiltonian"])
def test_missing_required_field(missing):
    raw = raw_config()
    del raw[missing]
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw)
    assert err.value.field == missing
    assert missing in str(err.value)


def test_bad_field_values_name_the_field():
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw_config(dim=0))
    assert err.value.field == "dim"
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw_config(beta=-2.0))
    assert err.value.field == "beta"
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw_config(seed=-1))
    assert err.value.field == "seed"
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw_config(extra_knob=1))
    assert err.value.field == "extra_knob"
    with pytest.raises(ConfigError) as err:
        scenario_from_dict(raw_config(tolerances={"bogus": 1.0}))
    assert err.value.field == "tolerances"


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError) as err:
        build_scenario(scenario_from_dict(
            raw_config(channel={"kind": "teleport"})))
    assert err.value.field == "channel"
    with pytest.raises(ConfigError):
        build_scenario(scenario_from_dict(
            raw_config(initial={"kind": "pure"})))


def test_matrix_spec_validation(tmp_path):
    bad_shape = raw_config(first_hamiltonian={
        "kind": "explicit", "matrix": {"re": [[0.0]]}})
    with pytest.raises(ConfigError) as err:
        build_scenario(scenario_from_dict(bad_shape))
    assert "2x2" in str(err.value)
    missing_re = raw_config(first_hamiltonian={
        "kind": "explicit", "matrix": {"im": [[0.0, 0.0], [0.0, 0.0]]}})
    with pytest.raises(ConfigError):
        build_scenario(scenario_from_dict(missing_re))


def test_explicit_hermitian_matrix_round_trips():
    raw = raw_config(first_hamiltonian={"kind": "explicit", "matrix": {
        "re": [[0.0, 0.3], [0.3, 1.0]],
        "im": [[0.0, -0.2], [0.2, 0.0]],
    }})
    built = build_scenario(scenario_from_dict(raw))
    h = np.array([[0.0, 0.3 - 0.2j], [0.3 + 0.2j, 1.0]])
    expected = gibbs_ensemble(h, 1.0)
    assert built.first_ensemble.partition_function == pytest.approx(
        expected.partition_function, rel=1e-14)


def test_explicit_projectors_require_energies():
    raw = raw_config(first_measurement={
        "kind": "projectors",
        "projectors": [{"re": [[1.0, 0.0], [0.0, 0.0]]},
                       {"re": [[0.0, 0.0], [0.0, 1.0]]}],
    })
    with pytest.raises(ConfigError) as err:
        build_scenario(scenario_from_dict(raw))
    assert err.value.field == "first_measurement.energies"


def test_explicit_projectors_with_energies_build():
    raw = raw_config(second_measurement={
        "kind": "projectors",
        "projectors": [{"re": [[1.0, 0.0], [0.0, 0.0]]},
                       {"re": [[0.0, 0.0], [0.0, 1.0]]}],
        "energies": [0.0, 1.0],
    })
    built = build_scenario(scenario_from_dict(raw))
    assert built.experiment.second_measurement.energies == (0.0, 1.0)


def test_invalid_state_matrix_raises_validation_error():
    raw = raw_config(initial={"kind": "explicit",
                              "matrix": {"re": [[0.9, 0.0], [0.0, 0.3]]}})
    with pytest.raises(ValidationError) as err:
        build_scenario(scenario_from_dict(raw))
    assert err.value.invariant == "unit_trace"


@pytest.mark.parametrize("channel, field", [
    ({"kind": "dephasing", "p": 1.5}, "channel.p"),
    ({"kind": "depolarizing", "p": -0.1}, "channel.p"),
    ({"kind": "depolarizing", "p": None}, "channel.p"),
    ({"kind": "amplitude_damping", "gamma": "strong"}, "channel.gamma"),
    ({"kind": "amplitude_damping", "gamma": 2.0}, "channel.gamma"),
])
def test_bad_channel_parameter_names_the_field(tmp_path, channel, field):
    raw = raw_config(channel=channel)
    with pytest.raises(ConfigError) as err:
        build_scenario(scenario_from_dict(raw))
    assert err.value.field == field
    assert cli.main(["verify", "--config", write_config(tmp_path, raw)]) == 2


PROJECTORS = [{"re": [[1.0, 0.0], [0.0, 0.0]]},
              {"re": [[0.0, 0.0], [0.0, 1.0]]}]


@pytest.mark.parametrize("overrides, argv, field", [
    ({"first_hamiltonian": {"kind": "random", "scale": None}}, [],
     "first_hamiltonian.scale"),
    ({"channel": {"kind": "unitary_from_hamiltonian", "time": None}}, [],
     "channel.time"),
    ({"first_measurement": {"kind": "eigenbasis", "degeneracy_gap": -1}}, [],
     "first_measurement.degeneracy_gap"),
    ({"beta": float("inf")}, [], "beta"),
    ({"dim": 2.5}, [], "dim"),
    ({"seed": True}, [], "seed"),
    ({"first_hamiltonian": {"kind": "diagonal", "energies": ["a", 1.0]}}, [],
     "first_hamiltonian.energies[0]"),
    ({"second_measurement": {"kind": "projectors", "projectors": PROJECTORS,
                             "energies": [0.0, "b"]}}, [],
     "second_measurement.energies[1]"),
    ({"tolerances": {"support_epsilon": None}}, [],
     "tolerances.support_epsilon"),
    ({"tolerances": {"support_epsilon": -1}}, [],
     "tolerances.support_epsilon"),
    ({"tolerances": {"support_epsilon": 1.0}}, [],
     "tolerances.support_epsilon"),
    ({}, ["sweep", "--param", "beta", "--values", "-1"], "beta"),
    ({}, ["sweep", "--param", "dim", "--values", "2.5"], "dim"),
    ({}, ["sweep", "--param", "channel_param", "--values", "0.5"],
     "channel.kind"),
    ({}, ["sample", "--count", "0"], "--count"),
    ({}, ["verify", "--seed", "-1"], "--seed"),
    ({}, ["jarzynski", "--tol", "nan"], "--tol"),
    # JSON integers beyond double range, which float() cannot convert.
    ({"beta": 10**400}, [], "beta"),
    ({"first_hamiltonian": {"kind": "diagonal", "energies": [0.0, 10**400]}},
     [], "first_hamiltonian.energies[1]"),
])
def test_bad_value_exits_2_naming_the_field(tmp_path, caplog, overrides,
                                            argv, field):
    command, *options = argv or ["verify"]
    config = write_config(tmp_path, raw_config(**overrides))
    with caplog.at_level("ERROR", logger="tpm_lab"):
        code = cli.main([command, "--config", config, *options])
    assert code == 2
    assert caplog.records[-1].getMessage().startswith(
        f"config error (field={field}): ")


@pytest.mark.parametrize("overrides, argv, field", [
    ({"dim": 10**400}, [], "dim"),
    ({"dim": MAX_DIM + 1}, [], "dim"),
    ({}, ["sweep", "--param", "dim", "--values", "2", str(MAX_DIM + 1)],
     "dim"),
    ({}, ["sample", "--count", "10000000000000000000"], "--count"),
    ({}, ["sample", "--count", str(MAX_COUNT + 1)], "--count"),
])
def test_unaddressable_size_exits_2_before_building(tmp_path, caplog,
                                                    monkeypatch, overrides,
                                                    argv, field):
    # A d×d complex128 matrix and a count-long index array must be
    # addressable; past that bound nothing is built or allocated.
    def no_build(config):
        raise AssertionError(f"built {config.name} past a size guard")

    monkeypatch.setattr(cli, "build_scenario", no_build)
    command, *options = argv or ["verify"]
    config = write_config(tmp_path, raw_config(**overrides))
    with caplog.at_level("ERROR", logger="tpm_lab"):
        code = cli.main([command, "--config", config, *options])
    assert code == 2
    assert caplog.records[-1].getMessage().startswith(
        f"config error (field={field}): ")


@pytest.mark.parametrize("argv", [["verify"], ["sample", "--count", "10"]])
def test_out_of_memory_exits_3(tmp_path, caplog, monkeypatch, argv):
    # A dim that is addressable but does not fit in memory is a one-line
    # error with exit 3, not a traceback; nothing is allocated here.
    def no_memory(config):
        raise MemoryError(f"Unable to allocate {16 * config.dim ** 2} bytes")

    monkeypatch.setattr(cli, "build_scenario", no_memory)
    config = write_config(tmp_path, raw_config(
        dim=1_000_000, first_hamiltonian={"kind": "random"},
        second_hamiltonian={"kind": "random"}))
    command, *options = argv
    with caplog.at_level("ERROR", logger="tpm_lab"):
        assert cli.main([command, "--config", config, *options]) == 3
    assert caplog.records[-1].getMessage() == (
        "out of memory: Unable to allocate 16000000000000 bytes")


def test_largest_addressable_dim_is_accepted():
    assert 16 * MAX_DIM ** 2 <= np.iinfo(np.intp).max < 16 * (MAX_DIM + 1) ** 2
    assert scenario_from_dict(raw_config(dim=MAX_DIM)).dim == MAX_DIM


def test_amplitude_damping_beyond_a_qubit_names_dim(tmp_path):
    energies = {"kind": "diagonal", "energies": [0.0, 1.0, 2.0]}
    raw = raw_config(dim=3, first_hamiltonian=energies,
                     second_hamiltonian=energies,
                     channel={"kind": "amplitude_damping", "gamma": 0.5})
    with pytest.raises(ConfigError) as err:
        build_scenario(scenario_from_dict(raw))
    assert err.value.field == "dim"
    assert cli.main(["verify", "--config", write_config(tmp_path, raw)]) == 2


@pytest.mark.parametrize("initial", ["gibbs", "maximally_mixed"])
@pytest.mark.parametrize("channel", [
    {"kind": "haar_random"},
    {"kind": "unitary_from_hamiltonian", "time": 0.7},
])
def test_build_diagonalises_each_hamiltonian_once(monkeypatch, initial,
                                                  channel):
    eig_calls, eigh_calls, states = [], [], []
    hermitian_eig, eigh = quantum.hermitian_eig, np.linalg.eigh
    density_init = quantum.DensityMatrix.__init__

    def counting_eig(a):
        eig_calls.append(a)
        return hermitian_eig(a)

    def counting_eigh(a, *args, **kwargs):
        eigh_calls.append(a)
        return eigh(a, *args, **kwargs)

    def counting_init(self, matrix):
        states.append(matrix)
        density_init(self, matrix)

    monkeypatch.setattr(quantum, "hermitian_eig", counting_eig)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(quantum.DensityMatrix, "__init__", counting_init)
    raw = raw_config(dim=4, initial={"kind": initial},
                     first_hamiltonian={"kind": "random"},
                     second_hamiltonian={"kind": "random"}, channel=channel)
    build_scenario(scenario_from_dict(raw))
    assert len(eig_calls) == 2
    assert len(eigh_calls) == 2
    assert len(states) == 1


def test_derive_seed_is_stable_and_role_separated():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert derive_seed(7, 4, 0) != derive_seed(7, 4, 1)
    assert derive_seed(8, 0) != derive_seed(7, 0)


# --- run_verify and report rows ---------------------------------------------

def test_verify_qubit_hadamard_row():
    row = cli.run_verify(load_scenario(SCENARIO_DIR / "qubit_hadamard.json"))
    assert abs(row.exp_avg_mi - 1.0) <= 1e-10
    assert abs(row.jarzynski_defect) <= 1e-12
    closed_form = (1.0 + np.exp(-2.0)) / (1.0 + np.exp(-1.0))
    assert row.jarzynski_lhs == pytest.approx(closed_form, abs=1e-12)
    assert row.factorization_residual <= 1e-12
    assert cli.verify_passed(row) and cli.jarzynski_passed(row)


def test_verify_identity_same_basis_row():
    row = cli.run_verify(
        load_scenario(SCENARIO_DIR / "identity_same_basis.json"))
    assert row.support_defect == pytest.approx(0.5, abs=1e-12)
    assert row.exp_avg_mi == pytest.approx(0.5, abs=1e-12)
    assert cli.verify_passed(row)


def test_verify_accepts_restricted_support_above_jensen_bound(tmp_path,
                                                              capsys):
    # Diagonal ρ = p(n) and Kraus operators √p(m|n)|m⟩⟨n| in the energy
    # bases realise the joint table exactly.
    joint = RESTRICTED_SUPPORT_JOINT
    p_first = joint.sum(axis=1)
    operators = []
    for n in range(3):
        for m in range(3):
            op = np.zeros((3, 3))
            op[m, n] = np.sqrt(joint[n, m] / p_first[n])
            operators.append({"re": op.tolist()})
    energies = {"kind": "diagonal", "energies": [0.0, 1.0, 2.0]}
    raw = raw_config(
        name="restricted-support", dim=3,
        initial={"kind": "explicit",
                 "matrix": {"re": np.diag(p_first).tolist()}},
        first_hamiltonian=energies, second_hamiltonian=energies,
        channel={"kind": "kraus", "operators": operators},
        tolerances={"support_epsilon": RESTRICTED_SUPPORT_EPSILON})
    config = write_config(tmp_path, raw)
    assert cli.main(["verify", "--config", config, "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["avg_mi"] == pytest.approx(-1.057e-3, abs=1e-6)


def test_verify_amplitude_damping_row():
    row = cli.run_verify(
        load_scenario(SCENARIO_DIR / "amplitude_damping.json"))
    assert abs(row.jarzynski_defect) > 1e-3
    assert not cli.jarzynski_passed(row)
    assert cli.verify_passed(row)
    assert row.unitality_residual == pytest.approx(0.5 * np.sqrt(2.0),
                                                   abs=1e-12)


@pytest.mark.parametrize("config, shift, code", [
    # Non-unital: the relative violation stays 0.231 at any shift, while
    # |lhs − rhs| falls to 4.8e−10 at +20.
    (SCENARIO_DIR / "amplitude_damping.json", 20.0, 1),
    # Qubit Gibbs state through the identity: rhs = e^20 = 4.85e8, so
    # |lhs − rhs| = 7.7e−7 although the relative defect is 1.6e−15.
    (None, -20.0, 0),
])
def test_jarzynski_pass_rule_is_shift_invariant(tmp_path, config, shift,
                                                code):
    raw = (json.loads(config.read_text(encoding="utf-8")) if config
           else raw_config())
    energies = raw["second_hamiltonian"]["energies"]
    raw["second_hamiltonian"]["energies"] = [e + shift for e in energies]
    assert cli.main(["jarzynski", "--config", write_config(tmp_path, raw),
                     "--out", str(tmp_path / "row.csv")]) == code


# --- sweeps -------------------------------------------------------------------

def test_sweep_beta_names_and_defects():
    config = load_scenario(SCENARIO_DIR / "qubit_hadamard.json")
    rows = cli.run_sweep(config, "beta", [0.1, 1.0, 10.0])
    assert [r.name for r in rows] == [
        "qubit_hadamard[beta=0.1]",
        "qubit_hadamard[beta=1]",
        "qubit_hadamard[beta=10]",
    ]
    assert [r.beta for r in rows] == [0.1, 1.0, 10.0]
    assert all(abs(r.jarzynski_defect) <= 1e-8 for r in rows)


def test_sweep_gamma_matches_brute_force():
    config = load_scenario(SCENARIO_DIR / "amplitude_damping.json")
    rows = cli.run_sweep(config, "channel_param", [0.0, 0.5, 1.0])
    h = np.diag([0.0, 1.0]).astype(complex)
    ens = gibbs_ensemble(h, 1.0)
    p_first = np.diag(ens.state.matrix).real
    for row, gamma in zip(rows, [0.0, 0.5, 1.0]):
        channel = standard_channel("amplitude_damping", 2, gamma)
        lhs = 0.0
        for n in range(2):
            ket = np.zeros(2, dtype=complex)
            ket[n] = 1.0
            dephased = p_first[n] * np.outer(ket, ket.conj())
            evolved = sum(k @ dephased @ k.conj().T
                          for k in channel.kraus_ops)
            for m in range(2):
                p_nm = evolved[m, m].real
                if p_nm > 0:
                    lhs += p_nm * np.exp(-(m - n))
        assert row.jarzynski_defect == pytest.approx(lhs - 1.0, abs=1e-12)
    assert rows[0].jarzynski_defect == pytest.approx(0.0, abs=1e-15)
    assert all(abs(r.jarzynski_defect) > 1e-3 for r in rows[1:])


def test_sweep_dim_changes_dimension():
    raw = raw_config(dim=2, initial={"kind": "maximally_mixed"},
                     first_hamiltonian={"kind": "random"},
                     channel={"kind": "haar_random"},
                     second_hamiltonian={"kind": "random"})
    rows = cli.run_sweep(scenario_from_dict(raw), "dim", [2, 3, 4])
    assert [r.dim for r in rows] == [2, 3, 4]
    assert all(abs(r.exp_avg_mi + r.support_defect - 1.0) <= 1e-10
               for r in rows)


def test_sweep_rejects_bad_parameters():
    config = scenario_from_dict(raw_config())
    with pytest.raises(ValueError):
        sweep_configs(config, "gamma", [0.1])
    with pytest.raises(ValueError):
        sweep_configs(config, "channel_param", [0.1])  # identity channel
    with pytest.raises(ValueError):
        sweep_configs(config, "dim", [2.5])
    with pytest.raises(ValueError):
        sweep_configs(config, "beta", [-1.0])


def test_sweep_empty_values():
    config = load_scenario(SCENARIO_DIR / "qubit_hadamard.json")
    assert cli.run_sweep(config, "beta", []) == []


def test_sweep_points_have_derived_seeds():
    raw = raw_config(first_hamiltonian={"kind": "random"},
                     channel={"kind": "haar_random"},
                     second_hamiltonian={"kind": "random"},
                     initial={"kind": "maximally_mixed"})
    variants = sweep_configs(scenario_from_dict(raw), "beta", [1.0, 2.0])
    assert variants[0].seed != variants[1].seed
    again = sweep_configs(scenario_from_dict(raw), "beta", [1.0, 2.0])
    assert [v.seed for v in variants] == [v.seed for v in again]


# --- sampling ----------------------------------------------------------------

def test_run_sample_work_weight_matches_partition_ratio():
    config = load_scenario(SCENARIO_DIR / "qubit_hadamard.json")
    report = cli.run_sample(config, 100_000, weight="work")
    ratio = (1.0 + np.exp(-2.0)) / (1.0 + np.exp(-1.0))
    assert report.exact_value == pytest.approx(ratio, abs=1e-12)
    assert abs(report.mean - ratio) <= 3.0 * report.std_error


def test_run_sample_mi_weight_regression():
    config = load_scenario(SCENARIO_DIR / "random_full_support.json")
    report = cli.run_sample(config, 100_000, weight="mi")
    assert report.exact_value == pytest.approx(1.0, abs=1e-10)
    assert abs(report.z_score) <= 3.0
    repeat = cli.run_sample(config, 100_000, weight="mi")
    assert repeat == report


def test_run_sample_count_one_warns(caplog):
    config = load_scenario(SCENARIO_DIR / "qubit_hadamard.json")
    with caplog.at_level("WARNING", logger="tpm_lab"):
        report = cli.run_sample(config, 1)
    assert report.sample_count == 1
    assert report.std_error == 0.0
    assert any("count=1" in r.message for r in caplog.records)


def test_sample_emits_diagnostic_flags(caplog, tmp_path, capsys):
    config = str(SCENARIO_DIR / "amplitude_damping.json")
    with caplog.at_level("WARNING", logger="tpm_lab"):
        assert cli.main(["verify", "--config", config]) == 0
    verify_flags = [r.message for r in caplog.records
                    if r.levelname == "WARNING"]
    capsys.readouterr()
    caplog.clear()
    out = tmp_path / "mc.json"
    with caplog.at_level("WARNING", logger="tpm_lab"):
        assert cli.main(["sample", "--config", config, "--count", "500",
                         "--out", str(out)]) == 0
    sample_flags = [r.message for r in caplog.records
                    if r.levelname == "WARNING"]
    assert [m.split()[0] for m in verify_flags] == ["NOT-FULL-SUPPORT",
                                                    "NON-UNITAL"]
    assert sample_flags == verify_flags
    assert "NON-UNITAL" not in out.read_text(encoding="utf-8")
    assert capsys.readouterr().out == ""


def test_run_sample_validation():
    config = load_scenario(SCENARIO_DIR / "qubit_hadamard.json")
    with pytest.raises(ValueError):
        cli.run_sample(config, 0)
    with pytest.raises(ValueError):
        cli.run_sample(config, 10, weight="energy")


# --- CLI entry point ---------------------------------------------------------

def test_main_exit_codes(tmp_path):
    ok = cli.main(["verify", "--config",
                   str(SCENARIO_DIR / "qubit_hadamard.json"),
                   "--out", str(tmp_path / "row.csv")])
    assert ok == 0
    failed = cli.main(["jarzynski", "--config",
                       str(SCENARIO_DIR / "amplitude_damping.json"),
                       "--out", str(tmp_path / "ad.csv")])
    assert failed == 1

    raw = raw_config()
    del raw["beta"]
    missing = write_config(tmp_path, raw, "missing_beta.json")
    assert cli.main(["verify", "--config", missing]) == 2

    bad_state = write_config(tmp_path, raw_config(
        initial={"kind": "explicit",
                 "matrix": {"re": [[0.9, 0.0], [0.0, 0.3]]}}),
        "bad_state.json")
    assert cli.main(["verify", "--config", bad_state]) == 3

    # Every cell at or below support_epsilon: no pass can be vacuous.
    empty_support = write_config(tmp_path, raw_config(
        tolerances={"support_epsilon": 0.99}), "empty_support.json")
    for command, *options in (["verify"], ["jarzynski"],
                              ["sample", "--count", "10"]):
        assert cli.main([command, "--config", empty_support, *options,
                         "--out", str(tmp_path / "out")]) == 3

    malformed = tmp_path / "broken.json"
    malformed.write_text("{not json", encoding="utf-8")
    assert cli.main(["verify", "--config", str(malformed)]) == 2
    # json.loads refuses an integer literal of over 4300 digits.
    malformed.write_text('{"beta": 1' + "0" * 5000 + "}", encoding="utf-8")
    assert cli.main(["verify", "--config", str(malformed)]) == 2

    overflowing = write_config(tmp_path, raw_config(
        first_hamiltonian={"kind": "diagonal", "energies": [0.0, 1e6]}),
        "overflow.json")
    assert cli.main(["verify", "--config", overflowing]) == 3


# Gibbs weights in range (|ln Z| = 700), but the work W = −2098 of one
# cell puts e^{−βW} beyond double range.
WORK_OVERFLOW_RAW = raw_config(
    name="work_overflow",
    first_hamiltonian={"kind": "diagonal", "energies": [700.0, 1399.0]},
    channel={"kind": "kraus", "operators": [
        {"re": (np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)).tolist()}]},
    second_hamiltonian={"kind": "diagonal", "energies": [-699.0, 0.0]})


@pytest.mark.parametrize("argv, code", [
    (["verify"], 3),
    (["jarzynski"], 3),
    (["sample", "--count", "1000", "--weight", "work"], 3),
    (["sample", "--count", "1000", "--weight", "mi"], 0),
])
def test_work_overflow_fails_only_commands_that_read_work(tmp_path, caplog,
                                                          capsys, argv, code):
    # sample --weight mi never builds the work table, so it passes.
    config = write_config(tmp_path, WORK_OVERFLOW_RAW)
    command, *options = argv
    with caplog.at_level("ERROR", logger="tpm_lab"):
        assert cli.main([command, "--config", config, *options]) == code
    out = capsys.readouterr().out
    if code == 3:
        assert caplog.records[-1].getMessage().startswith(
            "validation error (invariant=finite_lhs, ")
        assert out == ""
    else:
        assert json.loads(out)["exact_value"] == pytest.approx(1.0)


def test_main_logs_error_fields_to_stderr(tmp_path, caplog, capsys):
    bad_epsilon = write_config(tmp_path, raw_config(
        tolerances={"support_epsilon": "x"}), "bad_epsilon.json")
    bad_state = write_config(tmp_path, raw_config(
        initial={"kind": "explicit",
                 "matrix": {"re": [[0.9, 0.0], [0.0, 0.3]]}}),
        "bad_state.json")
    with caplog.at_level("ERROR", logger="tpm_lab"):
        assert cli.main(["verify", "--config", bad_epsilon]) == 2
        assert cli.main(["verify", "--config", bad_state]) == 3
    config_line, validation_line = (r.getMessage() for r in caplog.records)
    assert config_line.startswith(
        "config error (field=tolerances.support_epsilon): ")
    prefix = "validation error (invariant=unit_trace, residual="
    assert validation_line.startswith(prefix)
    residual = validation_line[len(prefix):].split(")")[0]
    assert float(residual) == pytest.approx(0.2)
    assert capsys.readouterr().out == ""


def test_main_linalg_failure_is_validation_exit(tmp_path, monkeypatch):
    def failing_eig(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr("tpm_lab.quantum.hermitian_eig", failing_eig)
    assert cli.main(["verify", "--config",
                     str(SCENARIO_DIR / "qubit_hadamard.json"),
                     "--out", str(tmp_path / "row.csv")]) == 3


def test_main_reports_are_byte_identical_across_runs(tmp_path):
    args = ["verify", "--config",
            str(SCENARIO_DIR / "random_full_support.json")]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    sample_args = ["sample", "--config",
                   str(SCENARIO_DIR / "random_full_support.json"),
                   "--count", "2000"]
    mc_first, mc_second = tmp_path / "mc_a.json", tmp_path / "mc_b.json"
    assert cli.main(sample_args + ["--out", str(mc_first)]) == 0
    assert cli.main(sample_args + ["--out", str(mc_second)]) == 0
    assert mc_first.read_bytes() == mc_second.read_bytes()


def test_main_seed_override_changes_random_scenarios(tmp_path):
    base = ["verify", "--config",
            str(SCENARIO_DIR / "random_full_support.json")]
    a, b, c = (tmp_path / name for name in ("a.csv", "b.csv", "c.csv"))
    assert cli.main(base + ["--seed", "1", "--out", str(a)]) == 0
    assert cli.main(base + ["--seed", "2", "--out", str(b)]) == 0
    assert cli.main(base + ["--seed", "1", "--out", str(c)]) == 0
    assert a.read_bytes() == c.read_bytes()
    assert a.read_bytes() != b.read_bytes()


def parse_report_csv(text: str) -> list[cli.ReportRow]:
    """Inverse of :func:`cli.rows_to_csv`."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    assert tuple(header) == cli.REPORT_COLUMNS
    rows = []
    for record in reader:
        if not record:
            continue
        values = dict(zip(cli.REPORT_COLUMNS, record))
        rows.append(cli.ReportRow(
            name=values["name"], dim=int(values["dim"]),
            **{name: float(values[name]) for name in cli.REPORT_COLUMNS
               if name not in ("name", "dim")}))
    return rows


def test_csv_round_trip_preserves_values():
    row = cli.run_verify(load_scenario(SCENARIO_DIR / "qubit_hadamard.json"))
    text = cli.rows_to_csv([row])
    parsed = parse_report_csv(text)
    assert parsed == [row]


def test_json_format(tmp_path):
    out = tmp_path / "row.json"
    assert cli.main(["verify", "--config",
                     str(SCENARIO_DIR / "qubit_hadamard.json"),
                     "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert isinstance(payload, list) and len(payload) == 1
    assert tuple(payload[0].keys()) == cli.REPORT_COLUMNS
    assert payload[0]["name"] == "qubit_hadamard"


def test_main_sweep_empty_produces_header_only(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli.main(["sweep", "--config",
                     str(SCENARIO_DIR / "qubit_hadamard.json"),
                     "--param", "beta", "--values", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == [",".join(cli.REPORT_COLUMNS)]


def test_main_sweep_bad_param_value_is_config_error(tmp_path):
    code = cli.main(["sweep", "--config",
                     str(SCENARIO_DIR / "qubit_hadamard.json"),
                     "--param", "channel_param", "--values", "0.5"])
    assert code == 2  # kraus-list channels have no sweepable parameter
