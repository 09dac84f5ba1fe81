"""Tests for scenario configs and the command-line runner."""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    RESTRICTED_SUPPORT_EPSILON,
    RESTRICTED_SUPPORT_JOINT,
    dense,
)
from tpm_lab import cli, quantum, scenarios, tpm
from tpm_lab.errors import ConfigError, ValidationError
from tpm_lab.linalg import haar_random_unitary
from tpm_lab.quantum import gibbs_ensemble, standard_channel
from tpm_lab.sampler import MAX_COUNT, EstimatorReport
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


def test_a_trailing_zero_projector_adds_an_empty_outcome(tmp_path, capsys):
    # A zero projector is a valid rank-0 outcome: the tables grow by one
    # empty row and column, and the identities still hold.
    family = {"kind": "projectors", "energies": [0.0, 1.0, 2.0],
              "projectors": [{"re": [[1.0, 0.0], [0.0, 0.0]]},
                             {"re": [[0.0, 0.0], [0.0, 1.0]]},
                             {"re": [[0.0, 0.0], [0.0, 0.0]]}]}
    raw = raw_config(first_measurement=family, second_measurement=family)
    built = build_scenario(scenario_from_dict(raw))
    assert built.experiment.first_measurement.ranks == (1, 1, 0)
    config = write_config(tmp_path, raw)
    for command in ("verify", "jarzynski"):
        assert cli.main([command, "--config", config]) == 0
    capsys.readouterr()


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
    # Both states are built from their spectral pair, never from a dense
    # matrix: no DensityMatrix(matrix) call, and no factorization.
    eig_calls, eigh_calls, states, cholesky_calls = [], [], [], []
    hermitian_eig, eigh = quantum.hermitian_eig, np.linalg.eigh
    spectral = quantum.DensityMatrix._spectral

    def counting_eig(a):
        eig_calls.append(a)
        return hermitian_eig(a)

    def counting_eigh(a, *args, **kwargs):
        eigh_calls.append(a)
        return eigh(a, *args, **kwargs)

    def counting_spectral(weights, basis):
        states.append(weights)
        return spectral(weights, basis)

    def dense_init(self, matrix):
        raise AssertionError("a state was built from a dense matrix")

    monkeypatch.setattr(quantum, "hermitian_eig", counting_eig)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "cholesky", cholesky_calls.append)
    monkeypatch.setattr(quantum.DensityMatrix, "_spectral",
                        staticmethod(counting_spectral))
    monkeypatch.setattr(quantum.DensityMatrix, "__init__", dense_init)
    raw = raw_config(dim=4, initial={"kind": initial},
                     first_hamiltonian={"kind": "random"},
                     second_hamiltonian={"kind": "random"}, channel=channel)
    build_scenario(scenario_from_dict(raw))
    assert len(eig_calls) == 2
    assert len(eigh_calls) == 2
    assert len(states) == 1
    assert cholesky_calls == []


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
    p_first = np.diag(dense(ens.state)).real
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
    for name, parameter in [("qubit_hadamard.json", "beta"),
                            ("amplitude_damping.json", "channel_param"),
                            ("identity_same_basis.json", "dim")]:
        config = load_scenario(SCENARIO_DIR / name)
        assert cli.run_sweep(config, parameter, []) == []


@pytest.mark.parametrize("kind", ["identity", "kraus", "haar_random", [1]])
def test_channel_param_sweep_needs_a_parameter_at_any_length(kind):
    # The key is resolved before the first value, so a sweep of no values
    # fails as one of any other length does; an unhashable kind too.
    config = scenario_from_dict(raw_config(channel={"kind": kind}))
    for values in ([], [0.5]):
        with pytest.raises(ConfigError) as err:
            sweep_configs(config, "channel_param", values)
        assert err.value.field == "channel.kind"


def test_sweep_points_have_derived_seeds():
    raw = raw_config(first_hamiltonian={"kind": "random"},
                     channel={"kind": "haar_random"},
                     second_hamiltonian={"kind": "random"},
                     initial={"kind": "maximally_mixed"})
    variants = sweep_configs(scenario_from_dict(raw), "beta", [1.0, 2.0])
    assert variants[0].seed != variants[1].seed
    again = sweep_configs(scenario_from_dict(raw), "beta", [1.0, 2.0])
    assert [v.seed for v in variants] == [v.seed for v in again]


@pytest.mark.parametrize("name, parameter, point_seeds, ingredient_seeds", [
    ("amplitude_damping.json", "channel_param", 0, 0),
    ("qubit_hadamard.json", "beta", 0, 0),
    ("random_full_support.json", "beta", 5, 15),
])
def test_sweep_derives_seeds_only_where_read(monkeypatch, name, parameter,
                                             point_seeds, ingredient_seeds):
    # Only a random Hamiltonian and a Haar channel read the seed: a sweep
    # of fixed ingredients keeps the base seed and derives none.
    keys = []
    derive = scenarios.derive_seed

    def counting(base_seed, *key):
        keys.append(key)
        return derive(base_seed, *key)

    monkeypatch.setattr(scenarios, "derive_seed", counting)
    config = load_scenario(SCENARIO_DIR / name)
    values = [0.1, 0.3, 0.5, 0.7, 0.9]
    variants = sweep_configs(config, parameter, values)
    if not point_seeds:
        assert all(variant.seed == config.seed for variant in variants)
    keys.clear()
    rows = cli.run_sweep(config, parameter, values)
    assert len(rows) == 5
    swept = [key for key in keys if key[0] == scenarios.ROLE_SWEEP]
    assert len(swept) == point_seeds
    assert len(keys) - len(swept) == ingredient_seeds


# Sweeps beyond the shipped files: a β sweep whose every ingredient but the
# Gibbs weights is reusable (explicit state and Hamiltonian, projector list,
# gapped eigenbasis, e^{−iHt} of a fixed H); one whose e^{−iHt} must follow
# a random H redrawn at every point; and a dim sweep that returns to
# earlier dims, with a reusable channel and state between equal dims.
BUILD_MIX_RAW = raw_config(
    name="build_mix",
    initial={"kind": "explicit", "matrix": {"re": [[0.7, 0.1], [0.1, 0.3]]}},
    first_hamiltonian={"kind": "diagonal", "energies": [0.0, 1.0]},
    second_hamiltonian={"kind": "explicit",
                        "matrix": {"re": [[0.0, 0.5], [0.5, 1.0]]}},
    channel={"kind": "unitary_from_hamiltonian", "time": 0.7},
    first_measurement={"kind": "projectors", "energies": [0.0, 1.0],
                       "projectors": [{"re": [[1.0, 0.0], [0.0, 0.0]]},
                                      {"re": [[0.0, 0.0], [0.0, 1.0]]}]},
    second_measurement={"kind": "eigenbasis", "degeneracy_gap": 0.1})
RANDOM_EVOLUTION_RAW = raw_config(
    name="random_evolution", second_hamiltonian={"kind": "random"},
    channel={"kind": "unitary_from_hamiltonian", "time": 0.7})
DIM_RETURN_RAW = raw_config(
    name="dim_return", initial={"kind": "maximally_mixed"},
    first_hamiltonian={"kind": "random"},
    second_hamiltonian={"kind": "random", "scale": 0.5},
    channel={"kind": "depolarizing", "p": 0.3})


def matrix_spec(m: np.ndarray) -> dict:
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def rotated_hamiltonian(levels, seed: int) -> np.ndarray:
    """U diag(levels) U† for a Haar U of a fixed seed: a degenerate
    spectrum in a basis that is neither the first nor a permutation."""
    u = haar_random_unitary(len(levels), np.random.default_rng(seed))
    h = (u * np.asarray(levels, dtype=float)) @ u.conj().T
    return (h + h.conj().T) / 2


# A d = 8 Gibbs state of a degenerate diagonal H, measured against a
# degenerate rotated H' after dephasing: every β point past the first
# forms its table from the kept transition table, summed over groups of
# ranks 3, 3, 2 and 2, 3, 3.
DEGENERATE_D8_RAW = raw_config(
    name="degenerate_d8", dim=8,
    first_hamiltonian={"kind": "diagonal",
                       "energies": [1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 0.0, 2.0]},
    second_hamiltonian={"kind": "explicit", "matrix": matrix_spec(
        rotated_hamiltonian([0.0, 0.0, 0.5, 0.5, 0.5, 1.5, 1.5, 1.5], 113))},
    channel={"kind": "dephasing", "p": 0.4})
BETAS = [0.3, 0.5, 1.0, 2.0, 4.0]
TIMES = [0.0, 0.35, 0.7, 1.4, 2.8]  # e^{−iH't} of BUILD_MIX_RAW's fixed H'
SWEEP_ORACLE_CASES = [
    *((path.name, "beta", BETAS) for path in SHIPPED),
    ("amplitude_damping.json", "channel_param", [0.0, 0.25, 0.5, 0.75, 1.0]),
    ("random_full_support.json", "dim", [2, 3, 4]),
    (BUILD_MIX_RAW, "beta", BETAS),
    (BUILD_MIX_RAW, "channel_param", TIMES),
    (RANDOM_EVOLUTION_RAW, "beta", BETAS),
    (DIM_RETURN_RAW, "dim", [2, 2, 3, 3, 2]),
    (DEGENERATE_D8_RAW, "beta", [0.3, 2.0, 0.5, 4.0, 1.0]),
    # Repeated β: a repeat keeps the experiment and reuses its tables.
    (DEGENERATE_D8_RAW, "beta", [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]),
    ("qubit_hadamard.json", "beta", [1.0, 1.0, 2.0, 2.0, 1.0]),
    ("identity_same_basis.json", "beta", [2.0, 2.0, 0.5]),
    # The third β·spread, 3e6, trips the exponent guard.
    (DEGENERATE_D8_RAW, "beta", [0.5, 1.0, 1e6, 2.0]),
    ("identity_same_basis.json", "beta", [1.0, 1e6]),
    (BUILD_MIX_RAW, "beta", [0.5, 0.5, 1e9]),
]


def sweep_base(source):
    if isinstance(source, dict):
        return scenario_from_dict(source)
    return load_scenario(SCENARIO_DIR / source)


def caught(run):
    """(result, None) of ``run()``, or (None, the error's type and text)."""
    try:
        return run(), None
    except (ConfigError, ValidationError, OverflowError) as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("source, parameter, values", SWEEP_ORACLE_CASES,
                         ids=lambda x: x["name"] if isinstance(x, dict)
                         else None)
def test_sweep_matches_the_per_point_loop(caplog, source, parameter, values):
    # The oracle builds and evaluates every point from scratch, up to the
    # first point that raises; run_sweep lends each point the previous
    # one's ingredients and tables.
    config = sweep_base(source)
    oracle, oracle_error = [], None
    with caplog.at_level("DEBUG", logger="tpm_lab"):
        for variant in sweep_configs(config, parameter, values):
            row, oracle_error = caught(lambda: cli.run_verify(variant))
            if oracle_error:
                break
            oracle.append(row)
        oracle_log = [(r.levelname, r.getMessage()) for r in caplog.records]
        caplog.clear()
        rows, error = caught(lambda: cli.run_sweep(config, parameter, values))
        sweep_log = [(r.levelname, r.getMessage()) for r in caplog.records]
    assert error == oracle_error
    if error is None:
        assert cli.rows_to_csv(rows) == cli.rows_to_csv(oracle)
        assert cli.rows_to_json(rows) == cli.rows_to_json(oracle)
    assert sweep_log == oracle_log


# Per sweep: Hamiltonians diagonalised, measurement families built (each
# reads whether it is in order once, at construction), channels validated,
# partition functions Z computed (one per Hamiltonian, and again only where
# β changes), Gibbs states built and passes over the Kraus stack made. A
# β-only point needs no Kraus pass: it reuses the previous tables or, with
# a new Gibbs state, the kept transition table.
@pytest.mark.parametrize("name, parameter, values, built", [
    ("qubit_hadamard.json", "beta", BETAS,
     {"eig": 2, "family": 2, "channel": 1, "z": 10, "state": 5, "kraus": 1}),
    ("random_full_support.json", "beta", BETAS,
     {"eig": 10, "family": 10, "channel": 5, "z": 10, "state": 5,
      "kraus": 5}),
    ("amplitude_damping.json", "channel_param", [0.0, 0.25, 0.5, 0.75, 1.0],
     {"eig": 2, "family": 2, "channel": 5, "z": 2, "state": 1, "kraus": 5}),
    ("qubit_hadamard.json", "beta", [1.0, 1.0, 2.0, 2.0, 1.0],
     {"eig": 2, "family": 2, "channel": 1, "z": 6, "state": 3, "kraus": 1}),
    # The maximally mixed state does not depend on β: one joint table.
    ("identity_same_basis.json", "beta", BETAS,
     {"eig": 2, "family": 2, "channel": 1, "z": 10, "state": 1, "kraus": 1}),
    # Only the channel is rebuilt; the explicit state is not a Gibbs one.
    (BUILD_MIX_RAW, "channel_param", TIMES,
     {"eig": 2, "family": 2, "channel": 5, "z": 2, "state": 0, "kraus": 5}),
    # A random H' gives each point a derived seed, so every point is
    # rebuilt, the diagonal first Hamiltonian included.
    (RANDOM_EVOLUTION_RAW, "beta", BETAS,
     {"eig": 10, "family": 10, "channel": 5, "z": 10, "state": 5,
      "kraus": 5}),
], ids=["qubit_hadamard.json-beta-values0-2-1",
        "random_full_support.json-beta-values1-10-5",
        "amplitude_damping.json-channel_param-values2-2-5",
        "qubit_hadamard.json-beta-values3-2-1",
        "identity_same_basis.json-beta",
        "build_mix-channel_param", "random_evolution-beta"])
def test_sweep_builds_unchanged_ingredients_once(monkeypatch, name, parameter,
                                                 values, built):
    calls = dict.fromkeys(built, 0)
    hermitian_eig, thermal = quantum.hermitian_eig, quantum._thermal
    channel_init = quantum.KrausChannel.__init__
    family_init = quantum.ProjectorFamily.__init__
    spectral = quantum.DensityMatrix._spectral

    def counting(key, function):
        def counted(*args, **kwargs):
            calls[key] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(quantum, "hermitian_eig", counting("eig",
                                                           hermitian_eig))
    monkeypatch.setattr(quantum, "_thermal", counting("z", thermal))
    monkeypatch.setattr(quantum.KrausChannel, "__init__",
                        counting("channel", channel_init))
    monkeypatch.setattr(quantum.ProjectorFamily, "__init__",
                        counting("family", family_init))
    monkeypatch.setattr(quantum.DensityMatrix, "_spectral",
                        staticmethod(counting("state", spectral)))
    monkeypatch.setattr(tpm, "_kraus_pass",
                        counting("kraus", tpm._kraus_pass))
    rows = cli.run_sweep(sweep_base(name), parameter, values)
    assert len(rows) == 5
    assert calls == built


# One change of a single field each from GATE_RAW, a config whose every
# ingredient is fixed and whose channel is e^{−iH't}; the last five are
# errors raised while retuning or rebuilding. False equals the base's 0
# but is no valid support epsilon: only the very same spec is kept.
GATE_RAW = copy.deepcopy(BUILD_MIX_RAW)
GATE_RAW["tolerances"] = {"support_epsilon": 0}
GATE_CHANGES = [
    ("name", "renamed"),
    ("beta", 2.5),
    ("channel", {"kind": "unitary_from_hamiltonian", "time": 0.3}),
    ("initial", {"kind": "gibbs"}),
    ("first_hamiltonian", {"kind": "diagonal", "energies": [0.0, 2.0]}),
    ("second_hamiltonian", {"kind": "explicit",
                            "matrix": {"re": [[0.0, 0.2], [0.2, 1.5]]}}),
    ("first_measurement", {"kind": "eigenbasis", "degeneracy_gap": 2.0}),
    ("second_measurement", {"kind": "eigenbasis", "degeneracy_gap": 2.0}),
    ("tolerances", {"support_epsilon": 0.5}),
    ("seed", 8),
    ("beta", 1e6),
    ("channel", {"kind": "dephasing", "p": 1.5}),
    ("dim", 3),
    ("tolerances", {"support_epsilon": 1.0}),
    ("tolerances", {"support_epsilon": False}),
]
RETUNED_FIELDS = ("name", "beta", "channel")


def verify_outcome(caplog, build):
    """The report row of ``build()``, or its error, and the log lines."""
    caplog.clear()
    try:
        outcome = cli._row(build())
    except (ConfigError, ValidationError, OverflowError) as exc:
        outcome = (type(exc), str(exc), getattr(exc, "field", None))
    return outcome, [(r.levelname, r.getMessage()) for r in caplog.records]


@pytest.mark.parametrize("field, value", GATE_CHANGES)
def test_only_a_beta_or_channel_change_is_retuned(monkeypatch, caplog, field,
                                                  value):
    base = scenario_from_dict(GATE_RAW)
    variant = base._replace(**{field: value})
    previous = build_scenario(base)
    eig_calls = []
    hermitian_eig = quantum.hermitian_eig

    def counting_eig(a):
        eig_calls.append(a)
        return hermitian_eig(a)

    monkeypatch.setattr(quantum, "hermitian_eig", counting_eig)
    with caplog.at_level("DEBUG", logger="tpm_lab"):
        retuned = verify_outcome(
            caplog, lambda: build_scenario(variant, previous=previous))
        eig_count = len(eig_calls)
        assert retuned == verify_outcome(caplog,
                                         lambda: build_scenario(variant))
    if field in RETUNED_FIELDS:
        assert eig_count == 0
    elif field != "dim":  # dim 3 fails before any diagonalisation
        assert eig_count == 2


# Calls of the exact engine's table functions, looked up in tpm_lab.cli
# (where perfbench/tracing.py wraps them), per command: every new joint
# table gets its MI table, and every report row its work statistics and
# MI–dissipation gap.
@pytest.mark.parametrize("argv, calls", [
    (["verify", "--config", "qubit_hadamard.json"], (1, 1, 1, 1)),
    (["jarzynski", "--config", "amplitude_damping.json"], (1, 1, 1, 1)),
    # A maximally mixed state keeps the first point's tables at every β.
    (["sweep", "--config", "identity_same_basis.json", "--param", "beta",
      "--values", "0.5", "1", "2"], (1, 1, 3, 3)),
    # A Gibbs state gets a new table at a new β and keeps it at a repeat.
    (["sweep", "--config", "qubit_hadamard.json", "--param", "beta",
      "--values", "1", "1", "2", "--format", "json"], (2, 2, 3, 3)),
    (["sample", "--config", "qubit_hadamard.json", "--count", "100"],
     (1, 1, 0, 0)),
    (["sample", "--config", "qubit_hadamard.json", "--count", "100",
      "--weight", "work"], (1, 0, 1, 0)),
], ids=["verify", "jarzynski", "sweep-kept", "sweep-retuned", "sample-mi",
        "sample-work"])
def test_every_command_reads_the_public_table_functions(tmp_path, monkeypatch,
                                                        argv, calls):
    names = ("joint_distribution", "mutual_information_table",
             "work_statistics", "compare_mi_to_dissipation")
    counts = dict.fromkeys(names, 0)

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    command, option, name, *rest = argv
    config = str(SCENARIO_DIR / name)
    out = str(tmp_path / "report")
    # Amplitude damping fails the Jarzynski check (exit 1) after its row.
    assert cli.main([command, option, config, *rest, "--out", out]) in (0, 1)
    assert tuple(counts.values()) == calls


@pytest.mark.parametrize("name, argv, code, message", [
    # Point 2's β·spread is 1e6, past the exponent guard.
    ("qubit_hadamard.json", ["--param", "beta", "--values", "1", "1000000"],
     3, "overflow: beta * spectral spread = 1.000e+06 exceeds"),
    ("amplitude_damping.json",
     ["--param", "channel_param", "--values", "0.2", "1.5"],
     2, "config error (field=channel.gamma): "),
    # Two energies do not fit dim 3: nothing built at dim 2 is lent.
    ("qubit_hadamard.json", ["--param", "dim", "--values", "2", "3"],
     2, "config error (field=first_hamiltonian.energies): "),
])
def test_sweep_later_point_errors_keep_their_exit_codes(tmp_path, caplog,
                                                        name, argv, code,
                                                        message):
    out = tmp_path / "sweep.csv"
    with caplog.at_level("ERROR", logger="tpm_lab"):
        assert cli.main(["sweep", "--config", str(SCENARIO_DIR / name),
                         *argv, "--out", str(out)]) == code
    assert caplog.records[-1].getMessage().startswith(message)
    assert not out.exists()


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
    (["sample", "--count", "10000", "--weight", "work"], 3),
    (["sample", "--count", "10000", "--weight", "mi"], 0),
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


# The work average is finite, ≈ Z'/Z = e^{271}, but one cell has
# p(n,m) ≈ e^{−444}/2 and −βW = 715, so its factor e^{−βW} overflows: the
# term is formed as exp(ln p − βW), and every command passes.
TERM_OVERFLOW_RAW = raw_config(
    name="term_overflow",
    first_hamiltonian={"kind": "diagonal", "energies": [0.0, 444.0]},
    channel=WORK_OVERFLOW_RAW["channel"],
    second_hamiltonian={"kind": "diagonal", "energies": [-271.0, 239.0]})


@pytest.mark.parametrize("command", ["verify", "jarzynski"])
def test_overflowing_work_factor_is_not_an_overflow(tmp_path, capsys,
                                                    command):
    config = write_config(tmp_path, TERM_OVERFLOW_RAW)
    assert cli.main([command, "--config", config]) == 0
    row, = parse_report_csv(capsys.readouterr().out)
    assert row.jarzynski_rhs == pytest.approx(np.exp(271.0), rel=1e-12)
    assert abs(row.jarzynski_lhs / row.jarzynski_rhs - 1.0) <= 1e-14


# Valid Gibbs scenarios whose dense ρ = V diag(g) V† lost the small
# weights g_n to rounding, which e^{βE_n} then amplified: each failed the
# Jarzynski check while the state was stored as a dense matrix.
# random_full_support.json has β·spread 48.7 at β = 20 and 97.4 at β = 40;
# the Haar configs 30.0 at d = 64 and 63.6 at d = 256.
HAAR_SCALE_ONE = {"name": "haar_scale_one", "beta": 1.0, "seed": 3,
                  "first_hamiltonian": {"kind": "random", "scale": 1.0},
                  "channel": {"kind": "haar_random"},
                  "second_hamiltonian": {"kind": "random", "scale": 1.0}}


@pytest.mark.parametrize("overrides", [
    {"beta": 20.0},
    {"beta": 40.0},
    {**HAAR_SCALE_ONE, "dim": 64},
    {**HAAR_SCALE_ONE, "dim": 256},
], ids=["beta20", "beta40", "haar_d64", "haar_d256"])
def test_jarzynski_holds_at_large_beta_spread(tmp_path, capsys, overrides):
    raw = json.loads((SCENARIO_DIR / "random_full_support.json").read_text(
        encoding="utf-8"))
    config = write_config(tmp_path, {**raw, **overrides})
    assert cli.main(["jarzynski", "--config", config]) == 0
    row, = parse_report_csv(capsys.readouterr().out)
    assert abs(row.jarzynski_lhs / row.jarzynski_rhs - 1.0) <= 1e-14


# Every guard passes, but Z'/Z cannot be formed as a positive finite
# double: e^{−1398} underflows to 0 (and so does ⟨e^{−βW}⟩), and
# e^{710}·(1 + e^{−10}) overflows while ⟨e^{−βW}⟩ ≈ e^{700} does not.
RATIO_UNDERFLOW_RAW = raw_config(
    name="ratio_underflow",
    first_hamiltonian={"kind": "diagonal", "energies": [-699.0, -698.0]},
    channel={"kind": "identity"},
    second_hamiltonian={"kind": "diagonal", "energies": [699.0, 700.0]})
RATIO_OVERFLOW_RAW = raw_config(
    name="ratio_overflow",
    initial={"kind": "explicit", "matrix": {"re": [[1.0, 0.0], [0.0, 0.0]]}},
    first_hamiltonian={"kind": "diagonal", "energies": [700.0, 1400.0]},
    channel={"kind": "kraus", "operators": [{"re": [[0.0, 1.0], [1.0, 0.0]]}]},
    second_hamiltonian={"kind": "diagonal", "energies": [-10.0, 0.0]})


@pytest.mark.parametrize("raw, invariant", [
    (RATIO_UNDERFLOW_RAW, "representable_rhs"),
    (RATIO_OVERFLOW_RAW, "finite_rhs"),
], ids=["underflow", "overflow"])
def test_jarzynski_unrepresentable_ratio_is_a_validation_error(
        tmp_path, caplog, capsys, raw, invariant):
    config = write_config(tmp_path, raw)
    with caplog.at_level("INFO", logger="tpm_lab"):
        assert cli.main(["jarzynski", "--config", config]) == 3
    assert capsys.readouterr().out == ""
    assert caplog.records[-1].getMessage().startswith(
        f"validation error (invariant={invariant}, ")
    # verify reads no ratio, and a ratio of 0 is a finite report value, so
    # it passes on the underflow config; an infinite ratio never reaches a
    # report.
    if raw is RATIO_UNDERFLOW_RAW:
        assert cli.main(["verify", "--config", config]) == 0
        row, = parse_report_csv(capsys.readouterr().out)
        assert row.jarzynski_rhs == 0.0


@pytest.mark.parametrize("argv, code", [
    (["verify"], 3),
    (["jarzynski"], 3),
    (["sweep", "--param", "beta", "--values", "1"], 3),
    (["sample", "--count", "1000", "--weight", "work"], 3),
    (["sample", "--count", "1000", "--weight", "mi"], 0),
])
def test_ratio_overflow_fails_only_commands_that_read_work(
        tmp_path, caplog, capsys, argv, code):
    # sample --weight mi never builds the work statistics, so it passes.
    config = write_config(tmp_path, RATIO_OVERFLOW_RAW)
    command, *options = argv
    with caplog.at_level("ERROR", logger="tpm_lab"):
        assert cli.main([command, "--config", config, *options]) == code
    out = capsys.readouterr().out
    if code == 3:
        assert caplog.records[-1].getMessage().startswith(
            "validation error (invariant=finite_rhs, ")
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


@pytest.mark.parametrize("overrides, invariant", [
    # ‖A − A†‖_F and ‖A‖_F are both inf: not Hermitian, though eigh
    # would read the lower triangle as the zero Hamiltonian.
    ({"first_hamiltonian": {"kind": "explicit",
                            "matrix": {"re": [[0.0, 2e154], [0.0, 0.0]]}}},
     "hermiticity"),
    # ΣΛ†Λ is NaN off the diagonal: the channel fails at construction,
    # before any table holds a NaN.
    ({"channel": {"kind": "kraus", "operators": [
        {"re": [[1e200, 1e200], [1e200, -1e200]]}]}}, "completeness"),
    # P² − P overflows to inf in its first projector's eigenvalues.
    ({"first_measurement": {
        "kind": "projectors", "energies": [0.0, 1.0],
        "projectors": [{"re": [[1e160, 0.0], [0.0, 0.0]]},
                       {"re": [[0.0, 0.0], [0.0, 1.0]]}]}}, "idempotency"),
    # Hermitian, but ‖A‖_F overflows.
    ({"first_hamiltonian": {"kind": "explicit",
                            "matrix": {"re": [[1e200, 0.0], [0.0, 1e200]]}}},
     "finite_norm"),
    # scale · (G + G†)/2 and E't overflow while the matrices are formed.
    ({"first_hamiltonian": {"kind": "random", "scale": 1e308}},
     "finite_entries"),
    ({"channel": {"kind": "unitary_from_hamiltonian", "time": 1e308},
      "second_hamiltonian": {"kind": "diagonal", "energies": [0.0, 2.0]}},
     "finite_entries"),
], ids=["hermiticity", "completeness", "idempotency", "finite_norm",
        "random_scale", "evolution_time"])
def test_overflowed_residual_is_a_validation_exit(tmp_path, caplog,
                                                  overrides, invariant):
    # A numpy RuntimeWarning would print outside the log format; as an
    # error it escapes main.
    config = write_config(tmp_path, raw_config(**overrides))
    with warnings.catch_warnings(), \
            caplog.at_level("INFO", logger="tpm_lab"):
        warnings.simplefilter("error")
        with pytest.raises(ValidationError) as err:
            build_scenario(load_scenario(config))
        assert cli.main(["verify", "--config", config]) == 3
    assert err.value.invariant == invariant
    # The validation error is the one line on stderr.
    message, = (record.getMessage() for record in caplog.records)
    assert message.startswith(
        f"validation error (invariant={invariant}, residual=")


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


# Values whose JSON text is easy to get wrong: non-finite and signed-zero
# floats, the smallest subnormal, floats that need 17 digits or an
# exponent, integers beyond 64 bits, and names to escape.
AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  0.1 + 0.2, 1 / 3, -2.2250738585072014e-308,
                  1.7976931348623157e308, 1e16, 123456789.12345679, 1e-7]
AWKWARD_NAMES = ["plain", "β≈1 ünïcode ✓", 'quote " and \\ backslash',
                 "tab\tnewline\n\x00 control", "emoji \U0001F600", ""]


def awkward_rows() -> list[cli.ReportRow]:
    rng = np.random.default_rng(31)
    rows = []
    for k, name in enumerate(AWKWARD_NAMES):
        floats = rng.permutation(np.array(AWKWARD_FLOATS, dtype=object))
        rows.append(cli.ReportRow(name, [2, 2**63 + 5, -(2**70), 0, 7, 3][k],
                                  *floats[:len(cli.REPORT_COLUMNS) - 2]))
    return rows


def test_rows_to_json_is_json_dumps_byte_for_byte():
    rows = awkward_rows()
    assert all(isinstance(row.beta, float) for row in rows)
    for chosen in ([], rows[:1], rows):
        payload = [row._asdict() for row in chosen]
        assert cli.rows_to_json(chosen) == json.dumps(payload, indent=2) + "\n"
    assert cli.rows_to_json([]) == "[]\n"
    sweep = cli.run_sweep(load_scenario(SCENARIO_DIR / "qubit_hadamard.json"),
                          "beta", BETAS)
    assert cli.rows_to_json(sweep) == json.dumps(
        [row._asdict() for row in sweep], indent=2) + "\n"


@pytest.mark.parametrize("name", AWKWARD_NAMES)
@pytest.mark.parametrize("exact, z_score", [(None, None), (1.0, -0.0),
                                            (math.nan, math.inf),
                                            (5e-324, -math.inf)])
def test_estimate_to_json_is_json_dumps_byte_for_byte(name, exact, z_score):
    config = load_scenario(SCENARIO_DIR / "qubit_hadamard.json")._replace(
        name=name)
    for count, mean, std_error in ((2**64 + 1, 0.1 + 0.2, 5e-324),
                                   (1, math.nan, 0.0),
                                   (10, np.float64(1 / 3), -math.inf)):
        report = EstimatorReport(
            sample_count=count, mean=mean, std_error=std_error,
            effective_sample_size=1.0, max_weight_share=1.0,
            exact_value=exact, z_score=z_score)
        payload = {"scenario": name, "weight": "work",
                   "sample_count": count, "mean": mean,
                   "std_error": std_error, "exact_value": exact,
                   "z_score": z_score}
        assert cli._estimate_to_json(config, "work", report) == \
            json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("command, options", [
    ("verify", []), ("jarzynski", []),
    ("sweep", ["--param", "beta", "--values", "1", "2"]),
    ("sample", ["--count", "100"])])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_is_a_config_error(tmp_path, caplog, command, options,
                                          where):
    # Exit 1 means the checked identity failed; a report that cannot be
    # written is a bad option, like an unreadable --config.
    out = tmp_path / "missing" / "x.csv" if where == "missing_dir" \
        else tmp_path
    with caplog.at_level("ERROR", logger="tpm_lab"):
        code = cli.main([command, "--config",
                         str(SCENARIO_DIR / "qubit_hadamard.json"), *options,
                         "--out", str(out)])
    assert code == 2
    assert caplog.records[-1].getMessage().startswith(
        f"config error (field=--out): cannot write report {out}: ")


def test_sample_report_format_is_json_only(capsys):
    config = str(SCENARIO_DIR / "qubit_hadamard.json")
    argv = ["sample", "--config", config, "--count", "100"]
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "csv"])
    assert exc.value.code == 2
    assert "invalid choice: 'csv'" in capsys.readouterr().err
    assert cli.main(argv) == 0
    default = capsys.readouterr().out
    assert cli.main([*argv, "--format", "json"]) == 0
    assert capsys.readouterr().out == default
    assert json.loads(default)["sample_count"] == 100


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


def test_main_calls_share_the_parser_built_at_import(capsys, caplog,
                                                     monkeypatch):
    # Each call's stdout, stderr, log and exit code equal those of the same
    # argv parsed by a freshly built parser, so no call leaves state in
    # the shared one.
    config = str(SCENARIO_DIR / "random_full_support.json")
    argvs = [
        ["verify", "--config", config],
        ["jarzynski", "--config", config],
        ["sweep", "--config", config, "--param", "beta",
         "--values", "0.5", "2"],
        ["sweep", "--config", config, "--param", "beta"],
        ["sample", "--config", config, "--count", "2000", "--weight", "mi"],
        ["sample", "--config", config, "--count", "2000",
         "--weight", "work"],
        ["verify", "--config", config, "--seed", "11"],
        ["verify"],
        ["verify", "--config", config],
    ]
    parser = cli._PARSER

    def run(argv):
        caplog.clear()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err, caplog.text

    with caplog.at_level("INFO", logger="tpm_lab"):
        shared = [run(argv) for argv in argvs]
        assert cli._PARSER is parser
        assert parser.parse_args(argvs[3]).values == []
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
            fresh.append(run(argv))
    assert [code for code, *_ in shared] == [0] * 7 + [2, 0]
    assert shared[3][1] == ",".join(cli.REPORT_COLUMNS) + "\n"
    assert "usage: tpm-lab verify" in shared[7][2]
    assert shared[0][1] != shared[6][1]
    assert shared[8] == shared[0]
    assert shared == fresh
