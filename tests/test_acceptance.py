"""End-to-end acceptance suite.

One test per acceptance property, each checked at its stated tolerance.
Every test prints a single PASS/FAIL line with the measured worst case
(visible with ``pytest tests/test_acceptance.py -v -s``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    dense,
    dense_projectors,
    random_gibbs_setup,
    random_nonunitary_channel,
    random_density_matrix,
    random_rank1_experiment,
)
from tpm_lab import cli
from tpm_lab.errors import ValidationError
from tpm_lab.linalg import hermitian_eig, random_hermitian
from tpm_lab.quantum import (
    DensityMatrix,
    KrausChannel,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    maximally_mixed,
    standard_channel,
)
from tpm_lab.sampler import estimate_exponential_average, sample_trajectories
from tpm_lab.tpm import (
    TpmExperiment,
    joint_distribution,
    mutual_information_table,
    work_statistics,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def full_support_tables():
    """500 randomized full-support scenarios: Haar unitary channels,
    random rank-1 bases, random full-rank states."""
    tables = []
    for dim in (2, 3, 4, 8, 16):
        for k in range(100):
            rng = np.random.default_rng((dim, k))
            experiment = random_rank1_experiment(dim, rng)
            tables.append(
                mutual_information_table(joint_distribution(experiment)))
    return tables


@pytest.fixture(scope="module")
def nonunital_tables():
    """100 scenarios with dephasing, depolarizing or amplitude damping."""
    tables = []
    for k in range(100):
        rng = np.random.default_rng((99, k))
        dim = int(rng.integers(2, 5))
        experiment = random_rank1_experiment(
            dim, rng, channel=random_nonunitary_channel(dim, rng))
        tables.append(
            mutual_information_table(joint_distribution(experiment)))
    return tables


def test_exponential_average_equals_one_randomized(full_support_tables):
    worst = max(abs(mi.exp_average - 1.0) for mi in full_support_tables)
    report("exponential-identity",
           worst <= 1e-8,
           f"max |<e^-I> - 1| = {worst:.3e} over "
           f"{len(full_support_tables)} scenarios (tol 1e-08)")


def test_bookkeeping_identity_universal(full_support_tables,
                                        nonunital_tables):
    tables = list(full_support_tables) + list(nonunital_tables)
    # Deterministic-conditional scenarios: identity channel, same basis.
    family = eigen_measurement(*hermitian_eig(np.diag([0.0, 1.0])))
    identity = standard_channel("identity", 2)
    for state in (maximally_mixed(2), DensityMatrix(np.diag([0.3, 0.7]))):
        experiment = TpmExperiment(
            initial_state=state, first_measurement=family,
            channel=identity, second_measurement=family)
        tables.append(
            mutual_information_table(joint_distribution(experiment)))
    worst = max(abs(mi.exp_average + mi.support_defect - 1.0)
                for mi in tables)
    # With rho = I/2 the deterministic case collapses to sum_n p(n)^2.
    closed = tables[-2].exp_average == 0.5
    report("bookkeeping-identity",
           worst <= 1e-10 and closed,
           f"max |exp_average + support_defect - 1| = {worst:.3e} over "
           f"{len(tables)} scenarios (tol 1e-10); "
           f"uniform-state closed form sum p(n)^2 = "
           f"{tables[-2].exp_average!r}")


def test_average_mutual_information_nonnegative(full_support_tables,
                                                nonunital_tables):
    lowest = min(mi.average_mi
                 for mi in list(full_support_tables) + list(nonunital_tables))
    report("mutual-information-nonnegative",
           lowest >= -1e-12,
           f"min average MI = {lowest:.3e} over "
           f"{len(full_support_tables) + len(nonunital_tables)} scenarios "
           f"(bound -1e-12)")


def test_work_exponential_average_equals_partition_ratio():
    worst = 0.0
    for k in range(100):
        rng = np.random.default_rng((7, k))
        dim = (2, 3, 4)[k % 3]
        experiment, ens_first, ens_second, beta = random_gibbs_setup(
            dim, rng)
        jd = joint_distribution(experiment)
        ws = work_statistics(jd, experiment.first_measurement.energies,
                             experiment.second_measurement.energies, beta,
                             ens_first.partition_function,
                             ens_second.partition_function)
        worst = max(worst, abs(ws.jarzynski_defect))

    # Shipped qubit example against the 4-term hand sum.
    row = cli.run_verify(
        cli.load_scenario(SCENARIO_DIR / "qubit_hadamard.json"))
    z = 1.0 + np.exp(-1.0)
    hand_sum = (0.5 / z * (np.exp(0.0) + np.exp(-2.0))
                + 0.5 * np.exp(-1.0) / z * (np.exp(1.0) + np.exp(-1.0)))
    closed_form = (1.0 + np.exp(-2.0)) / (1.0 + np.exp(-1.0))
    qubit_dev = max(abs(row.jarzynski_lhs - hand_sum),
                    abs(row.jarzynski_lhs - closed_form))
    report("work-identity",
           worst <= 1e-8 and qubit_dev <= 1e-12,
           f"max |<e^-bW> - Z'/Z| = {worst:.3e} over 100 random draws "
           f"(tol 1e-08); qubit example dev = {qubit_dev:.3e} (tol 1e-12)")


def test_nonunital_channel_breaks_work_identity():
    h = np.diag([0.0, 1.0]).astype(complex)
    ens = gibbs_ensemble(h, 1.0)
    experiment = TpmExperiment(
        initial_state=ens.state,
        first_measurement=eigen_measurement(*hermitian_eig(h)),
        channel=standard_channel("amplitude_damping", 2, 0.5),
        second_measurement=eigen_measurement(*hermitian_eig(h)))
    jd = joint_distribution(experiment)
    ws = work_statistics(jd, [0.0, 1.0], [0.0, 1.0], 1.0,
                         ens.partition_function, ens.partition_function)
    brute = 0.0
    for n in range(2):
        for m in range(2):
            if jd.p_joint[n, m] > 0:
                brute += jd.p_joint[n, m] * np.exp(-(m - n))
    brute_defect = brute - ens.partition_function / ens.partition_function
    deviation = abs(ws.jarzynski_defect - brute_defect)
    report("nonunital-counterexample",
           abs(ws.jarzynski_defect) > 1e-3 and deviation <= 1e-12,
           f"amplitude damping (rate 0.5) defect = "
           f"{ws.jarzynski_defect:.6f} (> 1e-03), brute-force deviation = "
           f"{deviation:.3e} (tol 1e-12)")


def test_factorization_diagnostic():
    worst_rank1 = 0.0
    for k in range(50):
        rng = np.random.default_rng((11, k))
        dim = int(rng.integers(2, 6))
        jd = joint_distribution(random_rank1_experiment(dim, rng))
        worst_rank1 = max(worst_rank1, jd.factorization_residual)

    first = ProjectorFamily([np.diag([1.0, 1.0, 0.0]),
                             np.diag([0.0, 0.0, 1.0])], [0.0, 1.0])
    second = eigen_measurement(*hermitian_eig(np.diag([0.0, 1.0, 2.0])))
    rho = DensityMatrix(np.array([[0.7, 0.1, 0.0],
                                  [0.1, 0.2, 0.05],
                                  [0.0, 0.05, 0.1]]))
    experiment = TpmExperiment(
        initial_state=rho, first_measurement=first,
        channel=standard_channel("identity", 3), second_measurement=second)
    jd = joint_distribution(experiment)
    direct = 0.0
    for proj in dense_projectors(first):
        for q in dense_projectors(second):
            exact = np.trace(q @ proj @ dense(rho) @ proj).real
            factorized = (np.trace(q @ proj).real
                          * np.trace(proj @ dense(rho)).real)
            direct = max(direct, abs(exact - factorized))
    rank2_ok = (jd.factorization_residual > 1e-3
                and abs(jd.factorization_residual - direct) <= 1e-12)
    report("factorization-diagnostic",
           worst_rank1 <= 1e-12 and rank2_ok,
           f"rank-1 max residual = {worst_rank1:.3e} (tol 1e-12); rank-2 "
           f"residual = {jd.factorization_residual:.6f} (> 1e-03, matches "
           f"direct evaluation)")


def test_monte_carlo_three_sigma_consistency():
    experiment = random_rank1_experiment(3, np.random.default_rng(52))
    jd = joint_distribution(experiment)
    assert jd.support_mask.all()
    mi = mutual_information_table(jd)
    hits = 0
    seeds = 100
    for seed in range(seeds):
        samples = sample_trajectories(jd, 100_000, (21, seed))
        estimate = estimate_exponential_average(samples, mi.i_table,
                                                exact=mi.exp_average)
        if abs(estimate.z_score) <= 3.0:
            hits += 1
    report("monte-carlo-consistency",
           hits >= 95,
           f"{hits}/{seeds} seeds within 3 standard errors of 1 "
           f"(need >= 95) at 10^5 samples")


def test_object_validation_rejects_and_accepts():
    failures = []

    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.diag([0.9, 0.3]))
    if err.value.invariant != "unit_trace" or \
            abs(err.value.residual - 0.2) > 1e-12:
        failures.append("density matrix trace rejection")

    factor = np.sqrt(1.0 - 0.1 / np.sqrt(2.0))
    with pytest.raises(ValidationError) as err:
        KrausChannel([factor * np.eye(2)])
    if err.value.invariant != "completeness" or \
            abs(err.value.residual - 0.1) > 1e-12:
        failures.append("incomplete Kraus set rejection")

    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    with pytest.raises(ValidationError) as err:
        ProjectorFamily([np.diag([1.0, 0.0]), np.outer(plus, plus)])
    if err.value.invariant != "orthogonality":
        failures.append("non-orthogonal projector rejection")

    valid = 0
    for k in range(100):
        rng = np.random.default_rng((33, k))
        dim = int(rng.integers(2, 9))
        random_density_matrix(dim, rng)
        eigen_measurement(*hermitian_eig(random_hermitian(dim, rng)))
        channel_from_unitary(
            standard_channel("identity", dim).kraus_ops[0] if k % 10 == 0
            else np.linalg.qr(rng.standard_normal((dim, dim))
                              + 1j * rng.standard_normal((dim, dim)))[0])
        valid += 1
    if valid != 100:
        failures.append(f"only {valid}/100 valid constructions passed")

    report("object-validation",
           not failures,
           "3 invalid inputs rejected with named invariant and residual; "
           "100 random valid instances accepted"
           if not failures else "; ".join(failures))


def test_thermodynamic_consistency():
    step = 1e-5
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng((55, seed))
        dim = int(rng.integers(2, 7))
        h = random_hermitian(dim, rng)
        beta = float(rng.uniform(0.2, 3.0))
        ens = gibbs_ensemble(h, beta)
        energy = float(np.trace(dense(ens.state) @ h).real)
        log_z = lambda b: np.log(gibbs_ensemble(h, b).partition_function)
        finite_diff = -(log_z(beta + step) - log_z(beta - step)) / (2 * step)
        worst = max(worst,
                    abs(finite_diff - energy) / max(1.0, abs(energy)))
    report("thermodynamic-consistency",
           worst <= 1e-6,
           f"max relative |d(ln Z)/dbeta + tr(rho H)| = {worst:.3e} over "
           f"20 Hamiltonians (tol 1e-06)")


def test_cli_contract(tmp_path):
    checks = []

    code = cli.main(["verify", "--config",
                     str(SCENARIO_DIR / "qubit_hadamard.json"),
                     "--out", str(tmp_path / "v.csv")])
    checks.append(("verify pass exit 0", code == 0))
    code = cli.main(["jarzynski", "--config",
                     str(SCENARIO_DIR / "qubit_hadamard.json"),
                     "--out", str(tmp_path / "j.csv")])
    checks.append(("jarzynski pass exit 0", code == 0))
    code = cli.main(["jarzynski", "--config",
                     str(SCENARIO_DIR / "amplitude_damping.json"),
                     "--out", str(tmp_path / "jf.csv")])
    checks.append(("identity-failure exit 1", code == 1))

    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    checks.append(("config-error exit 2",
                   cli.main(["verify", "--config", str(broken)]) == 2))

    invalid = tmp_path / "invalid_state.json"
    invalid.write_text(json.dumps({
        "name": "invalid", "dim": 2, "beta": 1.0,
        "initial": {"kind": "explicit",
                    "matrix": {"re": [[0.9, 0.0], [0.0, 0.3]]}},
        "first_hamiltonian": {"kind": "diagonal", "energies": [0.0, 1.0]},
        "channel": {"kind": "identity"},
        "second_hamiltonian": {"kind": "diagonal", "energies": [0.0, 1.0]},
    }), encoding="utf-8")
    checks.append(("validation-error exit 3",
                   cli.main(["verify", "--config", str(invalid)]) == 3))

    for config in sorted(SCENARIO_DIR.glob("*.json")):
        out_a = tmp_path / f"{config.stem}_a.csv"
        out_b = tmp_path / f"{config.stem}_b.csv"
        ok_a = cli.main(["verify", "--config", str(config),
                         "--out", str(out_a)]) == 0
        ok_b = cli.main(["verify", "--config", str(config),
                         "--out", str(out_b)]) == 0
        checks.append((f"{config.stem} runs and is byte-identical",
                       ok_a and ok_b
                       and out_a.read_bytes() == out_b.read_bytes()))

    bad = [name for name, ok in checks if not ok]
    report("cli-contract",
           not bad,
           f"{len(checks)} checks: exit codes 0/1/2/3 observed, shipped "
           "configs run end-to-end with byte-identical reruns"
           if not bad else "failed: " + "; ".join(bad))
