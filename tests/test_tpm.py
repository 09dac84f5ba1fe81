"""Tests for the exact TPM engine: joint tables, exponential averages,
work statistics."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    RESTRICTED_SUPPORT_EPSILON,
    RESTRICTED_SUPPORT_JOINT,
    apply_kraus,
    dense,
    dense_projectors,
    random_gibbs_setup,
    random_nonunitary_channel,
    random_rank1_experiment,
)
from tpm_lab.errors import ValidationError
from tpm_lab.linalg import hermitian_eig
from tpm_lab.quantum import (
    DensityMatrix,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    maximally_mixed,
    standard_channel,
)
from tpm_lab.tpm import (
    TpmExperiment,
    compare_mi_to_dissipation,
    distribution_from_joint,
    joint_distribution,
    mutual_information_table,
    work_statistics,
)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def hadamard_setup():
    """Qubit with H = diag(0, 1), H' = diag(0, 2), beta = 1, Gibbs initial
    state, Hadamard evolution, energy eigenbases at both times."""
    h_first = np.diag([0.0, 1.0]).astype(complex)
    h_second = np.diag([0.0, 2.0]).astype(complex)
    ens_first = gibbs_ensemble(h_first, 1.0)
    ens_second = gibbs_ensemble(h_second, 1.0)
    experiment = TpmExperiment(
        initial_state=ens_first.state,
        first_measurement=eigen_measurement(*hermitian_eig(h_first)),
        channel=channel_from_unitary(HADAMARD),
        second_measurement=eigen_measurement(*hermitian_eig(h_second)))
    return experiment, ens_first, ens_second


def identity_same_basis_setup(state: DensityMatrix):
    h = np.diag([0.0, 1.0]).astype(complex)
    family = eigen_measurement(*hermitian_eig(h))
    experiment = TpmExperiment(
        initial_state=state, first_measurement=family,
        channel=standard_channel("identity", 2), second_measurement=family)
    return experiment


def brute_force_work_average(jd, first_energies, second_energies, beta):
    """Explicit double sum over all outcome pairs, coded independently."""
    total = 0.0
    for n in range(jd.shape[0]):
        for m in range(jd.shape[1]):
            p = jd.p_joint[n, m]
            if p > 0.0:
                w = second_energies[m] - first_energies[n]
                total += p * np.exp(-beta * w)
    return total


# --- joint distributions ----------------------------------------------------

def test_joint_hadamard_oracle():
    experiment, ens_first, _ = hadamard_setup()
    jd = joint_distribution(experiment)
    z = 1.0 + np.exp(-1.0)
    # Hadamard sends both basis states to equal-weight superpositions, so
    # each row is the Gibbs weight split in half.
    expected = np.array([[0.5 / z, 0.5 / z],
                         [0.5 * np.exp(-1.0) / z, 0.5 * np.exp(-1.0) / z]])
    np.testing.assert_allclose(jd.p_joint, expected, atol=1e-15)
    np.testing.assert_allclose(jd.p_first, [1.0 / z, np.exp(-1.0) / z],
                               atol=1e-15)
    np.testing.assert_allclose(jd.p_second, [0.5, 0.5], atol=1e-15)
    np.testing.assert_allclose(jd.p_joint / jd.p_first[:, None],
                               0.5 * np.ones((2, 2)), atol=1e-15)
    assert jd.support_mask.all()
    assert jd.factorization_residual <= 1e-15


def test_joint_identity_same_basis():
    jd = joint_distribution(identity_same_basis_setup(maximally_mixed(2)))
    np.testing.assert_allclose(jd.p_joint, np.diag([0.5, 0.5]), atol=1e-15)
    assert not jd.support_mask.all()
    np.testing.assert_array_equal(jd.support_mask,
                                  np.eye(2, dtype=bool))
    np.testing.assert_allclose(jd.p_joint / jd.p_first[:, None], np.eye(2),
                               atol=1e-15)


def test_joint_distribution_random_properties():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        if seed % 2:
            experiment = random_rank1_experiment(dim, rng)
        else:
            experiment = random_rank1_experiment(
                dim, rng, channel=random_nonunitary_channel(dim, rng))
        jd = joint_distribution(experiment)
        assert jd.p_joint.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(jd.p_first, jd.p_joint.sum(axis=1),
                                   atol=1e-15)
        np.testing.assert_allclose(jd.p_second, jd.p_joint.sum(axis=0),
                                   atol=1e-15)
        defined = jd.p_first > jd.support_epsilon
        np.testing.assert_allclose(
            jd.p_joint[defined] / jd.p_first[defined, None]
            * jd.p_first[defined, None],
            jd.p_joint[defined], atol=1e-14)
        # Rank-1 first projectors make the factorized Born rule exact.
        assert jd.factorization_residual <= 1e-12


def direct_second_marginal(experiment: TpmExperiment) -> np.ndarray:
    """tr{Q_m Λ(ρ)}: the final-outcome distribution with the first
    measurement skipped."""
    evolved = apply_kraus(experiment.channel, experiment.initial_state)
    return np.array([np.trace(q @ dense(evolved)).real
                     for q in dense_projectors(experiment.second_measurement)])


def test_second_marginal_vs_direct_choice():
    # With a Gibbs state diagonal in the first basis the first measurement
    # does not disturb, so both readings of p(m) agree ...
    experiment, _, _ = hadamard_setup()
    jd = joint_distribution(experiment)
    np.testing.assert_allclose(direct_second_marginal(experiment),
                               jd.p_second, atol=1e-14)

    # ... but a state with coherences across the first basis is disturbed,
    # and the mutual information must use the post-measurement marginal.
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    rho = DensityMatrix(0.9 * np.outer(plus, plus.conj())
                        + 0.1 * np.eye(2) / 2)
    experiment = TpmExperiment(
        initial_state=rho,
        first_measurement=eigen_measurement(*hermitian_eig(
            np.diag([0.0, 1.0]))),
        channel=channel_from_unitary(HADAMARD),
        second_measurement=eigen_measurement(*hermitian_eig(
            np.diag([0.0, 1.0]))))
    jd = joint_distribution(experiment)
    assert np.max(np.abs(direct_second_marginal(experiment)
                         - jd.p_second)) > 0.05


def test_distribution_from_joint_rejects_bad_tables():
    with pytest.raises(ValidationError) as err:
        distribution_from_joint(np.array([[1.1, -0.1], [0.0, 0.0]]))
    assert err.value.invariant == "probability_bounds"
    with pytest.raises(ValidationError) as err:
        distribution_from_joint(np.array([[0.5, 0.3], [0.05, 0.05]]))
    assert err.value.invariant == "normalization"
    assert err.value.residual == pytest.approx(0.1, abs=1e-12)
    # A non-finite entry is named before any bound it also breaks.
    for bad in ([np.nan, 0.5], [np.inf, 0.5], [-np.inf, 0.5],
                [np.nan, 2.0], [-1.0, np.inf], [np.inf, -np.inf]):
        with pytest.raises(ValidationError) as err:
            distribution_from_joint(np.array([bad, [0.25, 0.25]]))
        assert err.value.invariant == "finite_entries"


@pytest.mark.parametrize("epsilon", [-1.0, -1e-300, np.nan],
                         ids=["negative", "tiny-negative", "nan"])
def test_support_epsilon_must_be_nonnegative(epsilon):
    # A negative epsilon would put zero cells on the support, and a NaN one
    # would empty it: both are bad arguments, not table defects.
    table = [[0.5, 0.0], [0.25, 0.25]]
    with pytest.raises(ValueError, match="support epsilon") as err:
        distribution_from_joint(table, support_epsilon=epsilon)
    assert type(err.value) is ValueError
    experiment = random_rank1_experiment(2, np.random.default_rng(1))
    with pytest.raises(ValueError, match="support epsilon") as err:
        joint_distribution(experiment, support_epsilon=epsilon)
    assert type(err.value) is ValueError


def test_distribution_from_joint_reads_any_layout_as_c_order():
    # numpy reduces in memory order, so a table kept in Fortran order
    # would sum its marginals and support defect in another order.
    rng = np.random.default_rng(108)
    for _ in range(50):
        table = rng.random(tuple(rng.integers(1, 20, size=2)))
        table /= table.sum()
        tables = {"c": table, "fortran": np.asfortranarray(table),
                  "transposed_view": np.ascontiguousarray(table.T).T}
        fields = {layout: distribution_from_joint(t, 1e-3)
                  for layout, t in tables.items()}
        for jd in fields.values():
            assert jd.p_joint.flags.c_contiguous
            for name, value in fields["c"]._asdict().items():
                mine = getattr(jd, name)
                if isinstance(value, np.ndarray):
                    assert mine.tobytes() == value.tobytes(), name
                else:
                    assert repr(mine) == repr(value), name


def test_factorization_residual_detects_rank2_projector():
    # Rank-2 first projector and a state with coherence into the third
    # level: the factorized form uses the unnormalized projector as the
    # post-measurement state and stops matching the exact Born rule.
    p0 = np.diag([1.0, 1.0, 0.0])
    p1 = np.diag([0.0, 0.0, 1.0])
    first = ProjectorFamily([p0, p1], [0.0, 1.0])
    second = eigen_measurement(*hermitian_eig(np.diag([0.0, 1.0, 2.0])))
    rho = DensityMatrix(np.array([[0.7, 0.1, 0.0],
                                  [0.1, 0.2, 0.05],
                                  [0.0, 0.05, 0.1]]))
    experiment = TpmExperiment(
        initial_state=rho, first_measurement=first,
        channel=standard_channel("identity", 3), second_measurement=second)
    jd = joint_distribution(experiment)
    assert jd.factorization_residual > 1e-3

    # Direct evaluation of both forms of the Born rule.
    worst = 0.0
    for proj in dense_projectors(first):
        for q in dense_projectors(second):
            exact = np.trace(q @ proj @ dense(rho) @ proj).real
            factorized = (np.trace(q @ proj).real
                          * np.trace(proj @ dense(rho)).real)
            worst = max(worst, abs(exact - factorized))
    assert jd.factorization_residual == pytest.approx(worst, abs=1e-15)


# --- mutual information -----------------------------------------------------

def test_mutual_information_hadamard():
    experiment, _, _ = hadamard_setup()
    mi = mutual_information_table(joint_distribution(experiment))
    # Conditionals and marginal are both uniform: I_nm = 0 everywhere.
    np.testing.assert_allclose(mi.i_table, np.zeros((2, 2)), atol=1e-14)
    assert mi.exp_average == pytest.approx(1.0, abs=1e-12)
    assert mi.support_defect == pytest.approx(0.0, abs=1e-12)
    assert mi.average_mi == pytest.approx(0.0, abs=1e-14)


def test_mutual_information_identity_same_basis_closed_form():
    # Deterministic conditionals: exp_average collapses to sum_n p(n)^2.
    mi = mutual_information_table(
        joint_distribution(identity_same_basis_setup(maximally_mixed(2))))
    assert mi.exp_average == 0.5
    assert mi.support_defect == 0.5
    assert mi.average_mi == pytest.approx(np.log(2.0), abs=1e-14)
    assert mi.i_table[0, 0] == pytest.approx(np.log(2.0), abs=1e-14)
    assert np.isnan(mi.i_table[0, 1])

    skewed = DensityMatrix(np.diag([0.3, 0.7]))
    mi = mutual_information_table(
        joint_distribution(identity_same_basis_setup(skewed)))
    assert mi.exp_average == pytest.approx(0.3 ** 2 + 0.7 ** 2, abs=1e-14)
    assert mi.exp_average + mi.support_defect == pytest.approx(1.0,
                                                               abs=1e-14)


def test_exponential_average_is_one_on_full_support():
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        dim = int(rng.integers(2, 7))
        mi = mutual_information_table(
            joint_distribution(random_rank1_experiment(dim, rng)))
        assert abs(mi.exp_average - 1.0) <= 1e-10
        assert abs(mi.exp_average + mi.support_defect - 1.0) <= 1e-10
        assert mi.average_mi >= -1e-12


def test_bookkeeping_with_nonunital_channels():
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        dim = int(rng.integers(2, 5))
        experiment = random_rank1_experiment(
            dim, rng, channel=random_nonunitary_channel(dim, rng))
        mi = mutual_information_table(joint_distribution(experiment))
        assert abs(mi.exp_average + mi.support_defect - 1.0) <= 1e-10
        assert mi.average_mi >= -1e-12


def test_jensen_bound_on_restricted_support():
    jd = distribution_from_joint(RESTRICTED_SUPPORT_JOINT,
                                 support_epsilon=RESTRICTED_SUPPORT_EPSILON)
    mi = mutual_information_table(jd)
    support_mass = float(jd.p_joint[jd.support_mask].sum())
    bound = support_mass * np.log(support_mass / (1.0 - mi.support_defect))
    assert mi.average_mi == pytest.approx(-1.057e-3, abs=1e-6)
    assert bound == pytest.approx(-1.099e-3, abs=1e-6)
    assert mi.average_mi >= bound
    assert mi.exp_average + mi.support_defect == pytest.approx(1.0,
                                                               abs=1e-12)


def test_average_mi_is_symmetric():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        jd = joint_distribution(random_rank1_experiment(3, rng))
        transposed = distribution_from_joint(jd.p_joint.T,
                                             jd.support_epsilon)
        forward = mutual_information_table(jd).average_mi
        backward = mutual_information_table(transposed).average_mi
        assert forward == pytest.approx(backward, abs=1e-12)


def exp_average_with_reference(jd, q) -> float:
    """Exponential average against an arbitrary reference distribution q(m).

    Returns Σ p(n,m)·q(m)/p(m|n) over the support mask. The
    conservation-of-probability argument goes through verbatim for any
    normalized q in place of the true marginal p(m): on full support the
    sum telescopes to Σ_n p(n) · Σ_m q(m) = 1. Passing q = p_second
    reproduces ``exp_average`` of :func:`mutual_information_table`.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != (jd.shape[1],):
        raise ValueError(
            f"reference must have shape ({jd.shape[1]},), got {q.shape}")
    if not np.all(np.isfinite(q)) or float(q.min()) < -1e-12:
        raise ValueError(
            f"reference is not a probability vector: min entry {q.min()!r}")
    total = float(q.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"reference is not normalized: sums to {total!r}")
    q = np.clip(q, 0.0, None)
    rows, cols = np.nonzero(jd.support_mask)
    return float(np.sum(jd.p_joint[rows, cols] * q[cols]
                        / (jd.p_joint[rows, cols] / jd.p_first[rows])))


def test_exp_average_with_reference():
    rng = np.random.default_rng(77)
    jd = joint_distribution(random_rank1_experiment(4, rng))
    # q = true marginal reproduces the standard exponential average.
    mi = mutual_information_table(jd)
    assert exp_average_with_reference(jd, jd.p_second) == pytest.approx(
        mi.exp_average, abs=1e-14)
    # Any normalized reference telescopes to 1 on full support.
    q = rng.uniform(0.1, 1.0, size=4)
    q /= q.sum()
    assert exp_average_with_reference(jd, q) == pytest.approx(1.0,
                                                              abs=1e-10)
    # Restricted support keeps only the diagonal terms: sum_n p(n) q(n).
    jd_diag = joint_distribution(identity_same_basis_setup(
        DensityMatrix(np.diag([0.3, 0.7]))))
    uniform = np.array([0.5, 0.5])
    assert exp_average_with_reference(jd_diag, uniform) == pytest.approx(
        0.5, abs=1e-14)


def test_exp_average_with_reference_rejects_bad_input():
    jd = joint_distribution(random_rank1_experiment(
        3, np.random.default_rng(5)))
    with pytest.raises(ValueError):
        exp_average_with_reference(jd, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        exp_average_with_reference(jd, np.array([0.5, 0.6, 0.2]))
    with pytest.raises(ValueError):
        exp_average_with_reference(jd, np.array([-0.2, 0.6, 0.6]))


# --- work statistics --------------------------------------------------------

def test_work_statistics_hadamard_oracle():
    experiment, ens_first, ens_second = hadamard_setup()
    jd = joint_distribution(experiment)
    ws = work_statistics(jd, experiment.first_measurement.energies,
                         experiment.second_measurement.energies, 1.0,
                         ens_first.partition_function,
                         ens_second.partition_function)
    closed_form = (1.0 + np.exp(-2.0)) / (1.0 + np.exp(-1.0))
    assert ws.jarzynski_rhs == pytest.approx(closed_form, abs=1e-15)
    assert ws.jarzynski_lhs == pytest.approx(closed_form, abs=1e-12)
    assert abs(ws.jarzynski_defect) <= 1e-12
    brute = brute_force_work_average(jd, [0.0, 1.0], [0.0, 2.0], 1.0)
    assert ws.jarzynski_lhs == pytest.approx(brute, abs=1e-15)
    assert ws.delta_F == pytest.approx(-np.log(closed_form), abs=1e-14)
    expected_work = np.array([[0.0, 2.0], [-1.0, 1.0]])
    np.testing.assert_allclose(ws.work_table, expected_work, atol=1e-15)


def test_work_statistics_amplitude_damping_counterexample():
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
    assert abs(ws.jarzynski_defect) > 1e-3
    brute = brute_force_work_average(jd, [0.0, 1.0], [0.0, 1.0], 1.0)
    assert ws.jarzynski_lhs == pytest.approx(brute, abs=1e-12)
    assert ws.jarzynski_defect == pytest.approx(brute - 1.0, abs=1e-12)


def test_work_identity_for_random_unitary_scenarios():
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        dim = int(rng.integers(2, 5))
        experiment, ens_first, ens_second, beta = random_gibbs_setup(
            dim, rng)
        jd = joint_distribution(experiment)
        ws = work_statistics(jd, experiment.first_measurement.energies,
                             experiment.second_measurement.energies, beta,
                             ens_first.partition_function,
                             ens_second.partition_function)
        assert abs(ws.jarzynski_defect) <= 1e-8
        # Unital channel with rank-1 bases: conditionals doubly stochastic.
        np.testing.assert_allclose(ws.conditional_colsums,
                                   np.ones(dim), atol=1e-10)


def test_conditional_colsums_flag_nonunital_channel():
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
    # p(.|0) = (1, 0), p(.|1) = (1/2, 1/2): column sums (3/2, 1/2).
    np.testing.assert_allclose(ws.conditional_colsums, [1.5, 0.5],
                               atol=1e-14)


def test_work_table_antisymmetry():
    rng = np.random.default_rng(13)
    jd = joint_distribution(random_rank1_experiment(3, rng))
    e_first = [0.0, 0.5, 1.2]
    e_second = [0.3, 0.9, 2.0]
    ws = work_statistics(jd, e_first, e_second, 1.0, 1.0, 1.0)
    reversed_jd = distribution_from_joint(jd.p_joint.T, jd.support_epsilon)
    ws_rev = work_statistics(reversed_jd, e_second, e_first, 1.0, 1.0, 1.0)
    np.testing.assert_allclose(ws.work_table, -ws_rev.work_table.T,
                               atol=1e-15)


def test_work_statistics_input_validation():
    jd = joint_distribution(random_rank1_experiment(
        2, np.random.default_rng(1)))
    with pytest.raises(ValueError):
        work_statistics(jd, [0.0], [0.0, 1.0], 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        work_statistics(jd, [0.0, 1.0], [0.0, 1.0], 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        work_statistics(jd, [0.0, 1.0], [0.0, 1.0], 1.0, -1.0, 1.0)


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_work_statistics_rejects_a_nonfinite_energy(energy):
    # Rejected as an energy label, not reported as an overflowed lhs.
    jd = distribution_from_joint(np.full((2, 2), 0.25))
    for first, second in [([0.0, energy], [0.0, 1.0]),
                          ([0.0, 1.0], [energy, 1.0])]:
        with pytest.raises(ValueError, match="energy labels must be finite") \
                as err:
            work_statistics(jd, first, second, 1.0, 1.5, 1.3)
        assert type(err.value) is ValueError


def test_work_statistics_rejects_a_nan_beta():
    # NaN is not > 0: rejected as a β, not reported as an overflowed lhs.
    jd = distribution_from_joint(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="beta must be positive"):
        work_statistics(jd, [0.0, 1.0], [0.0, 1.0], np.nan, 1.0, 1.0)


def test_work_statistics_rejects_a_nan_partition_function():
    # NaN is not > 0: rejected as Z', not reported as an overflowed Z'/Z.
    jd = distribution_from_joint(np.full((2, 2), 0.25))
    with pytest.raises(ValueError, match="partition functions"):
        work_statistics(jd, [0.0, 1.0], [0.0, 1.0], 1.0, 1.0, np.nan)


@pytest.mark.filterwarnings("error")
def test_zero_probability_cells_cannot_poison_work_average():
    # The (0, 1) cell has p = 0 and work -2000, whose naive weight
    # exp(+2000) is inf; it must contribute nothing rather than
    # 0 * inf = nan, and without a RuntimeWarning. The only other extreme
    # cell, (1, 0), has work +2000 and harmlessly underflows to zero.
    p = np.array([[0.5, 0.0], [0.25, 0.25]])
    jd = distribution_from_joint(p)
    ws = work_statistics(jd, [0.0, -2000.0], [0.0, -2000.0], 1.0, 1.0, 1.0)
    assert np.isfinite(ws.jarzynski_lhs)
    assert ws.jarzynski_lhs == pytest.approx(0.75, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_work_average_overflow_is_a_validation_error():
    # The (1, 0) cell has work −699 − 1399 = −2098, so e^{−βW} is beyond
    # double range: the overflow is the finite_lhs error, and numpy's own
    # RuntimeWarning stays silent.
    jd = distribution_from_joint(np.full((2, 2), 0.25))
    with pytest.raises(ValidationError) as err:
        work_statistics(jd, [700.0, 1399.0], [-699.0, 0.0], 1.0, 1.0, 1.0)
    assert err.value.invariant == "finite_lhs"


def test_work_average_sum_overflow_warns_once():
    # Each term p·e^{−βW} = 0.5·e^{710} is formed as exp(ln p − βW) and is
    # finite, but their sum is not: numpy's one overflow warning of the
    # sum is kept, and the sum is the finite_lhs error.
    jd = distribution_from_joint(np.array([[0.5, 0.5], [0.0, 0.0]]))
    with pytest.warns(RuntimeWarning, match="overflow") as record, \
            pytest.raises(ValidationError) as err:
        work_statistics(jd, [0.0, 0.0], [-710.0, -710.0], 1.0, 1.0, 1.0)
    assert err.value.invariant == "finite_lhs"
    assert len(record) == 1


# --- mutual information vs dissipation --------------------------------------

def test_mi_equals_dissipation_for_matched_gibbs_transport():
    # Maximally mixed initial state (Gibbs of H = 0), channel mapping it
    # to the Gibbs state of H' = c I (also maximally mixed), uniform
    # conditionals: I_nm and beta(W_nm - dF) both vanish identically.
    c, beta = 1.7, 0.8
    basis = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    first = ProjectorFamily(basis, [0.0, 0.0])
    second = ProjectorFamily(basis, [c, c])
    experiment = TpmExperiment(
        initial_state=maximally_mixed(2), first_measurement=first,
        channel=channel_from_unitary(HADAMARD), second_measurement=second)
    jd = joint_distribution(experiment)
    mi = mutual_information_table(jd)
    z, z_prime = 2.0, 2.0 * np.exp(-beta * c)
    ws = work_statistics(jd, first.energies, second.energies, beta,
                         z, z_prime)
    assert compare_mi_to_dissipation(mi, ws) <= 1e-10


def test_mi_dissipation_gap_identity_channel():
    # Identity channel, same basis, Gibbs state: dissipation vanishes but
    # I_nn = -ln p(n), so the gap is the largest surprisal.
    h = np.diag([0.0, 1.0]).astype(complex)
    ens = gibbs_ensemble(h, 1.0)
    experiment = TpmExperiment(
        initial_state=ens.state,
        first_measurement=eigen_measurement(*hermitian_eig(h)),
        channel=standard_channel("identity", 2),
        second_measurement=eigen_measurement(*hermitian_eig(h)))
    jd = joint_distribution(experiment)
    mi = mutual_information_table(jd)
    ws = work_statistics(jd, [0.0, 1.0], [0.0, 1.0], 1.0,
                         ens.partition_function, ens.partition_function)
    z = 1.0 + np.exp(-1.0)
    assert compare_mi_to_dissipation(mi, ws) == pytest.approx(
        1.0 + np.log(z), abs=1e-12)


def test_compare_mi_to_dissipation_shape_mismatch():
    rng = np.random.default_rng(21)
    mi = mutual_information_table(
        joint_distribution(random_rank1_experiment(2, rng)))
    jd3 = joint_distribution(random_rank1_experiment(3, rng))
    ws3 = work_statistics(jd3, [0.0] * 3, [0.0] * 3, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        compare_mi_to_dissipation(mi, ws3)


def test_experiment_dimension_mismatch():
    with pytest.raises(ValueError):
        TpmExperiment(
            initial_state=maximally_mixed(3),
            first_measurement=eigen_measurement(*hermitian_eig(
                np.diag([0.0, 1.0]))),
            channel=standard_channel("identity", 2),
            second_measurement=eigen_measurement(*hermitian_eig(
                np.diag([0.0, 1.0]))))
