"""The exact engine against a reference loop over dense projectors.

``reference_joint`` evaluates the Born rule term by term: one trace
product per outcome pair, with each channel applied to the dense
post-measurement state. It shares nothing with the engine but the
experiment's inputs, and costs O(N·M·d² + N·K·d³). The depolarizing
channel, stored as one Kraus operator plus a replacement weight, is
checked against its d² + 1 explicit Weyl Kraus operators.

``indicator_product_joint`` is the engine's own formula with every group
sum written as a product with a group-indicator matrix. The engine reads
the sums of rank-1 groups as a permutation instead, which must give the
same table bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    dense,
    dense_projectors,
    random_density_matrix,
    random_nonunitary_channel,
    random_rank1_experiment,
    weyl_depolarizing,
)
from tpm_lab.linalg import haar_random_unitary, hermitian_eig
from tpm_lab.quantum import (
    DensityMatrix,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    standard_channel,
)
from tpm_lab.tpm import (
    TpmExperiment,
    distribution_from_joint,
    joint_distribution,
)

TOL = 1e-14


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a @ b) without forming the product matrix."""
    return float(np.einsum("ij,ji->", a, b).real)


def reference_joint(experiment: TpmExperiment, firsts=None, seconds=None):
    """(p_joint, factorization_residual) by direct loops.

    ``firsts`` and ``seconds`` default to the dense projectors of the two
    measurements; pass the original matrices of an explicit family to
    keep the reference independent of its stored basis.
    """
    rho = dense(experiment.initial_state)
    kraus = experiment.channel.kraus_ops
    # The replacement term r·tr(X)·I/d of the channel, applied to X.
    replaced = experiment.channel.replacement * np.eye(experiment.dim) \
        / experiment.dim
    if firsts is None:
        firsts = dense_projectors(experiment.first_measurement)
    if seconds is None:
        seconds = dense_projectors(experiment.second_measurement)
    p = np.zeros((len(firsts), len(seconds)))
    p_factorized = np.zeros_like(p)
    for n, proj in enumerate(firsts):
        dephased = proj @ rho @ proj
        evolved = sum(op @ dephased @ op.conj().T for op in kraus) \
            + np.trace(dephased) * replaced
        channel_of_proj = sum(op @ proj @ op.conj().T for op in kraus) \
            + np.trace(proj) * replaced
        weight = trace_product(proj, rho)
        for m, q in enumerate(seconds):
            # tr{Q τ Q} = tr{Q τ} since Q is idempotent.
            p[n, m] = trace_product(q, evolved)
            p_factorized[n, m] = trace_product(q, channel_of_proj) * weight
    return p, float(np.max(np.abs(p - p_factorized)))


def assert_matches_reference(experiment, firsts=None, seconds=None,
                             reference_channel=None):
    """The engine's table against ``reference_joint``, which evaluates the
    experiment with ``reference_channel`` in place of its channel if one
    is given."""
    jd = joint_distribution(experiment)
    if reference_channel is not None:
        experiment = experiment._replace(channel=reference_channel)
    p, residual = reference_joint(experiment, firsts, seconds)
    assert np.max(np.abs(jd.p_joint - p)) <= TOL
    assert abs(jd.factorization_residual - residual) <= TOL
    return jd


def degenerate_hamiltonian(levels, rng) -> np.ndarray:
    u = haar_random_unitary(len(levels), rng)
    h = (u * np.asarray(levels, dtype=float)) @ u.conj().T
    return (h + h.conj().T) / 2


def experiment_of(first, channel, second, rng) -> TpmExperiment:
    return TpmExperiment(
        initial_state=random_density_matrix(first.dim, rng),
        first_measurement=first, channel=channel, second_measurement=second)


@pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
def test_rank1_bases(dim):
    rng = np.random.default_rng((101, dim))
    jd = assert_matches_reference(random_rank1_experiment(dim, rng))
    assert jd.factorization_residual <= TOL


def test_degenerate_groups():
    rng = np.random.default_rng(102)
    first = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian([0, 0, 1, 1, 1, 2], rng)))
    second = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian([0, 0, 0, 0, 3, 3], rng)))
    assert first.ranks == (2, 3, 1) and second.ranks == (4, 2)
    channel = channel_from_unitary(haar_random_unitary(6, rng))
    assert_matches_reference(experiment_of(first, channel, second, rng))


def test_rank2_first_projector_with_coherent_state():
    first = ProjectorFamily([np.diag([1.0, 1.0, 0.0]),
                             np.diag([0.0, 0.0, 1.0])], [0.0, 1.0])
    second = eigen_measurement(*hermitian_eig(np.diag([0.0, 1.0, 2.0])))
    rho = DensityMatrix(np.array([[0.7, 0.1, 0.0],
                                  [0.1, 0.2, 0.05],
                                  [0.0, 0.05, 0.1]]))
    experiment = TpmExperiment(
        initial_state=rho, first_measurement=first,
        channel=standard_channel("identity", 3), second_measurement=second)
    jd = assert_matches_reference(experiment)
    assert jd.factorization_residual > 1e-3


def test_explicit_projector_family():
    rng = np.random.default_rng(104)
    u = haar_random_unitary(5, rng)
    firsts = [u[:, :2] @ u[:, :2].conj().T, u[:, 2:3] @ u[:, 2:3].conj().T,
              u[:, 3:] @ u[:, 3:].conj().T]
    u = haar_random_unitary(5, rng)
    seconds = [np.outer(u[:, k], u[:, k].conj()) for k in range(5)]
    experiment = experiment_of(ProjectorFamily(firsts),
                               channel_from_unitary(haar_random_unitary(5, rng)),
                               ProjectorFamily(seconds), rng)
    assert_matches_reference(experiment, firsts, seconds)


@pytest.mark.parametrize("kind, levels", [
    ("amplitude_damping", [0, 1]),
    ("dephasing", [0, 0, 1, 2, 3]),
    ("depolarizing", [0, 1, 1, 2]),
    ("depolarizing", [0, 1]),
    ("depolarizing", [0, 0, 1]),
    ("depolarizing", [0, 0, 1, 1, 1, 2, 3, 3]),
])
def test_kraus_channels(kind, levels):
    dim = len(levels)
    rng = np.random.default_rng((105, dim))
    first = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian(levels, rng)))
    second = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian(levels[::-1], rng)))
    for p in (0.0, 0.37, 1.0):
        channel = standard_channel(kind, dim, p)
        reference = None
        if kind == "depolarizing":
            assert len(channel) == 1 and channel.replacement == p
            reference = weyl_depolarizing(dim, p)
        else:
            assert channel.replacement == 0.0
        assert_matches_reference(experiment_of(first, channel, second, rng),
                                 reference_channel=reference)


def indicator_product_joint(experiment: TpmExperiment):
    """(p_joint, factorization_residual) from the engine's measurement-basis
    sums B = Σ_i Re[(A_i ρ̃) ⊙ Ā_i] + (r/d)·1·diag ρ̃ and
    T = Σ_i |A_i|² + (r/d)·1, with the group sums written as products with
    the (column × outcome) indicator matrices G and H: p = Gᵀ Bᵀ H and
    p(n) = Gᵀ diag ρ̃, with G and H built for every family, rank-1 or not."""
    first = experiment.first_measurement
    second = experiment.second_measurement
    v = first.basis
    w_dag = second.basis.conj().T
    state = experiment.initial_state
    if np.array_equal(state.basis, v):
        dephased, populations = None, state.weights
    else:
        rot = v.conj().T @ state.basis
        dephased = np.where(first.groups[:, None] == first.groups[None, :],
                            (rot * state.weights) @ rot.conj().T, 0.0)
        populations = dephased.diagonal().real
    dim = experiment.dim
    born = np.zeros((dim, dim))
    transition = np.zeros((dim, dim))
    for op in experiment.channel.kraus_ops:
        a = w_dag @ op @ v
        a_conj = a.conj()
        a_rho = a * populations if dephased is None else a @ dephased
        born += (a_rho * a_conj).real
        transition += (a * a_conj).real
    r = experiment.channel.replacement
    born += (r / dim) * populations
    transition += r / dim
    g = np.eye(len(first))[first.groups]
    h = np.eye(len(second))[second.groups]
    p = g.T @ born.T @ h
    p_factorized = (g.T @ transition.T @ h) * (g.T @ populations)[:, None]
    return p, float(np.max(np.abs(p - p_factorized)))


def assert_bits_of_indicator_products(experiment: TpmExperiment):
    jd = joint_distribution(experiment)
    p, residual = indicator_product_joint(experiment)
    oracle = distribution_from_joint(p, factorization_residual=residual)
    for name, value in oracle._asdict().items():
        mine = getattr(jd, name)
        if isinstance(value, np.ndarray):
            assert mine.dtype == value.dtype and mine.shape == value.shape
            assert mine.tobytes() == value.tobytes(), name
        else:
            assert repr(mine) == repr(value), name


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("first_groups, second_groups", [
    ("sorted", "sorted"), ("permuted", "sorted"), ("sorted", "permuted"),
    ("permuted", "permuted")])
@pytest.mark.parametrize("gibbs", [True, False], ids=["gibbs", "coherent"])
@pytest.mark.parametrize("channel", ["unitary", "non_unitary"])
def test_rank1_groups_equal_the_indicator_products_bit_for_bit(
        dim, first_groups, second_groups, gibbs, channel):
    # Any order of the groups is a valid family, so the engine must read
    # the permutation from ``groups``, not assume it sorted.
    rng = np.random.default_rng((106, dim, len(first_groups),
                                 len(second_groups), gibbs,
                                 len(channel)))

    def family(order):
        groups = (np.arange(dim) if order == "sorted"
                  else rng.permutation(dim))
        return ProjectorFamily(basis=haar_random_unitary(dim, rng),
                               groups=groups,
                               energies=rng.uniform(0.0, 2.0, dim))

    first, second = family(first_groups), family(second_groups)
    if gibbs:
        weights = rng.uniform(0.05, 1.0, dim)
        state = DensityMatrix._spectral(weights / weights.sum(), first.basis)
    else:
        state = random_density_matrix(dim, rng)
    kraus = (channel_from_unitary(haar_random_unitary(dim, rng))
             if channel == "unitary" or dim == 1
             else random_nonunitary_channel(dim, rng))
    experiment = TpmExperiment(initial_state=state, first_measurement=first,
                               channel=kraus, second_measurement=second)
    assert_bits_of_indicator_products(experiment)
    assert_matches_reference(experiment)


def test_permuted_groups_pick_rows_and_columns_by_label():
    # Column k of each basis measures outcome groups[k], so with the
    # identity channel and basis p(n, m) = ρ_kk where groups[k] = n = m'.
    weights = np.array([0.5, 0.3, 0.2])
    eye = np.eye(3)
    first = ProjectorFamily(basis=eye, groups=[2, 0, 1])
    second = ProjectorFamily(basis=eye, groups=[1, 2, 0])
    experiment = TpmExperiment(
        initial_state=DensityMatrix._spectral(weights, first.basis),
        first_measurement=first, channel=standard_channel("identity", 3),
        second_measurement=second)
    jd = joint_distribution(experiment)
    expected = np.zeros((3, 3))
    for k in range(3):
        expected[first.groups[k], second.groups[k]] = weights[k]
    assert jd.p_joint.tobytes() == expected.tobytes()
    assert jd.p_first.tolist() == [0.3, 0.2, 0.5]
    assert_bits_of_indicator_products(experiment)


@pytest.mark.parametrize("first_levels, second_levels", [
    ([0, 0, 1, 1, 1, 2], [0, 0, 0, 0, 3, 3]),
    ([0, 1, 2, 3], [0, 0, 1, 2]),
    ([0, 0, 1], [0, 1, 2]),
])
def test_degenerate_groups_keep_the_indicator_products(first_levels,
                                                       second_levels):
    rng = np.random.default_rng((107, len(first_levels), len(second_levels)))
    first = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian(first_levels, rng)))
    second = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian(second_levels, rng)))
    assert max(first.max_rank, second.max_rank) > 1
    channel = channel_from_unitary(haar_random_unitary(len(first_levels),
                                                       rng))
    assert_bits_of_indicator_products(
        experiment_of(first, channel, second, rng))
