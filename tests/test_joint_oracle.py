"""The exact engine against a reference loop over dense projectors.

``reference_joint`` evaluates the Born rule term by term: one trace
product per outcome pair, with each channel applied to the dense
post-measurement state. It shares nothing with the engine but the
experiment's inputs, and costs O(N·M·d² + N·K·d³). The depolarizing
channel, stored as one Kraus operator plus a replacement weight, is
checked against its d² + 1 explicit Weyl Kraus operators.

``indicator_product_joint`` is the engine's own formula with every group
sum written as a product with a group-indicator matrix. The engine sums
each group by index instead, in column order, and reads in-order
families (group k is column k alone) directly. A rank-1 family in any
label order must give the indicator products' table bit for bit; a
degenerate one must give ``looped_group_joint``'s, which adds each
group's columns in a Python loop, and the indicator products' to within
rounding.
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
from tpm_lab import tpm
from tpm_lab.quantum import (
    DensityMatrix,
    KrausChannel,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    standard_channel,
)
from tpm_lab.tpm import (
    BOOKKEEPING_TOL,
    TpmExperiment,
    distribution_from_joint,
    joint_distribution,
    mutual_information_table,
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
    assert np.max(np.abs(jd.transition - reference_transition(experiment))) \
        <= TOL
    return jd


def reference_transition(experiment: TpmExperiment) -> np.ndarray:
    """T[j, k] = tr(|w_j⟩⟨w_j| Λ(|v_k⟩⟨v_k|)) over the columns v_k, w_j of
    the two bases, with Λ applied to each dense rank-1 projector."""
    v = experiment.first_measurement.basis
    w = experiment.second_measurement.basis
    dim = experiment.dim
    table = np.zeros((dim, dim))
    for k in range(dim):
        proj = np.outer(v[:, k], v[:, k].conj())
        evolved = sum(op @ proj @ op.conj().T
                      for op in experiment.channel.kraus_ops) \
            + experiment.channel.replacement * np.eye(dim) / dim
        for j in range(dim):
            table[j, k] = trace_product(np.outer(w[:, j], w[:, j].conj()),
                                        evolved)
    return table


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


def basis_tables(experiment: TpmExperiment):
    """(B, T, populations): the engine's measurement-basis tables.
    T = Σ_i |A_i|² + (r/d)·1; for a state diagonal in the first basis
    B = T·diag(λ), else B = Σ_i Re[(A_i ρ̃) ⊙ Ā_i] + (r/d)·1·diag ρ̃."""
    first = experiment.first_measurement
    v = first.basis
    w_dag = experiment.second_measurement.basis.conj().T
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
        transition += (a * a_conj).real
        if dephased is not None:
            born += ((a @ dephased) * a_conj).real
    r = experiment.channel.replacement
    transition += r / dim
    if dephased is None:
        born = transition * populations
    else:
        born += (r / dim) * populations
    return born, transition, populations


def indicator_product_joint(experiment: TpmExperiment):
    """(p_joint, factorization_residual, T) with the group sums written as
    products with the (column × outcome) indicator matrices G and H:
    p = Gᵀ Bᵀ H and p(n) = Gᵀ diag ρ̃, with G and H built for every
    family, rank-1 or not."""
    born, transition, populations = basis_tables(experiment)
    g = np.eye(len(experiment.first_measurement))[
        experiment.first_measurement.groups]
    h = np.eye(len(experiment.second_measurement))[
        experiment.second_measurement.groups]
    p = g.T @ born.T @ h
    p_factorized = (g.T @ transition.T @ h) * (g.T @ populations)[:, None]
    return p, float(np.max(np.abs(p - p_factorized))), transition


def looped_group_joint(experiment: TpmExperiment):
    """(p_joint, factorization_residual, T) with each group's rows, then
    its columns, added one at a time in column order."""
    born, transition, populations = basis_tables(experiment)
    first = experiment.first_measurement.groups
    second = experiment.second_measurement.groups
    n_out = len(experiment.first_measurement)
    m_out = len(experiment.second_measurement)

    def group_sums(table):
        rows = np.zeros((n_out, table.shape[1]))
        for k, n in enumerate(first):
            rows[n] += table[k]
        out = np.zeros((n_out, m_out))
        for j, m in enumerate(second):
            out[:, m] += rows[:, j]
        return out

    p = group_sums(born.T)
    p_first = np.zeros(n_out)
    for k, n in enumerate(first):
        p_first[n] += populations[k]
    p_factorized = group_sums(transition.T) * p_first[:, None]
    return p, float(np.max(np.abs(p - p_factorized))), transition


def assert_bits_of(experiment: TpmExperiment, oracle=indicator_product_joint):
    jd = joint_distribution(experiment)
    p, residual, transition = oracle(experiment)
    expected = distribution_from_joint(p, factorization_residual=residual,
                                       transition=transition)
    for name, value in expected._asdict().items():
        mine = getattr(jd, name)
        if isinstance(value, np.ndarray):
            assert mine.dtype == value.dtype and mine.shape == value.shape
            assert mine.tobytes() == value.tobytes(), name
        else:
            assert repr(mine) == repr(value), name
    assert not jd.transition.flags.writeable
    return jd


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
    jd = assert_bits_of(experiment)
    assert_matches_reference(experiment)
    if gibbs and first.in_order and second.in_order:
        # p = (T·λ)ᵀ is the factorized table entry for entry.
        assert jd.factorization_residual == 0.0


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
    assert_bits_of(experiment)


@pytest.mark.parametrize("first_levels, second_levels", [
    ([0, 0, 1, 1, 1, 2], [0, 0, 0, 0, 3, 3]),
    ([0, 1, 2, 3], [0, 0, 1, 2]),
    ([0, 0, 1], [0, 1, 2]),
])
@pytest.mark.parametrize("gibbs", [True, False], ids=["gibbs", "coherent"])
def test_degenerate_groups_sum_their_columns_in_order(first_levels,
                                                      second_levels, gibbs):
    rng = np.random.default_rng((107, len(first_levels), len(second_levels)))
    first = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian(first_levels, rng)))
    second = eigen_measurement(*hermitian_eig(
        degenerate_hamiltonian(second_levels, rng)))
    assert max(first.max_rank, second.max_rank) > 1
    channel = channel_from_unitary(haar_random_unitary(len(first_levels),
                                                       rng))
    experiment = experiment_of(first, channel, second, rng)
    if gibbs:
        weights = rng.uniform(0.05, 1.0, first.dim)
        experiment = experiment._replace(initial_state=DensityMatrix._spectral(
            weights / weights.sum(), first.basis))
    jd = assert_bits_of(experiment, looped_group_joint)
    p, residual, _ = indicator_product_joint(experiment)
    assert np.max(np.abs(jd.p_joint - p)) <= TOL
    assert abs(jd.factorization_residual - residual) <= TOL


def test_labels_in_any_order_with_a_zero_rank_group():
    # Outcome 2 has no column: its row (and column) of the table is zero.
    rng = np.random.default_rng(112)
    first, second = (ProjectorFamily(basis=haar_random_unitary(4, rng),
                                     groups=groups)
                     for groups in ([3, 0, 3, 1], [4, 1, 0, 1]))
    assert first.ranks == (1, 1, 0, 2) and second.ranks == (1, 2, 0, 0, 1)
    experiment = experiment_of(
        first, random_nonunitary_channel(4, rng), second, rng)
    jd = assert_bits_of(experiment, looped_group_joint)
    assert not jd.p_joint[2].any()
    assert not jd.p_joint[:, 2:4].any()
    assert_matches_reference(experiment)


def test_in_order_is_group_k_on_column_k():
    rng = np.random.default_rng(109)
    u = haar_random_unitary(3, rng)
    assert eigen_measurement(*hermitian_eig(np.diag([0.0, 1.0, 2.0]))).in_order
    assert not eigen_measurement(*hermitian_eig(np.diag([0.0, 0.0, 2.0]))) \
        .in_order
    assert ProjectorFamily([np.outer(u[:, k], u[:, k].conj())
                            for k in range(3)]).in_order
    assert not ProjectorFamily([u[:, :2] @ u[:, :2].conj().T,
                                np.outer(u[:, 2], u[:, 2].conj())]).in_order
    assert ProjectorFamily(basis=u, groups=[0, 1, 2]).in_order
    assert not ProjectorFamily(basis=u, groups=[2, 0, 1]).in_order
    # A trailing zero projector keeps groups 0..d−1 but adds an outcome.
    assert not ProjectorFamily([np.outer(u[:, k], u[:, k].conj())
                                for k in range(3)] + [np.zeros((3, 3))]) \
        .in_order


def spy_group_sums(monkeypatch, experiment: TpmExperiment):
    """The joint table of ``experiment``, and the labels of every group
    sum the engine formed on the way, in call order."""
    calls = []
    sum_by_label = tpm._sum_by_label

    def spy(rows, labels, count):
        calls.append((labels.tolist(), count))
        return sum_by_label(rows, labels, count)

    with monkeypatch.context() as patch:
        patch.setattr(tpm, "_sum_by_label", spy)
        jd = joint_distribution(experiment)
    return jd, calls


@pytest.mark.parametrize("first_groups, second_groups", [
    ([0, 1, 2], [0, 1, 2]), ([2, 0, 1], [0, 1, 2]), ([0, 1, 2], [1, 2, 0]),
    ([2, 0, 1], [1, 2, 0])])
def test_only_in_order_families_skip_the_group_sums(
        monkeypatch, first_groups, second_groups):
    rng = np.random.default_rng((110, *first_groups, *second_groups))
    first, second = (ProjectorFamily(basis=haar_random_unitary(3, rng),
                                     groups=groups)
                     for groups in (first_groups, second_groups))
    experiment = experiment_of(
        first, channel_from_unitary(haar_random_unitary(3, rng)), second, rng)
    _, calls = spy_group_sums(monkeypatch, experiment)
    # The Born table, then the transition table: each summed over the
    # families that are not in order, first, then second.
    summed = [(groups, 3) for groups in (first_groups, second_groups)
              if groups != [0, 1, 2]]
    assert calls == 2 * summed
    assert_bits_of(experiment)


@pytest.mark.parametrize("padded", ["first", "second"])
def test_a_trailing_zero_projector_keeps_the_group_sums(monkeypatch, padded):
    # Groups 0..d−1 plus a rank-0 outcome: the table has d + 1 rows (or
    # columns), one of them zero, so it cannot be read off born.T.
    rng = np.random.default_rng((111, padded == "first"))

    def family(pad):
        u = haar_random_unitary(2, rng)
        projectors = [np.outer(u[:, k], u[:, k].conj()) for k in range(2)]
        return ProjectorFamily(projectors + ([np.zeros((2, 2))] if pad
                                             else []))

    first = family(padded == "first")
    second = family(padded == "second")
    experiment = experiment_of(
        first, channel_from_unitary(haar_random_unitary(2, rng)), second, rng)
    jd, calls = spy_group_sums(monkeypatch, experiment)
    assert calls == [([0, 1], 3)] * 2
    assert jd.p_joint.shape == ((3, 2) if padded == "first" else (2, 3))
    assert not (jd.p_joint[2] if padded == "first" else jd.p_joint[:, 2]).any()
    assert_bits_of(experiment)


def decay_channel(dim: int, gamma: float, rng) -> KrausChannel:
    """Each level k ≥ 1 decays to level 0 with probability γ, then a Haar
    unitary acts: Λ(I) ≠ I for γ > 0 and d ≥ 2, so the map is non-unital
    at every dimension, not only at d = 2."""
    k0 = np.diag([1.0] + [np.sqrt(1.0 - gamma)] * (dim - 1)).astype(complex)
    jumps = [np.sqrt(gamma) * np.outer(np.eye(dim)[0], np.eye(dim)[k])
             for k in range(1, dim)]
    u = haar_random_unitary(dim, rng)
    return KrausChannel([u @ op for op in [k0, *jumps]])


def assert_bookkeeping(jd, experiment: TpmExperiment):
    """exp_avg_mi + support_defect = 1 within BOOKKEEPING_TOL, and both
    terms equal those summed from the reference table on the engine's
    support: Σ p(n)p(m) over the support and, separately, over the rest."""
    mi = mutual_information_table(jd)
    assert abs(mi.exp_average + mi.support_defect - 1.0) <= BOOKKEEPING_TOL
    p, _ = reference_joint(experiment)
    product = np.outer(p.sum(axis=1), p.sum(axis=0))
    assert abs(mi.exp_average - product[jd.support_mask].sum()) <= TOL
    assert abs(mi.support_defect - product[~jd.support_mask].sum()) <= TOL


@pytest.mark.parametrize("epsilon", [0.0, 1e-12, 1e-3])
@pytest.mark.parametrize("gibbs", [True, False], ids=["gibbs", "coherent"])
@pytest.mark.parametrize("unital", [True, False],
                         ids=["unital", "non_unital"])
def test_bookkeeping_identity_on_seeded_experiments(epsilon, gibbs, unital):
    # Through the full engine and, for a Gibbs state, through the table a
    # β retune forms from the transition table kept at another β, which
    # must equal the full engine's bit for bit. A coherent state's table
    # does not depend on β, so a retune reuses it whole.
    rng = np.random.default_rng((113, int(epsilon * 1e12), gibbs, unital))
    for _ in range(12):
        dim = int(rng.integers(1 if unital else 2, 9))
        levels = rng.integers(0, 3, dim) * 0.7  # degenerate, or not
        first = gibbs_ensemble(degenerate_hamiltonian(levels, rng),
                               float(rng.uniform(0.1, 3.0)))
        second = eigen_measurement(*hermitian_eig(degenerate_hamiltonian(
            rng.uniform(0.0, 2.0, dim), rng)))
        strength = float(rng.uniform(0.05, 0.95))
        if not unital:
            channel = decay_channel(dim, strength, rng)
        elif rng.random() < 0.5:
            channel = channel_from_unitary(haar_random_unitary(dim, rng))
        else:
            channel = standard_channel(
                ("dephasing", "depolarizing")[int(rng.integers(2))], dim,
                strength)
        assert (channel.unitality_residual <= 1e-12) == unital
        experiment = TpmExperiment(
            initial_state=(first.state if gibbs
                           else random_density_matrix(dim, rng)),
            first_measurement=eigen_measurement(first.energies, first.basis),
            channel=channel, second_measurement=second)
        jd = joint_distribution(experiment, epsilon)
        assert_bookkeeping(jd, experiment)
        if gibbs:
            retuned = experiment._replace(
                initial_state=first.at_beta(first.beta * 1.7).state)
            kept = joint_distribution(retuned, epsilon,
                                      transition=jd.transition)
            fresh = joint_distribution(retuned, epsilon)
            for name, value in fresh._asdict().items():
                mine = getattr(kept, name)
                if isinstance(value, np.ndarray):
                    assert mine.tobytes() == value.tobytes(), name
                else:
                    assert repr(mine) == repr(value), name
            assert_bookkeeping(kept, retuned)
