"""The exact engine against a reference loop over dense projectors.

``reference_joint`` evaluates the Born rule term by term: one trace
product per outcome pair, with each channel applied to the dense
post-measurement state. It shares nothing with the engine but the
experiment's inputs, and costs O(N·M·d² + N·K·d³).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import dense_projectors, random_rank1_experiment
from tpm_lab.linalg import haar_random_unitary
from tpm_lab.quantum import (
    DensityMatrix,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    random_density_matrix,
    standard_channel,
)
from tpm_lab.tpm import TpmExperiment, joint_distribution

TOL = 1e-14


def trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re tr(a @ b) without forming the product matrix."""
    return float(np.einsum("ij,ji->", a, b).real)


def reference_joint(experiment: TpmExperiment, firsts=None, seconds=None):
    """(p_joint, factorization_residual, p_second_direct) by direct loops.

    ``firsts`` and ``seconds`` default to the dense projectors of the two
    measurements; pass the original matrices of an explicit family to
    keep the reference independent of its stored basis.
    """
    rho = experiment.initial_state.matrix
    kraus = experiment.channel.kraus_ops
    if firsts is None:
        firsts = dense_projectors(experiment.first_measurement)
    if seconds is None:
        seconds = dense_projectors(experiment.second_measurement)
    p = np.zeros((len(firsts), len(seconds)))
    p_factorized = np.zeros_like(p)
    for n, proj in enumerate(firsts):
        dephased = proj @ rho @ proj
        evolved = sum(op @ dephased @ op.conj().T for op in kraus)
        channel_of_proj = sum(op @ proj @ op.conj().T for op in kraus)
        weight = trace_product(proj, rho)
        for m, q in enumerate(seconds):
            # tr{Q τ Q} = tr{Q τ} since Q is idempotent.
            p[n, m] = trace_product(q, evolved)
            p_factorized[n, m] = trace_product(q, channel_of_proj) * weight
    evolved_rho = sum(op @ rho @ op.conj().T for op in kraus)
    p_direct = np.array([trace_product(q, evolved_rho) for q in seconds])
    return p, float(np.max(np.abs(p - p_factorized))), p_direct


def assert_matches_reference(experiment, firsts=None, seconds=None):
    jd = joint_distribution(experiment)
    p, residual, p_direct = reference_joint(experiment, firsts, seconds)
    assert np.max(np.abs(jd.p_joint - p)) <= TOL
    assert abs(jd.factorization_residual - residual) <= TOL
    assert np.max(np.abs(jd.p_second_direct - p_direct)) <= TOL
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
    first = eigen_measurement(degenerate_hamiltonian([0, 0, 1, 1, 1, 2], rng))
    second = eigen_measurement(degenerate_hamiltonian([0, 0, 0, 0, 3, 3], rng))
    assert first.ranks == (2, 3, 1) and second.ranks == (4, 2)
    channel = channel_from_unitary(haar_random_unitary(6, rng))
    assert_matches_reference(experiment_of(first, channel, second, rng))


def test_rank2_first_projector_with_coherent_state():
    first = ProjectorFamily([np.diag([1.0, 1.0, 0.0]),
                             np.diag([0.0, 0.0, 1.0])], [0.0, 1.0])
    second = eigen_measurement(np.diag([0.0, 1.0, 2.0]))
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
])
def test_kraus_channels(kind, levels):
    dim = len(levels)
    rng = np.random.default_rng((105, dim))
    channel = standard_channel(kind, dim, 0.37)
    if kind == "depolarizing":
        assert len(channel) == dim * dim + 1
    first = eigen_measurement(degenerate_hamiltonian(levels, rng))
    second = eigen_measurement(degenerate_hamiltonian(range(dim), rng))
    assert_matches_reference(experiment_of(first, channel, second, rng))
