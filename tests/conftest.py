"""Shared scenario builders for the test suite."""

from __future__ import annotations

import numpy as np

from tpm_lab.linalg import haar_random_unitary
from tpm_lab.quantum import (
    KrausChannel,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    random_density_matrix,
    standard_channel,
)
from tpm_lab.tpm import TpmExperiment


def rank1_basis(u: np.ndarray, energies=None) -> ProjectorFamily:
    """Projector family of the columns of a unitary."""
    projectors = [np.outer(u[:, k], u[:, k].conj())
                  for k in range(u.shape[1])]
    return ProjectorFamily(projectors, energies)


def dense_projectors(family: ProjectorFamily) -> list[np.ndarray]:
    """The projectors P_n = V_n V_n† of a family, as dense matrices."""
    return [family.basis[:, family.groups == n]
            @ family.basis[:, family.groups == n].conj().T
            for n in range(len(family))]


def random_rank1_experiment(dim: int, rng: np.random.Generator,
                            channel: KrausChannel | None = None) -> TpmExperiment:
    """Full-rank random state, Haar rank-1 bases, Haar unitary channel."""
    state = random_density_matrix(dim, rng)
    first = rank1_basis(haar_random_unitary(dim, rng))
    second = rank1_basis(haar_random_unitary(dim, rng))
    if channel is None:
        channel = channel_from_unitary(haar_random_unitary(dim, rng))
    return TpmExperiment(initial_state=state, first_measurement=first,
                         channel=channel, second_measurement=second)


def random_nonunitary_channel(dim: int, rng: np.random.Generator) -> KrausChannel:
    """Dephasing or depolarizing at a random strength (amplitude damping
    too when dim is 2)."""
    kinds = ["dephasing", "depolarizing"]
    if dim == 2:
        kinds.append("amplitude_damping")
    kind = kinds[int(rng.integers(len(kinds)))]
    return standard_channel(kind, dim, float(rng.uniform(0.05, 0.95)))


def bounded_spectrum_hamiltonian(dim: int, rng: np.random.Generator,
                                 spread: float = 2.0) -> np.ndarray:
    """Random Hermitian with eigenvalues drawn uniformly from [0, spread].

    Keeps e^{-beta H} terms O(1) for beta up to ~10, so partition-function
    ratios stay order unity and absolute tolerances on the work identity
    are meaningful.
    """
    energies = np.sort(rng.uniform(0.0, spread, size=dim))
    u = haar_random_unitary(dim, rng)
    h = (u * energies) @ u.conj().T
    return (h + h.conj().T) / 2


def random_gibbs_setup(dim: int, rng: np.random.Generator):
    """Gibbs initial state of a random H, rank-1 energy bases of H and a
    random H', a Haar unitary channel, and both thermal ensembles.

    Returns (experiment, first_ensemble, second_ensemble, beta).
    """
    beta = float(rng.uniform(0.1, 10.0))
    h_first = bounded_spectrum_hamiltonian(dim, rng)
    h_second = bounded_spectrum_hamiltonian(dim, rng)
    first_ensemble = gibbs_ensemble(h_first, beta)
    second_ensemble = gibbs_ensemble(h_second, beta)
    experiment = TpmExperiment(
        initial_state=first_ensemble.state,
        first_measurement=eigen_measurement(h_first),
        channel=channel_from_unitary(haar_random_unitary(dim, rng)),
        second_measurement=eigen_measurement(h_second))
    return experiment, first_ensemble, second_ensemble, beta
