"""Shared scenario builders for the test suite."""

from __future__ import annotations

import numpy as np

from tpm_lab.linalg import haar_random_unitary, hermitian_eig
from tpm_lab.quantum import (
    DensityMatrix,
    KrausChannel,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    standard_channel,
)
from tpm_lab.tpm import TpmExperiment

# Smallest eigenvalue weight, before normalization, of random_density_matrix.
RANDOM_STATE_MIN_WEIGHT = 0.05


# A near-product joint table whose smallest cell sits just below a support
# epsilon of 0.0021. On the remaining support the average mutual
# information is negative (−1.057e−3) yet above its log-sum bound
# P(S)·ln(P(S)/Q(S)) = −1.099e−3.
RESTRICTED_SUPPORT_JOINT = np.array([[0.002, 0.014, 0.014],
                                     [0.014, 0.2355, 0.2355],
                                     [0.014, 0.2355, 0.2355]])
RESTRICTED_SUPPORT_EPSILON = 0.0021


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


def dense(state: DensityMatrix) -> np.ndarray:
    """The dense matrix ρ = U diag(λ) U† of a state's spectral pair."""
    return (state.basis * state.weights) @ state.basis.conj().T


def apply_kraus(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Σ_i Λ_i ρ Λ_i† + r·tr(ρ)·I/d, validated as a state, so a channel that
    breaks trace or positivity fails loudly."""
    m = dense(rho)
    out = sum(op @ m @ op.conj().T for op in channel.kraus_ops) \
        + channel.replacement * np.trace(m) * np.eye(rho.dim) / rho.dim
    return DensityMatrix((out + out.conj().T) / 2)


def random_density_matrix(dim: int, rng: np.random.Generator) -> DensityMatrix:
    """Random full-rank state: Haar-rotated spectrum bounded away from zero
    (weights drawn from [RANDOM_STATE_MIN_WEIGHT, 1], then normalized)."""
    weights = rng.uniform(RANDOM_STATE_MIN_WEIGHT, 1.0, size=dim)
    weights /= weights.sum()
    u = haar_random_unitary(dim, rng)
    rho = (u * weights) @ u.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)


def weyl_depolarizing(dim: int, p: float) -> KrausChannel:
    """The depolarizing channel ρ ↦ (1−p)ρ + p·I/d as d² + 1 explicit Kraus
    operators and no replacement weight: √(1−p)·I, then the Weyl twirl
    (√p/d)·X^a Z^b with (X^a Z^b)_jk = δ_{j, k+a mod d}·ω^{bk}, ω = e^{2πi/d},
    since (1/d²) Σ_ab W_ab ρ W_ab† = tr(ρ)·I/d."""
    k = np.arange(dim)
    ops = [np.sqrt(1 - p) * np.eye(dim)]
    for a in range(dim):
        shift = np.eye(dim)[:, (k + a) % dim]  # column k is |k + a mod d⟩
        for b in range(dim):
            phases = np.exp(2j * np.pi * (b * k % dim) / dim)
            ops.append(np.sqrt(p) / dim * shift * phases)
    return KrausChannel(ops)


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
        first_measurement=eigen_measurement(*hermitian_eig(h_first)),
        channel=channel_from_unitary(haar_random_unitary(dim, rng)),
        second_measurement=eigen_measurement(*hermitian_eig(h_second)))
    return experiment, first_ensemble, second_ensemble, beta
