"""The exact Jarzynski check at every β·spread the exponent guard admits.

Under the Jarzynski conditions (a Gibbs state, measured first in its own
eigenbasis) ⟨e^{−βW}⟩ = Z'/Z for a unital channel. Two independent
checks of the engine's ⟨e^{−βW}⟩:

- a seeded loop over random Hamiltonians and Haar channels with β·spread
  up to 600, against a rounding bound derived below;
- the closed form of Talkner, Lutz and Hänggi (PRE 75, 050102, 2007),
  ln⟨e^{−βW}⟩ = logsumexp_m(−βE'_m + ln tr(Q_m Λ(I))) − ln Z, which
  holds for any channel and never forms the joint table.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tpm_lab.linalg import haar_random_unitary, hermitian_eig, random_hermitian
from tpm_lab.quantum import (
    DensityMatrix,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    standard_channel,
)
from tpm_lab.tpm import TpmExperiment, joint_distribution, work_statistics

U = np.finfo(float).eps / 2  # unit roundoff


def rounding_bound(dim: int, kraus_count: int, beta: float,
                   energies) -> float:
    """Bound on the relative error of ⟨e^{−βW}⟩ and of Z'/Z under the
    Jarzynski conditions: (29·d + K + 24·β·M)·u, M = max|E| over both
    spectra, which is at most 29·(d + β·M)·u for one Kraus operator.

    Counted to first order: one rounding per operation, relative to its
    result, and d roundings for a sum or inner product of length d.

    - Exponent arguments. Each −β(a − b), with |a − b| ≤ 2M, is off by
      at most 2u·2βM = 4uβM in absolute terms, and so is the relative
      error of its exponential. g_n and its normaliser S carry one each
      (8), e^{−βW} one (4), and Z and Z' each carry their shifted sum (4),
      the product β·E_0 and the subtraction in ln Z (1 each): 24·uβM.
    - Lengths. The sums S, Z and Z' (3d); the two products of length d in
      A = W†ΛV, which |A|² doubles (4d); the unitarity of the computed
      unitaries V, W and Λ (3d); the pairwise sum of the d² cells (at most
      d + 16 roundings); and the sum over the K Kraus operators (K): 11d.
    - The rest. The exponentials, divisions and logarithms, the products
      forming p(n,m) and each term, ln Z ≤ ln d twice in each of Z and Z',
      and the 16 of the pairwise sum: 32 + 4·ln d ≤ 18·d at d ≥ 2.
    """
    big = max(float(np.max(np.abs(e))) for e in energies)
    return (29 * dim + kraus_count + 24 * beta * big) * U


def gibbs_case(dim: int, seed: int):
    """Random H and H' at scale 1 with β set so that the wider spectrum
    has a β·spread drawn from [1, 600], and a Haar channel: the two
    ensembles and the channel."""
    rng = np.random.default_rng(seed)
    hamiltonians = [random_hermitian(dim, rng) for _ in range(2)]
    spread = max(np.ptp(np.linalg.eigvalsh(h)) for h in hamiltonians)
    beta = float(rng.uniform(1.0, 600.0)) / spread
    first, second = (gibbs_ensemble(h, beta) for h in hamiltonians)
    return first, second, channel_from_unitary(haar_random_unitary(dim, rng))


def evaluate(first, second, channel):
    """The experiment that prepares the Gibbs state of ``first``, measures
    it in its eigenbasis, applies ``channel`` and measures in the
    eigenbasis of ``second``, and its work statistics."""
    experiment = TpmExperiment(
        initial_state=first.state,
        first_measurement=eigen_measurement(first.energies, first.basis),
        channel=channel,
        second_measurement=eigen_measurement(second.energies, second.basis))
    ws = work_statistics(joint_distribution(experiment),
                         experiment.first_measurement.energies,
                         experiment.second_measurement.energies,
                         first.beta, first.partition_function,
                         second.partition_function)
    return experiment, ws


@pytest.mark.parametrize("dim", [2, 3, 16, 64])
def test_jarzynski_holds_to_rounding_up_to_beta_spread_600(dim):
    worst = 0.0
    for seed in range(60):
        first, second, channel = gibbs_case(dim, seed)
        _, ws = evaluate(first, second, channel)
        defect = abs(ws.jarzynski_lhs / ws.jarzynski_rhs - 1.0)
        bound = rounding_bound(dim, 1, first.beta,
                               (first.energies, second.energies))
        assert defect <= bound, (seed, defect, bound)
        worst = max(worst, defect / bound)
    print(f"dim {dim}: worst defect is {worst:.3f} of the bound")


def test_overflowing_work_factor_with_a_finite_term():
    # d = 2, seed 6 of the loop: β·spread is 444 and 510, the top first
    # level has p(n) ≈ 1.0e−193, and its cell with the lowest final level
    # has −βW ≈ 715, so e^{−βW} overflows while p·e^{−βW} ≈ 1e117 does
    # not, nor does Z'/Z ≈ 5.6e117.
    first, second, channel = gibbs_case(2, 6)
    experiment, ws = evaluate(first, second, channel)
    assert -first.beta * ws.work_table[1, 0] > math.log(np.finfo(float).max)
    assert 1e-194 < experiment.initial_state.weights[1] < 1e-192
    assert ws.jarzynski_rhs == pytest.approx(5.6e117, rel=0.01)
    bound = rounding_bound(2, 1, first.beta,
                           (first.energies, second.energies))
    assert abs(ws.jarzynski_lhs / ws.jarzynski_rhs - 1.0) <= bound


def tlh_log_average(first, second_measurement, channel) -> float:
    """ln⟨e^{−βW}⟩ = logsumexp_m(−βE'_m + ln tr(Q_m Λ(I))) − ln Z, for
    the Gibbs state of the ensemble ``first``.

    tr(Q_m Λ(I)) = Σ_i ‖W_m† Λ_i‖_F² + r·rank(Q_m), a sum of squares,
    with W_m the basis columns of outcome m; ln Z is a log-sum-exp over
    the first eigenvalues."""
    exponents = []
    for m, label in enumerate(second_measurement.energies):
        w_m = second_measurement.basis[:, second_measurement.groups == m]
        t_m = sum(float(np.sum(np.abs(w_m.conj().T @ op) ** 2))
                  for op in channel.kraus_ops) \
            + channel.replacement * w_m.shape[1]
        exponents.append(-first.beta * label + math.log(t_m)
                         if t_m > 0 else -math.inf)
    return logsumexp(exponents) - logsumexp(-first.beta * first.energies)


def logsumexp(values) -> float:
    values = np.asarray(values, dtype=float)
    top = float(np.max(values))
    return top + math.log(float(np.sum(np.exp(values - top))))


def tlh_channels(dim: int, rng: np.random.Generator):
    channels = [
        standard_channel("identity", dim),
        standard_channel("dephasing", dim, float(rng.uniform(0, 1))),
        standard_channel("depolarizing", dim, float(rng.uniform(0, 1))),
        channel_from_unitary(haar_random_unitary(dim, rng)),
    ]
    if dim == 2:
        channels.append(standard_channel("amplitude_damping", 2,
                                         float(rng.uniform(0, 1))))
    return channels


def rotated_spectrum(energies, rng: np.random.Generator) -> np.ndarray:
    u = haar_random_unitary(len(energies), rng)
    h = (u * energies) @ u.conj().T
    return (h + h.conj().T) / 2


@pytest.mark.parametrize("degenerate", [False, True],
                         ids=["nondegenerate", "degenerate"])
@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_work_average_matches_the_closed_form(dim, degenerate):
    # Outcome labels are group means, so a spectrum is either
    # non-degenerate or exactly degenerate: levels drawn from three
    # values, then rotated by a Haar unitary. Each spectrum is centred on
    # its midrange, so |β·E| ≤ 300 and Z'/Z stays in range.
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng((dim, seed, degenerate))
        spectra = []
        for _ in range(2):
            e = (rng.uniform(-1, 1, 3)[rng.integers(3, size=dim)]
                 if degenerate else rng.uniform(-1, 1, dim))
            spectra.append(e - (e.max() + e.min()) / 2)
        spread = max(np.ptp(e) for e in spectra) or 1.0
        beta = float(rng.uniform(1.0, 600.0)) / spread
        first, second = (gibbs_ensemble(rotated_spectrum(e, rng), beta)
                         for e in spectra)
        for channel in tlh_channels(dim, rng):
            experiment, ws = evaluate(first, second, channel)
            want = tlh_log_average(first, experiment.second_measurement,
                                   channel)
            got = math.log(ws.jarzynski_lhs)
            # Each side is within the rounding bound of the exact value.
            bound = 2 * rounding_bound(dim, len(channel), beta,
                                       (first.energies, second.energies))
            assert abs(got - want) <= bound, (seed, channel, got, want)
            worst = max(worst, abs(got - want) / bound)
    print(f"dim {dim}: worst gap is {worst:.3f} of the bound")


def general_rhs(state, first, channel, second, beta: float,
                moduli: bool = False) -> float:
    """tr[e^{−βH'} Λ(e^{βH} ρ̄)] from dense d×d matrices, for the state's
    spectral pair ρ = U diag(λ) U†, the first family's P_n = V_n V_n† and
    the second's e^{−βH'} = W diag(e^{−βE'}) W†, each column labelled by
    its outcome's energy: e^{βH} ρ̄ = Σ_n e^{βE_n} P_n ρ P_n, as the P_n
    are H's spectral projectors. With ``moduli``, the same computation on
    the moduli of every input, which has no cancellation."""
    part = np.abs if moduli else np.asarray
    u, v, w = part(state.basis), part(first.basis), part(second.basis)
    rho = (u * part(state.weights)) @ u.conj().T
    x = 0.0
    for n, energy in enumerate(first.energies):
        v_n = v[:, first.groups == n]
        x = x + math.exp(beta * energy) * (
            v_n @ (v_n.conj().T @ rho @ v_n) @ v_n.conj().T)
    b = (w * np.exp(-beta * np.asarray(second.energies))[second.groups]) \
        @ w.conj().T
    y = sum(part(op) @ x @ part(op).conj().T for op in channel.kraus_ops) \
        + channel.replacement * np.trace(x) * np.eye(len(x)) / len(x)
    return float(np.sum(b * y.T).real)


def engine_moduli(state, first, channel, second, beta: float) -> float:
    """Σ_nm e^{−β(E'_m − E_n)} p̂(n, m), with p̂ the engine's joint table
    (:func:`~tpm_lab.tpm.joint_distribution` on a state outside the
    first basis) computed on the moduli of its inputs."""
    v, w, u = abs(first.basis), abs(second.basis), abs(state.basis)
    rot = v.T @ u
    dephased = np.where(first.groups[:, None] == first.groups[None, :],
                        (rot * abs(state.weights)) @ rot.T, 0.0)
    born = channel.replacement / len(v) * dephased.diagonal()
    for op in channel.kraus_ops:
        a = w.T @ abs(op) @ v
        born = born + (a @ dephased) * a
    g = np.eye(len(first))[first.groups]
    h = np.eye(len(second))[second.groups]
    work = np.subtract.outer(second.energies, first.energies).T
    return float(np.sum(g.T @ born.T @ h * np.exp(-beta * work)))


def general_bound(state, first, channel, second, beta: float) -> float:
    """Bound on |jarzynski_lhs − tr[e^{−βH'} Λ(e^{βH} ρ̄)]| when both
    are computed from the same spectral pair, bases, labels and channel.

    Exactly, Σ p(n,m)·e^{−β(E'_m − E_n)} = Σ_m e^{−βE'_m} tr[Q_m Λ(X)]
    with X = Σ_n e^{βE_n} P_n ρ P_n, which is the right side; the engine
    forms the same sums in the measurement bases. Each side is built
    from its inputs by sums and products alone, so to first order it is
    off by at most γ_k = k·u times the same computation on the moduli
    of the inputs, where k counts the roundings along the longest path
    from an input to the result (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., §3.1 and §3.6): d + 2 for a complex
    inner product of length d, L − 1 for a sum of L terms, and 2 + β·|E|
    for e^{βE} at a computed argument (4βM + 2 for e^{−βW}, with
    W = E' − E formed first; M = max|E| over both spectra).

    - Right side: ρ = (Uλ)U† (d + 3), the four products of P_n ρ P_n
      (4d + 8), e^{βE_n}· and the sum over N ≤ d outcomes (d + 3 + βM),
      Λ's two products and its sum over K operators and r (2d + K + 6),
      e^{−βH'} (d + 3 + βM) and tr(BY) over d² entries (d² + 2):
      d² + 9d + K + 2βM + 25.
    - Engine: R = V†U (d + 2), (Rλ)R† (d + 3), A = W†ΛV (2d + 4) on each
      of the two factors of A·ρ̃ ⊙ Ā, with A·ρ̃ (d + 2) and the product (2),
      the sum over K and r (K + 2), the group sums (2d), e^{−βW}
      (4βM + 2), p·e^{−βW} (1) and the sum over d² cells (d²):
      d² + 9d + K + 4βM + 22.

    So k = d² + 9d + K + 4βM + 25 serves both. The engine also reads
    W†(I/d)W as I/d and tr(P_n ρ P_n) as tr(V_n† ρ V_n), which holds for
    unitary bases only: with δ the larger of ‖V†V − I‖_F and
    ‖W†W − I‖_F, the replacement term moves by at most 2·r·d·δ·S,
    S = e^{β(max E − min E')} the largest e^{−βW}.
    """
    dim = first.dim
    big = max(float(np.max(np.abs(e)))
              for e in (first.energies, second.energies))
    k = dim * dim + 9 * dim + len(channel) + 4 * beta * big + 25
    delta = max(float(np.linalg.norm(b.conj().T @ b - np.eye(dim)))
                for b in (first.basis, second.basis))
    scale = math.exp(beta * (max(first.energies) - min(second.energies)))
    return (k * U * (general_rhs(state, first, channel, second, beta, True)
                     + engine_moduli(state, first, channel, second, beta))
            + 2 * channel.replacement * dim * delta * scale)


def random_state(dim: int, rank: int, rng: np.random.Generator):
    """An explicit state of the given rank: random weights on ``rank``
    columns of a Haar unitary, validated from its dense matrix."""
    weights = np.zeros(dim)
    weights[:rank] = rng.uniform(0.1, 1.0, rank)
    u = haar_random_unitary(dim, rng)
    rho = (u * (weights / weights.sum())) @ u.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)


@pytest.mark.parametrize("degenerate", [False, True],
                         ids=["nondegenerate", "degenerate"])
@pytest.mark.parametrize("dim", [2, 3, 8, 16])
def test_work_average_of_any_state_matches_the_dense_trace(dim, degenerate):
    # Away from the Jarzynski conditions, with ρ any state measured first
    # in H's eigenbasis, Σ p(n,m)·e^{−β(E'_m − E_n)} = tr[e^{−βH'}
    # Λ(e^{βH} ρ̄)], ρ̄ = Σ_n P_n ρ P_n: the first measurement's dephasing
    # of coherences between, not within, degenerate levels. States of full
    # and deficient rank; spectra as in the closed-form test, a degenerate
    # one with at least one repeated level, and β·spread in [0.1, 5].
    worst = 0.0
    for seed in range(6):
        rng = np.random.default_rng((dim, seed, degenerate, 9))
        families = []
        for _ in range(2):
            e = (rng.uniform(-1, 1, 3)[rng.integers(3, size=dim)]
                 if degenerate else rng.uniform(-1, 1, dim))
            e[1] = e[0] if degenerate else e[1]
            families.append(eigen_measurement(
                *hermitian_eig(rotated_spectrum(e, rng))))
        first, second = families
        if degenerate:
            assert max(first.ranks) > 1
        spread = max(np.ptp(f.energies) for f in families) or 1.0
        beta = float(rng.uniform(0.1, 5.0)) / spread
        for rank in (dim, int(rng.integers(1, dim))):
            state = random_state(dim, rank, rng)
            for channel in tlh_channels(dim, rng):
                experiment = TpmExperiment(
                    initial_state=state, first_measurement=first,
                    channel=channel, second_measurement=second)
                lhs = work_statistics(
                    joint_distribution(experiment), first.energies,
                    second.energies, beta, 1.0, 1.0).jarzynski_lhs
                rhs = general_rhs(state, first, channel, second, beta)
                bound = general_bound(state, first, channel, second, beta)
                assert abs(lhs - rhs) <= bound, (seed, rank, channel,
                                                 lhs, rhs, bound)
                worst = max(worst, abs(lhs - rhs) / bound)
    print(f"dim {dim}: worst gap is {worst:.3f} of the bound")
