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

from tpm_lab.linalg import haar_random_unitary, random_hermitian
from tpm_lab.quantum import (
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
