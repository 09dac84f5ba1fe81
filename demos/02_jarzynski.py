"""The work identity <e^{-beta W}> = Z'/Z, and how to break it.

Measure energy against H, evolve, measure energy against H'. With a Gibbs
initial state, rank-1 energy eigenbases and unitary (more generally
unital) evolution, the exponential average of the work W = E'_m - E_n
equals the partition function ratio Z'/Z at every inverse temperature.
Non-unital evolution such as amplitude damping breaks the identity; the
column sums of p(m|n) diagnose exactly why.
"""

import numpy as np

from tpm_lab import (
    TpmExperiment,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    hermitian_eig,
    joint_distribution,
    standard_channel,
    work_statistics,
)

H_FIRST = np.diag([0.0, 1.0]).astype(complex)
H_SECOND = np.diag([0.0, 2.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def run(beta, channel, h_second):
    ens_first = gibbs_ensemble(H_FIRST, beta)
    ens_second = gibbs_ensemble(h_second, beta)
    experiment = TpmExperiment(
        initial_state=ens_first.state,
        first_measurement=eigen_measurement(*hermitian_eig(H_FIRST)),
        channel=channel,
        second_measurement=eigen_measurement(*hermitian_eig(h_second)),
    )
    jd = joint_distribution(experiment)
    return work_statistics(
        jd, experiment.first_measurement.energies,
        experiment.second_measurement.energies, beta,
        ens_first.partition_function, ens_second.partition_function)


ratio_label = "Z'/Z"
print("=== Qubit, Hadamard evolution: H = diag(0, 1) -> H' = diag(0, 2) ===")
print(f"{'beta':>6}  {'<e^-bW>':>20}  {ratio_label:>20}  {'defect':>10}")
for beta in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
    ws = run(beta, channel_from_unitary(HADAMARD), H_SECOND)
    print(f"{beta:6.1f}  {ws.jarzynski_lhs:20.15f}  "
          f"{ws.jarzynski_rhs:20.15f}  {ws.jarzynski_defect:10.1e}")
print("At beta = 1 the ratio is (1 + e^-2)/(1 + e^-1) = "
      f"{(1 + np.exp(-2)) / (1 + np.exp(-1)):.15f}.")

print()
print("=== Amplitude damping (non-unital): the identity fails ===")
print("Same Hamiltonian at both times, so Z'/Z = 1 and any deviation is")
print("entirely the channel's doing.")
print(f"{'gamma':>6}  {'<e^-bW>':>20}  {'defect':>10}  "
      f"{'colsums of p(m|n)':>20}")
for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
    ws = run(1.0, standard_channel("amplitude_damping", 2, gamma), H_FIRST)
    colsums = np.array2string(ws.conditional_colsums, precision=3)
    print(f"{gamma:6.2f}  {ws.jarzynski_lhs:20.15f}  "
          f"{ws.jarzynski_defect:10.3e}  {colsums:>20}")
print("The identity needs every column of p(m|n) to sum to 1 (a doubly")
print("stochastic conditional matrix). Unital channels deliver that;")
print("amplitude damping funnels probability toward the ground state and")
print("the work average drifts above Z'/Z.")
