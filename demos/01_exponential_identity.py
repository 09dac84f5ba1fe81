"""The exponential average of the single-trial mutual information is 1.

A two-point-measurement experiment produces an outcome pair (n, m) with
joint probability p(n, m). The single-trial mutual information
I_nm = ln p(m|n) - ln p(m) fluctuates from trial to trial, yet its
exponential average obeys

    <e^{-I}> = sum_{nm} p(n, m) p(m) / p(m|n) = 1

whenever every outcome pair has nonzero probability, purely by
conservation of probability. This script builds one random scenario and
one deterministic scenario and shows the identity and its bookkeeping.
"""

import numpy as np

from tpm_lab import (
    DensityMatrix,
    TpmExperiment,
    channel_from_unitary,
    eigen_measurement,
    haar_random_unitary,
    hermitian_eig,
    joint_distribution,
    maximally_mixed,
    mutual_information_table,
    random_hermitian,
    standard_channel,
)


def random_state(dim, rng):
    """A full-rank state: a Haar-rotated spectrum drawn from [0.05, 1]."""
    weights = rng.uniform(0.05, 1.0, size=dim)
    u = haar_random_unitary(dim, rng)
    rho = (u * (weights / weights.sum())) @ u.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)


rng = np.random.default_rng(2)

print("=== Random qutrit: Haar unitary evolution, full support ===")
experiment = TpmExperiment(
    initial_state=random_state(3, rng),
    first_measurement=eigen_measurement(*hermitian_eig(
        random_hermitian(3, rng))),
    channel=channel_from_unitary(haar_random_unitary(3, rng)),
    second_measurement=eigen_measurement(*hermitian_eig(
        random_hermitian(3, rng))),
)
jd = joint_distribution(experiment)
mi = mutual_information_table(jd)

np.set_printoptions(precision=6, suppress=True)
print("joint p(n, m):")
print(jd.p_joint)
print("single-trial mutual information I_nm:")
print(mi.i_table)
print(f"I_nm fluctuates over [{np.nanmin(mi.i_table):+.4f}, "
      f"{np.nanmax(mi.i_table):+.4f}],")
print(f"its plain average is      {mi.average_mi:.6f}  (>= 0 by Jensen),")
print(f"its exponential average is {mi.exp_average:.15f}")
print(f"deviation from 1:          {abs(mi.exp_average - 1.0):.3e}")

print()
print("=== Identity channel, same basis: deterministic conditionals ===")
family = eigen_measurement(*hermitian_eig(np.diag([0.0, 1.0])))
experiment = TpmExperiment(
    initial_state=maximally_mixed(2),
    first_measurement=family,
    channel=standard_channel("identity", 2),
    second_measurement=family,
)
mi = mutual_information_table(joint_distribution(experiment))
print("Here p(m|n) is 0 or 1, so cells with p(n, m) = 0 are excluded")
print("from the average and their probability-product mass is reported")
print("as a support defect instead:")
print(f"exponential average = {mi.exp_average}  (= sum_n p(n)^2)")
print(f"support defect      = {mi.support_defect}")
print(f"their sum           = {mi.exp_average + mi.support_defect}  "
      "(the bookkeeping identity)")
