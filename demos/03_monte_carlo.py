"""Monte Carlo estimation of exponential averages, with honest error bars.

The exact engine enumerates every outcome pair, but a laboratory only
sees sampled trajectories. This script draws trajectories from a random
full-support scenario and estimates <e^{-I}> at increasing sample counts
against the exact value, with the standard error s/sqrt(n) (which is
exactly the delete-one jackknife error of a sample mean). A sample is its
cell counts: counts[n, m] is the number of draws that landed on the
outcome pair (n, m) of the N x M joint table.

Exponential averages are the textbook hazard of this kind of estimation:
a large share of the average is carried by rare outcome pairs with large
weight e^{-I}. Until those pairs appear in the sample, the estimate and
its error bar both undershoot. Watch it happen below.
"""

import numpy as np

from tpm_lab import (
    DensityMatrix,
    TpmExperiment,
    channel_from_unitary,
    eigen_measurement,
    estimate_exponential_average,
    haar_random_unitary,
    hermitian_eig,
    joint_distribution,
    mutual_information_table,
    random_hermitian,
    sample_trajectories,
)


def random_state(dim, rng):
    """A full-rank state: a Haar-rotated spectrum drawn from [0.05, 1]."""
    weights = rng.uniform(0.05, 1.0, size=dim)
    u = haar_random_unitary(dim, rng)
    rho = (u * (weights / weights.sum())) @ u.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)


build_rng = np.random.default_rng(52)
experiment = TpmExperiment(
    initial_state=random_state(3, build_rng),
    first_measurement=eigen_measurement(*hermitian_eig(
        random_hermitian(3, build_rng))),
    channel=channel_from_unitary(haar_random_unitary(3, build_rng)),
    second_measurement=eigen_measurement(*hermitian_eig(
        random_hermitian(3, build_rng))),
)
jd = joint_distribution(experiment)
mi = mutual_information_table(jd)
print(f"exact exponential average: {mi.exp_average:.15f}")
heavy_cell = int(np.nanargmin(mi.i_table))  # the flat index n*M + m
biggest_weight = float(np.exp(-mi.i_table.flat[heavy_cell]))
print(f"rarest outcome pair: p(n, m) = {jd.p_joint.min():.2e}; "
      f"largest weight e^(-I) = {biggest_weight:.1f}")
print()

print("=== Convergence with sample count (one sampling seed) ===")
print(f"{'count':>8}  {'estimate':>12}  {'std error':>10}  {'z':>7}  "
      f"{'heavy hits':>10}")
for count in (100, 1_000, 10_000, 100_000):
    counts = sample_trajectories(jd, count, 7)
    est = estimate_exponential_average(counts, mi.i_table,
                                       exact=mi.exp_average)
    heavy_hits = int(counts.flat[heavy_cell])
    print(f"{count:8d}  {est.mean:12.6f}  {est.std_error:10.6f}  "
          f"{est.z_score:7.2f}  {heavy_hits:10d}")
print("Small counts can miss the rare heavy cells entirely; the estimate")
print("then sits low with an overconfident error bar (a wild z-score).")
print("Once the sample is large enough to visit them, the error bar")
print("becomes a fair measure of the remaining error.")
print()

print("=== Coverage across 50 sampling seeds at 10^4 samples ===")
zs = []
for seed in range(50):
    counts = sample_trajectories(jd, 10_000, seed)
    est = estimate_exponential_average(counts, mi.i_table,
                                       exact=mi.exp_average)
    zs.append(est.z_score)
zs = np.array(zs)
print(f"mean z = {zs.mean():+.3f}, sd(z) = {zs.std():.3f}, "
      f"max |z| = {np.abs(zs).max():.2f}")
print(f"{np.sum(np.abs(zs) <= 3.0)}/50 estimates fall within 3 standard "
      "errors of the exact value.")
print("The slight negative mean z is the residual heavy-tail bias at this")
print("sample size; it fades as the count grows.")
