"""Tests for trajectory sampling and the exponential-average estimator."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import random_rank1_experiment
from tpm_lab.errors import ValidationError
from tpm_lab.sampler import estimate_exponential_average, sample_trajectories
from tpm_lab.tpm import (
    distribution_from_joint,
    joint_distribution,
    mutual_information_table,
)

# 99.9% quantile of the chi-square distribution with 8 degrees of freedom
# (9 joint cells, 1 normalization constraint).
CHI2_8_Q999 = 26.12448155837614


def uniform_2x2():
    return distribution_from_joint(np.full((2, 2), 0.25))


def cell_counts(samples, shape) -> np.ndarray:
    """Number of draws that landed in each cell (n, m)."""
    ns, ms = samples
    flat = np.ravel_multi_index((ns, ms), shape)
    return np.bincount(flat, minlength=shape[0] * shape[1]).reshape(shape)


def reference_draw(jd, count, rng):
    """Reference inverse-CDF draw: the second outcome of every draw is found
    by comparing u against the whole gathered row CDF (a count×M array)."""
    p = np.where(jd.support_mask, jd.p_joint, 0.0)
    row_mass = p.sum(axis=1)
    first_cdf = np.cumsum(row_mass) / float(row_mass.sum())
    ns = np.searchsorted(first_cdf, rng.random(count), side="right")
    ns = np.minimum(ns, p.shape[0] - 1)
    row_cdfs = np.cumsum(p, axis=1)
    row_totals = row_cdfs[:, -1].copy()
    row_totals[row_totals <= 0] = 1.0
    row_cdfs /= row_totals[:, None]
    u = rng.random(count)
    ms = np.sum(row_cdfs[ns] <= u[:, None], axis=1)
    ms = np.minimum(ms, p.shape[1] - 1)
    return ns, ms


def fixed_qutrit_scenario():
    """A fixed full-support scenario whose I_nm actually varies, so the
    estimator has nonzero spread and z-scores are defined."""
    experiment = random_rank1_experiment(3, np.random.default_rng(52))
    jd = joint_distribution(experiment)
    assert jd.full_support
    return jd, mutual_information_table(jd)


def assert_same_stream(samples, reference):
    for got, want in zip(samples, reference):
        assert got.dtype == np.intp
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dim", [3, 16])
def test_stream_matches_reference_draw(dim):
    for seed in range(5):
        jd = joint_distribution(
            random_rank1_experiment(dim, np.random.default_rng(600 + seed)))
        samples = sample_trajectories(jd, 20_000,
                                      np.random.default_rng(700 + seed))
        reference = reference_draw(jd, 20_000,
                                   np.random.default_rng(700 + seed))
        assert_same_stream(samples, reference)


def test_stream_matches_reference_with_zero_mass_row_and_cells():
    # Row 1 has no mass; zero cells and the sub-epsilon cell (0, 3) have
    # zero-width CDF intervals.
    table = np.array([[0.2, 0.0, 0.1, 5e-4],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.3, 0.05, 0.0, 0.3495]])
    jd = distribution_from_joint(table, support_epsilon=1e-3)
    for seed in range(5):
        samples = sample_trajectories(jd, 20_000,
                                      np.random.default_rng(800 + seed))
        reference = reference_draw(jd, 20_000,
                                   np.random.default_rng(800 + seed))
        assert_same_stream(samples, reference)
        counts = cell_counts(samples, jd.shape)
        assert np.all(counts[~jd.support_mask] == 0)
        assert np.all(counts[jd.support_mask] > 0)


def test_point_mass_distribution():
    jd = distribution_from_joint(np.array([[1.0]]))
    samples = sample_trajectories(jd, 50, np.random.default_rng(0))
    ns, ms = samples
    assert np.all(ns == 0) and np.all(ms == 0)
    report = estimate_exponential_average(samples, np.array([[0.7]]))
    assert report.sample_count == 50
    assert report.mean == pytest.approx(np.exp(-0.7), abs=1e-15)
    assert report.std_error == 0.0
    assert report.z_score is None


def test_uniform_marginal_frequencies():
    count = 10_000
    samples = sample_trajectories(uniform_2x2(), count,
                                  np.random.default_rng(3))
    ns, ms = samples
    # Binomial(10^4, 1/2) has sigma = 50; allow 4 sigma.
    assert abs(ns.sum() - count / 2) < 200
    assert abs(ms.sum() - count / 2) < 200
    cells = cell_counts(samples, (2, 2))
    # Binomial(10^4, 1/4) has sigma ~ 43; allow 4 sigma.
    assert np.all(np.abs(cells - count / 4) < 175)


def test_sampling_is_deterministic_per_seed():
    jd = uniform_2x2()
    a = sample_trajectories(jd, 100, np.random.default_rng(11))
    b = sample_trajectories(jd, 100, np.random.default_rng(11))
    c = sample_trajectories(jd, 100, np.random.default_rng(12))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_never_samples_off_support():
    jd = distribution_from_joint(np.diag([0.5, 0.5]))
    ns, ms = sample_trajectories(jd, 1000, np.random.default_rng(5))
    assert np.all(ns == ms)


def test_zero_width_cells_never_selected():
    jd = distribution_from_joint(np.array([[0.5, 0.0, 0.5]]))
    _, ms = sample_trajectories(jd, 1000, np.random.default_rng(17))
    assert np.all(np.isin(ms, (0, 2)))


def test_degenerate_distribution_raises():
    # An empty support is rejected when the table is built, so the sampler
    # never sees one.
    with pytest.raises(ValidationError) as err:
        distribution_from_joint(np.array([[1.0]]), support_epsilon=2.0)
    assert err.value.invariant == "empty_support"


def test_count_and_sample_validation():
    jd = uniform_2x2()
    with pytest.raises(ValueError):
        sample_trajectories(jd, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        estimate_exponential_average((np.empty(0, np.intp),
                                      np.empty(0, np.intp)), np.zeros((2, 2)))


def test_nonfinite_weight_rejected():
    samples = (np.array([0]), np.array([1]))
    weights = np.array([[0.0, np.nan], [0.0, 0.0]])
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        estimate_exponential_average(samples, weights)


def test_all_zero_weights():
    samples = sample_trajectories(uniform_2x2(), 200,
                                  np.random.default_rng(1))
    report = estimate_exponential_average(samples, np.zeros((2, 2)),
                                          exact=1.0)
    assert report.mean == 1.0
    assert report.std_error == 0.0
    assert report.exact_value == 1.0
    assert report.z_score is None


def test_single_sample_has_zero_std_error():
    samples = sample_trajectories(uniform_2x2(), 1,
                                  np.random.default_rng(9))
    report = estimate_exponential_average(samples,
                                          np.arange(4.0).reshape(2, 2))
    assert report.sample_count == 1
    assert report.std_error == 0.0
    assert report.z_score is None


def test_jackknife_matches_classic_standard_error():
    # For a plain sample mean the delete-one jackknife reduces exactly to
    # s / sqrt(n) with s the ddof=1 standard deviation.
    weights = np.array([[0.1, 0.7], [0.3, 1.9]])
    samples = sample_trajectories(uniform_2x2(), 500,
                                  np.random.default_rng(23))
    report = estimate_exponential_average(samples, weights)
    values = np.array([np.exp(-weights[n, m]) for n, m in zip(*samples)])
    n = len(values)
    classic = np.std(values, ddof=1) / np.sqrt(n)
    leave_one_out = (values.sum() - values) / (n - 1)
    jackknife = np.sqrt((n - 1) / n
                        * np.sum((leave_one_out - leave_one_out.mean()) ** 2))
    assert report.mean == pytest.approx(values.mean(), abs=1e-15)
    assert report.std_error == pytest.approx(classic, rel=1e-12)
    assert report.std_error == pytest.approx(jackknife, rel=1e-12)


def test_z_score_within_three_sigma_on_full_support():
    jd, mi = fixed_qutrit_scenario()
    samples = sample_trajectories(jd, 100_000, np.random.default_rng(99))
    report = estimate_exponential_average(samples, mi.i_table,
                                          exact=mi.exp_average)
    assert report.exact_value == pytest.approx(1.0, abs=1e-10)
    assert abs(report.z_score) <= 3.0


def test_z_scores_roughly_standard_normal_across_seeds():
    jd, mi = fixed_qutrit_scenario()
    zs = []
    for seed in range(200):
        samples = sample_trajectories(jd, 10_000,
                                      np.random.default_rng(4000 + seed))
        report = estimate_exponential_average(samples, mi.i_table,
                                              exact=mi.exp_average)
        zs.append(report.z_score)
    zs = np.array(zs)
    assert abs(zs.mean()) <= 0.3
    assert 0.7 <= zs.std() <= 1.4


def test_empirical_frequencies_match_joint_chi_square():
    jd, _ = fixed_qutrit_scenario()
    count = 100_000
    passes = 0
    seeds = 40
    for seed in range(seeds):
        samples = sample_trajectories(jd, count,
                                      np.random.default_rng(5000 + seed))
        observed = cell_counts(samples, jd.shape)
        expected = count * jd.p_joint
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        # 9 cells, 1 constraint: 8 degrees of freedom.
        if statistic <= CHI2_8_Q999:
            passes += 1
    assert passes >= int(0.95 * seeds)
