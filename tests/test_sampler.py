"""Tests for trajectory sampling and the exponential-average estimator."""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_rank1_experiment
from tpm_lab import cli
from tpm_lab.errors import ValidationError
from tpm_lab.sampler import (
    MAX_COUNT,
    EstimatorReport,
    estimate_exponential_average,
    sample_trajectories,
)
from tpm_lab.tpm import (
    distribution_from_joint,
    joint_distribution,
    mutual_information_table,
    work_statistics,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

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


def mask_loop_draw(jd, count, rng):
    """Oracle draw, one boolean mask per first outcome: row n's second
    outcomes come from scanning all ``count`` draws for ns == n, which is
    O(N·count) but consumes the generator exactly as the sampler must."""
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
    ms = np.empty(count, dtype=np.intp)
    for n in range(p.shape[0]):
        drawn = ns == n
        ms[drawn] = np.searchsorted(row_cdfs[n], u[drawn], side="right")
    ms = np.minimum(ms, p.shape[1] - 1)
    return ns, ms


def gather_exp_estimate(samples, weight_table, exact=None):
    """Oracle estimator: gather the sampled weights, then exponentiate only
    those. The reliability fields come straight from their definitions,
    (Σw)²/Σw² and max w/Σw over the gathered values."""
    ns, ms = samples
    weights = np.asarray(weight_table, dtype=float)[ns, ms]
    if not np.all(np.isfinite(weights)):
        bad = int(np.flatnonzero(~np.isfinite(weights))[0])
        raise ValueError(
            f"non-finite weight at sampled pair "
            f"({ns[bad]}, {ms[bad]}): {weights[bad]!r}")
    values = np.exp(-weights)
    n = values.size
    mean = float(values.mean())
    std_error = 0.0
    if n > 1:
        std_error = float((values - values[0]).std(ddof=1) / np.sqrt(n))
    z_score = None
    if exact is not None and std_error > 0:
        z_score = (mean - float(exact)) / std_error
    total = float(values.sum())
    return EstimatorReport(
        sample_count=n, mean=mean, std_error=std_error,
        effective_sample_size=total ** 2 / float(np.sum(values ** 2)),
        max_weight_share=float(values.max()) / total,
        exact_value=None if exact is None else float(exact),
        z_score=z_score)


def zero_mass_row_table():
    """Row 1 has no mass; zero cells and the sub-epsilon cell (0, 3) have
    zero-width CDF intervals."""
    table = np.array([[0.2, 0.0, 0.1, 5e-4],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.3, 0.05, 0.0, 0.3495]])
    return distribution_from_joint(table, support_epsilon=1e-3)


def fixed_qutrit_scenario():
    """A fixed full-support scenario whose I_nm actually varies, so the
    estimator has nonzero spread and z-scores are defined."""
    experiment = random_rank1_experiment(3, np.random.default_rng(52))
    jd = joint_distribution(experiment)
    assert jd.support_mask.all()
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
    jd = zero_mass_row_table()
    for seed in range(5):
        samples = sample_trajectories(jd, 20_000,
                                      np.random.default_rng(800 + seed))
        reference = reference_draw(jd, 20_000,
                                   np.random.default_rng(800 + seed))
        assert_same_stream(samples, reference)
        counts = cell_counts(samples, jd.shape)
        assert np.all(counts[~jd.support_mask] == 0)
        assert np.all(counts[jd.support_mask] > 0)


def many_row_distribution(rows: int, cols: int):
    """A random rows×cols table whose first and middle rows carry no mass."""
    table = np.random.default_rng(rows).random((rows, cols)) ** 3
    table[[0, rows // 2]] = 0.0
    return distribution_from_joint(table / table.sum())


@pytest.mark.parametrize("jd", [
    distribution_from_joint(np.array([[0.1, 0.0, 0.6, 0.3]])),
    zero_mass_row_table(),
    many_row_distribution(300, 5),  # uint16 sort key
], ids=["N=1", "N=3", "N=300"])
def test_stream_matches_mask_loop(jd):
    for seed in range(3):
        samples = sample_trajectories(jd, 30_000,
                                      np.random.default_rng(900 + seed))
        oracle = mask_loop_draw(jd, 30_000, np.random.default_rng(900 + seed))
        assert_same_stream(samples, oracle)
        counts = cell_counts(samples, jd.shape)
        assert np.all(counts[~jd.support_mask] == 0)


def off_support_weight_tables():
    """The MI and βW tables of the zero-mass-row distribution, with NaN and
    −1000 written into off-support cells, which are never sampled."""
    jd = zero_mass_row_table()
    i_table = np.array(mutual_information_table(jd).i_table)
    i_table[0, 1] = -1000.0
    beta = 1.3
    ws = work_statistics(jd, [0.0, 0.4, 1.1], [0.2, 0.5, 0.9, 1.7], beta,
                         1.0, 1.0)
    work_table = beta * ws.work_table
    work_table[0, 3] = np.nan
    work_table[1, 0] = -1000.0
    return jd, {"mi": i_table, "work": work_table}


@pytest.mark.parametrize("weight", ["mi", "work"])
def test_estimate_matches_gather_then_exp(weight):
    jd, tables = off_support_weight_tables()
    table = tables[weight]
    assert np.isnan(table[~jd.support_mask]).any()
    assert (table[~jd.support_mask] == -1000.0).any()
    for seed in range(3):
        samples = sample_trajectories(jd, 50_000,
                                      np.random.default_rng(950 + seed))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = estimate_exponential_average(samples, table, exact=0.9)
        oracle = gather_exp_estimate(samples, table, exact=0.9)
        assert report.mean == oracle.mean
        assert report.std_error == oracle.std_error
        assert report.z_score == oracle.z_score
        assert report.effective_sample_size == pytest.approx(
            oracle.effective_sample_size, rel=1e-12)
        assert report.max_weight_share == pytest.approx(
            oracle.max_weight_share, rel=1e-15)


@pytest.mark.parametrize("ns, ms", [
    ([0, 2], [0, 1]),
    ([0, 1], [0, 2]),
    ([0, -1], [0, 0]),  # fancy indexing wrapped this around; now it raises
])
def test_sample_outside_the_table_raises(ns, ms):
    with pytest.raises(ValueError, match="invalid entry"):
        estimate_exponential_average((np.array(ns), np.array(ms)),
                                     np.zeros((2, 2)))


def test_reliability_of_equal_and_dominated_weights():
    samples = (np.zeros(8, np.intp), np.array([0] * 7 + [1]))
    flat = estimate_exponential_average(samples, np.zeros((1, 2)))
    assert flat.effective_sample_size == pytest.approx(8.0, rel=1e-15)
    assert flat.max_weight_share == pytest.approx(1 / 8, rel=1e-15)
    # One draw of weight e^4 against seven of weight 1.
    heavy = estimate_exponential_average(samples, np.array([[0.0, -4.0]]))
    big = np.exp(4.0)
    assert heavy.effective_sample_size == pytest.approx(
        (big + 7) ** 2 / (big ** 2 + 7), rel=1e-14)
    assert heavy.max_weight_share == pytest.approx(big / (big + 7),
                                                   rel=1e-15)
    single = estimate_exponential_average((np.array([0]), np.array([1])),
                                          np.zeros((1, 2)))
    assert single.effective_sample_size == 1.0
    assert single.max_weight_share == 1.0


@pytest.mark.parametrize("config", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
@pytest.mark.parametrize("weight", ["mi", "work"])
def test_sample_stdout_matches_oracles(monkeypatch, capsys, caplog, config,
                                       weight):
    argv = ["sample", "--config", str(config), "--count", "20000",
            "--weight", weight]
    with caplog.at_level("INFO", logger="tpm_lab"):
        assert cli.main(argv) == 0
    out = capsys.readouterr().out
    [line] = [r.getMessage() for r in caplog.records
              if r.getMessage().startswith("ESTIMATOR ")]
    assert "effective_sample_size=" in line and "max_weight_share=" in line
    assert "effective_sample_size" not in out
    monkeypatch.setattr(cli, "sample_trajectories", mask_loop_draw)
    monkeypatch.setattr(cli, "estimate_exponential_average",
                        gather_exp_estimate)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out


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
    for count in (0, MAX_COUNT + 1):
        with pytest.raises(ValueError, match="count must be in"):
            sample_trajectories(jd, count, np.random.default_rng(0))
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
