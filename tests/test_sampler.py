"""Tests for trajectory sampling and the exponential-average estimator."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import random_rank1_experiment
from tpm_lab import cli, sampler
from tpm_lab.errors import ValidationError
from tpm_lab.sampler import (
    _BLOCK_CELLS,
    _BLOCK_DRAWS,
    MAX_COUNT,
    EstimatorReport,
    _guide_table,
    _guided_search,
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
DATA_DIR = Path(__file__).resolve().parent / "data"

# 99.9% quantile of the chi-square distribution with 8 degrees of freedom
# (9 joint cells, 1 normalization constraint).
CHI2_8_Q999 = 26.12448155837614


def uniform_2x2():
    return distribution_from_joint(np.full((2, 2), 0.25))


def cell_counts(cells, shape) -> np.ndarray:
    """Number of draws that landed in each cell (n, m)."""
    return np.bincount(cells, minlength=shape[0] * shape[1]).reshape(shape)


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


def grouped_sort_draw(jd, count, rng):
    """Oracle draw that binary-searches every uniform: the draws are grouped
    by first outcome with one stable sort of ``ns``, and each row's second
    outcomes come from one ``searchsorted`` over its contiguous slice."""
    p = np.where(jd.support_mask, jd.p_joint, 0.0)
    n_rows, n_cols = p.shape
    row_mass = p.sum(axis=1)
    first_cdf = np.cumsum(row_mass) / float(row_mass.sum())
    ns = np.searchsorted(first_cdf, rng.random(count), side="right")
    ns = np.minimum(ns, n_rows - 1)
    row_cdfs = np.cumsum(p, axis=1)
    row_totals = row_cdfs[:, -1].copy()
    row_totals[row_totals <= 0] = 1.0
    row_cdfs /= row_totals[:, None]
    u = rng.random(count)
    order = np.argsort(ns, kind="stable")
    u_grouped = u[order]
    row_counts = np.bincount(ns, minlength=n_rows)
    row_ends = np.cumsum(row_counts)
    ms = np.empty(count, dtype=np.intp)
    for n in np.flatnonzero(row_counts):
        a, b = row_ends[n] - row_counts[n], row_ends[n]
        ms[order[a:b]] = np.searchsorted(row_cdfs[n], u_grouped[a:b],
                                         side="right")
    ms = np.minimum(ms, n_cols - 1)
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


@pytest.fixture
def worker_threads(monkeypatch):
    """Every thread started while the fixture is in use, the sampler's
    pool workers among them, in the order they start."""
    started = []

    class RecordedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", RecordedThread)
    return started


def assert_no_thread_alive(threads):
    """No thread of ``threads`` runs once the call that started it
    returned or raised; each is joined, with a timeout, either way."""
    alive = [thread for thread in threads if thread.is_alive()]
    for thread in threads:
        thread.join(timeout=10)
    assert not alive


@pytest.fixture
def drawn_labels(monkeypatch):
    """The labels each slice's second stage writes, block by block, keyed
    by the slice's second-stage bit generator: the per-draw stream, which
    the counts cannot show, since they cannot see a permutation."""
    blocks = {}
    search = sampler._guided_search

    def recording(cdfs, table, bits, found, rows, entry):
        search(cdfs, table, bits, found, rows, entry)
        if rows is not None:
            blocks.setdefault(id(bits), []).append(found.copy())

    monkeypatch.setattr(sampler, "_guided_search", recording)
    return blocks


def assert_same_stream(counts, blocks, reference, shape, slices=None):
    """``counts`` is the int64 (N, M) table of the oracle's pairs, and
    ``blocks`` holds, slice by slice, the oracle's labels ns·M + ms of the
    draws [a, b) of each of ``slices`` (by default one), in order and in
    the guide tables' dtype, the smallest unsigned type that holds
    2·N·M − 1."""
    ns, ms = reference
    labels = ns * shape[1] + ms
    assert counts.dtype == np.int64 and counts.shape == shape
    np.testing.assert_array_equal(counts, cell_counts(labels, shape))
    dtype = np.min_scalar_type(2 * shape[0] * shape[1] - 1)
    assert all(block.dtype == dtype for run in blocks.values()
               for block in run)
    slices = slices or [(0, len(labels))]
    assert sorted(np.concatenate(run).tobytes() for run in blocks.values()) \
        == sorted(labels[a:b].astype(dtype).tobytes() for a, b in slices)
    blocks.clear()


@pytest.mark.parametrize("dim", [3, 16])
def test_stream_matches_reference_draw(drawn_labels, dim):
    for seed in range(5):
        jd = joint_distribution(
            random_rank1_experiment(dim, np.random.default_rng(600 + seed)))
        counts = sample_trajectories(jd, 20_000, 700 + seed)
        reference = reference_draw(jd, 20_000,
                                   np.random.default_rng(700 + seed))
        assert_same_stream(counts, drawn_labels, reference, jd.shape)


def test_stream_matches_reference_with_zero_mass_row_and_cells(drawn_labels):
    jd = zero_mass_row_table()
    for seed in range(5):
        counts = sample_trajectories(jd, 20_000, 800 + seed)
        reference = reference_draw(jd, 20_000,
                                   np.random.default_rng(800 + seed))
        assert_same_stream(counts, drawn_labels, reference, jd.shape)
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
    many_row_distribution(16, 16),
    many_row_distribution(64, 64),
    many_row_distribution(128, 128),
    many_row_distribution(300, 5),  # uint16 first outcomes
    many_row_distribution(8, 16),  # 128 cells: uint8, labels below flag 128
    many_row_distribution(15, 17),  # 255 cells: uint16
    many_row_distribution(85, 3),  # 255 cells; 50 draws < N give B = 1
    many_row_distribution(128, 2),  # 256 cells: uint16; B = 1 at 50 draws
], ids=["N=1", "N=3", "N=16", "N=64", "N=128", "N=300", "NM=128", "NM=255",
        "NM=255,M=3", "NM=256,M=2"])
def test_stream_matches_mask_loop(drawn_labels, jd):
    # At 50 draws the count, not 32·M, sets the guide table's size. Where
    # N·M exceeds half a block, the blocks are counted by ``np.add.at``.
    for seed, count in [(0, 30_000), (1, 30_000), (2, 30_000), (3, 50)]:
        counts = sample_trajectories(jd, count, 900 + seed)
        blocks = dict(drawn_labels)
        assert_same_stream(counts, drawn_labels, mask_loop_draw(
            jd, count, np.random.default_rng(900 + seed)), jd.shape)
        assert_same_stream(counts, blocks, grouped_sort_draw(
            jd, count, np.random.default_rng(900 + seed)), jd.shape)
        assert np.all(counts[~jd.support_mask] == 0)


def normalized_cdfs(p) -> np.ndarray:
    """Row CDFs as the sampler builds them; a zero-mass row stays zero."""
    cdfs = np.cumsum(np.asarray(p, dtype=float), axis=1)
    totals = cdfs[:, -1].copy()
    totals[totals <= 0] = 1.0
    return cdfs / totals[:, None]


def zero_width_cells_in_one_bucket():
    """Row 0 piles 100 zero-width cells on each of two CDF values that sit
    strictly inside one bucket; row 1 has 1e−12 cells between them."""
    gap = np.zeros(100)
    return normalized_cdfs([
        np.concatenate([[0.3], gap, [1e-9], gap, [0.7 - 1e-9]]),
        np.concatenate([[0.3], np.full(100, 1e-12), [1e-9],
                        np.full(100, 1e-12), [0.7 - 1e-9 - 2e-10]])])


def four_nonzero_cells_per_row(d: int) -> np.ndarray:
    """Row CDFs with four nonzero cells per row, at random columns, so
    runs of zero-width cells share their CDF value."""
    rng = np.random.default_rng(d)
    p = np.zeros((d, d))
    for row in p:
        row[rng.choice(d, 4, replace=False)] = rng.random(4)
    return normalized_cdfs(p)


def one_heavy_cell_per_row(d: int) -> np.ndarray:
    """Row CDFs with one cell of mass 1 and d − 1 cells of 10⁻⁹, so the CDF
    values crowd into the first and the last bucket."""
    p = np.full((d, d), 1e-9)
    p[np.arange(d), np.random.default_rng(d).integers(0, d, d)] = 1.0
    return normalized_cdfs(p)


GUIDED_SEARCH_CASES = {
    # Every CDF step on a bucket edge; the second row ends above 1.
    "dyadic": np.array([[0.25, 0.5, 1.0], [0.125, 0.5, 1.0 + 2.0 ** -52]]),
    "zero-width": zero_width_cells_in_one_bucket(),
    "zero-mass-row": normalized_cdfs([[0.2, 0.0, 0.8], [0.0, 0.0, 0.0],
                                      [0.0, 0.0, 1.0]]),
    "M=1": normalized_cdfs([[1.0], [0.0], [3.0]]),
    "N=1": normalized_cdfs([[0.1, 0.0, 0.6, 0.3]]),
    # A first-outcome CDF whose cumulative sum rounds below 1.
    "ends-below-1": np.array([[0.5, 1.0 - 2.0 ** -53]]),
    # One that passes 1 before a zero-mass last outcome.
    "above-1-early": np.array([[0.5, 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -52]]),
    # uint16 guide table.
    "300-outcome": normalized_cdfs(
        np.random.default_rng(3).random((4, 300)) ** 4),
    # 128 cells: uint8 labels up to 127 and the step flag 128.
    "128-cell": normalized_cdfs(
        np.random.default_rng(4).random((8, 16)) ** 4),
    # 255 cells: uint16, as 2·255 − 1 > 255.
    "255-cell": normalized_cdfs(
        np.random.default_rng(5).random((15, 17)) ** 4),
    # 256 cells: uint16.
    "256-cell": normalized_cdfs(
        np.random.default_rng(6).random((16, 16)) ** 4),
    # d = 64: a few draws per row leave few buckets, each bisected across
    # many CDF values.
    "geometric": normalized_cdfs(np.tile(0.97 ** np.arange(64), (64, 1))),
    "four-nonzero": four_nonzero_cells_per_row(64),
    "heavy-and-tiny": one_heavy_cell_per_row(64),
}


def uniforms(words: np.ndarray) -> np.ndarray:
    """The doubles ``Generator.random`` forms of PCG64 words."""
    return (words >> 11) * 2.0 ** -53


def edge_words(cdfs: np.ndarray, n_buckets: int) -> np.ndarray:
    """PCG64 words whose uniforms, the multiples k·2⁻⁵³ in [0, 1), lie on
    and next to every bucket edge j/B and every CDF value (the last one
    below it, the first one at or above it and the next), plus 0,
    1 − 2⁻⁵³ and random ones. Random low 11 bits, which no uniform
    reads, fill every word."""
    edges = np.arange(n_buckets + 1) / n_buckets
    points = np.concatenate([edges, cdfs.ravel()])
    k = np.ceil(np.ldexp(points[(0.0 <= points) & (points <= 1.0)], 53))
    k = np.concatenate([k - 1, k, k + 1, [0, 2.0 ** 53 - 1]])
    k = k[(0 <= k) & (k < 2.0 ** 53)].astype(np.uint64)
    rng = np.random.default_rng(8)
    words = np.concatenate([k << 11, rng.bit_generator.random_raw(5000)])
    return words | rng.integers(0, 1 << 11, words.size, dtype=np.uint64)


class FixedWords:
    """Stands in for a PCG64 bit generator: ``random_raw(n)`` returns the
    next n of the given 64-bit words, in order, as PCG64 returns its
    stream."""

    def __init__(self, words: np.ndarray):
        self.words = words
        self.used = 0

    def random_raw(self, size: int) -> np.ndarray:
        out = self.words[self.used:self.used + size].copy()
        self.used += size
        return out


def test_words_are_the_generators_uniforms():
    # The sampler reads PCG64 words, not doubles: at any offset the
    # generator's uniform is (w >> 11)·2⁻⁵³, so the stream is that of
    # default_rng, and for B = 2^b the bucket ⌊u·B⌋ is w >> (64 − b).
    sequence = np.random.SeedSequence(29)
    for offset in (0, 65_535, 2**40):
        generator = np.random.Generator(
            np.random.PCG64(sequence).advance(offset))
        bits = np.random.PCG64(sequence).advance(offset)
        np.testing.assert_array_equal(generator.random(10_000),
                                      uniforms(bits.random_raw(10_000)))
    for b in range(1, 21):
        edge = np.arange(1 << b, dtype=np.uint64) << np.uint64(64 - b)
        words = np.concatenate([np.array([0, 2**64 - 1], dtype=np.uint64),
                                edge, edge - np.uint64(1)])
        np.testing.assert_array_equal(
            np.floor(uniforms(words) * (1 << b)).astype(np.uint64),
            words >> np.uint64(64 - b))


@pytest.mark.parametrize("name", GUIDED_SEARCH_CASES)
def test_guided_search_matches_searchsorted(name):
    # None searches every word in one call, in the table of B the
    # power-of-two floor of max(32·M, 2¹⁶ // N); a few draws per row cap B
    # at their count. A search is one block; ``draw``'s block boundaries
    # are checked by ``test_stream_across_block_boundaries``.
    cdfs = GUIDED_SEARCH_CASES[name]
    for draws_per_row in (None, 1, 3, 40):
        check_guided_search(cdfs, draws_per_row,
                            check_guide_table(cdfs, draws_per_row))


def entry_buffer(size):
    """The intp entry buffer of a search of one block of ``size`` draws,
    as a slice holds."""
    return np.empty(size, dtype=np.intp)


def guided_search(cdfs, words, table, rows=None):
    """``_guided_search`` of the PCG64 ``words`` in ``table``, the
    ``_guide_table`` of ``cdfs``, fed through ``random_raw`` of a
    stand-in bit generator, which must be used up exactly."""
    bits = FixedWords(words)
    found = np.empty(words.size, dtype=table.dtype)
    _guided_search(cdfs, table, bits, found, rows, entry_buffer(words.size))
    assert bits.used == words.size
    return found


def step_flag(table) -> int:
    """The top bit of the table's dtype, which flags a bucket's entry."""
    return 1 << 8 * table.itemsize - 1


def guide_count(cdfs, draws_per_row):
    """The draw count a table is sized for: ``None`` leaves B uncapped."""
    return 10**9 if draws_per_row is None else draws_per_row * len(cdfs)


def check_guide_table(cdfs, draws_per_row):
    """Check the guide table sized for ``draws_per_row`` draws per row
    against a search per bucket edge; returns its B."""
    n_rows, n_cols = cdfs.shape
    count = guide_count(cdfs, draws_per_row)
    # The table is bucket-major: bucket j of row r is entry (j, r).
    table = _guide_table(cdfs, count)
    n_buckets = table.shape[0] - 1
    assert n_buckets & (n_buckets - 1) == 0
    assert table.shape == (n_buckets + 1, n_rows)
    assert table.flags.c_contiguous
    table = table.T
    assert table.dtype == np.min_scalar_type(2 * n_rows * n_cols - 1)
    # B ≤ max(32·M, 2¹⁶ // N): at most 32 buckets per cell, or one block's
    # worth of buckets for a small table.
    assert n_rows * n_buckets <= max(32 * n_rows * n_cols, _BLOCK_CELLS)
    assert n_rows * n_buckets <= max(n_rows, count)
    if draws_per_row is not None:
        assert n_buckets <= draws_per_row
    # Column j of a row, flag cleared, counts its first M − 1 CDF values
    # ≤ j/B, and those < 1 at j = B; bucket j is flagged where entries j
    # and j + 1 differ, and column B never is.
    edges = np.arange(n_buckets + 1) / n_buckets
    want_bounds = np.array([np.searchsorted(row[:-1], edges, side="right")
                            for row in cdfs])
    want_bounds[:, -1] = [np.searchsorted(row[:-1], 1.0) for row in cdfs]
    want_bounds += np.arange(n_rows)[:, None] * n_cols
    flag = step_flag(table)
    assert want_bounds.max() < flag
    np.testing.assert_array_equal(table & ~table.dtype.type(flag),
                                  want_bounds)
    flagged = table >= flag
    lower, upper = want_bounds[:, :-1], want_bounds[:, 1:]
    np.testing.assert_array_equal(flagged[:, :-1], lower != upper)
    assert not flagged[:, -1].any()
    # So a bucket is flagged where a CDF value lies strictly inside it, or
    # on its upper edge below 1.
    j = np.arange(n_buckets)[:, None]
    np.testing.assert_array_equal(
        flagged[:, :-1],
        [np.any((j < row[:-1] * n_buckets) & (row[:-1] * n_buckets <= j + 1)
                & (row[:-1] < 1.0), axis=1)
         for row in cdfs])
    return n_buckets


def check_guided_search(cdfs, draws_per_row, n_buckets):
    """Check ``_guided_search`` in the table of B buckets, on its edge
    words, against ``searchsorted`` of their uniforms, in chunks of at
    most the count the table was sized for."""
    n_rows, n_cols = cdfs.shape
    count = guide_count(cdfs, draws_per_row)
    words = edge_words(cdfs, n_buckets)
    u = uniforms(words)
    rows = np.random.default_rng(9).integers(0, n_rows, u.size)
    # The label of a draw in row r is r·M + its clamped search.
    want = np.empty(u.size, dtype=np.intp)
    for r in range(n_rows):
        drawn = rows == r
        want[drawn] = np.searchsorted(cdfs[r], u[drawn], side="right")
    want = rows * n_cols + np.minimum(want, n_cols - 1)
    chunk = u.size if draws_per_row is None else count
    # The table depends on the count alone, so every chunk reads one.
    table = _guide_table(cdfs, count)
    got = np.concatenate([guided_search(cdfs, words[k:k + chunk], table,
                                        rows[k:k + chunk])
                          for k in range(0, u.size, chunk)])
    assert got.dtype == np.min_scalar_type(2 * n_rows * n_cols - 1)
    np.testing.assert_array_equal(got, want)
    if n_rows == 1:
        np.testing.assert_array_equal(
            np.concatenate([guided_search(cdfs, words[k:k + chunk], table)
                            for k in range(0, u.size, chunk)]), want)


def test_guide_marks_exactly_the_buckets_with_a_cdf_value_inside():
    # Four zero-mass last columns put each row's last CDF values at exactly
    # 1, which no u < 1 reaches, so bucket B − 1 is flagged only where a
    # value lies in ((B − 1)/B, 1). Random values miss every inner edge,
    # so the flagged buckets are those with a value in (j/B, (j+1)/B).
    p = np.random.default_rng(15).random((16, 16))
    p[:, 12:] = 0.0
    cdfs = normalized_cdfs(p)
    table = _guide_table(cdfs, 10**6).T
    n_buckets = table.shape[1] - 1
    scaled = cdfs[:, :-1] * n_buckets
    inside = np.zeros((len(cdfs), n_buckets), dtype=bool)
    for row, values in zip(inside, scaled):
        strict = values != np.floor(values)
        row[np.floor(values[strict]).astype(np.intp)] = True
    marked = table[:, :-1] >= step_flag(table)
    np.testing.assert_array_equal(marked, inside)
    assert not marked[:, -1].any()
    check_guided_search(cdfs, None, check_guide_table(cdfs, None))


def test_guide_table_grows_with_the_count_not_the_table():
    # A 1024×1024 table drawn 10³ times: 32·N·M buckets would
    # be 2²⁵ entries (64 MiB); the capped table has one bucket per row.
    cdfs = normalized_cdfs(np.random.default_rng(4).random((1024, 1024)))
    table = _guide_table(cdfs, 1000)
    assert table.shape == (1 + 1, 1024)
    assert 1024 * (table.shape[0] - 1) <= max(1024, 1000)
    assert _guide_table(cdfs, 1024 * 5000).shape[0] == 4096 + 1
    assert _guide_table(cdfs, 10**9).shape[0] == 32 * 1024 + 1
    # A small table gets 2¹⁶ // N buckets per row where 32·M would be
    # fewer, still at most count // N; from M = 64 up, 32·M sets B.
    first = np.ones((1, 16))
    assert _guide_table(first, 10**6).shape == ((1 << 16) + 1, 1)
    assert _guide_table(first, 1000).shape == (512 + 1, 1)
    small = normalized_cdfs(np.random.default_rng(5).random((16, 16)))
    assert _guide_table(small, 10**9).shape == (4096 + 1, 16)
    assert _guide_table(small, 16 * 1000).shape == (512 + 1, 16)
    wide = normalized_cdfs(np.random.default_rng(6).random((64, 64)))
    assert _guide_table(wide, 10**9).shape == (32 * 64 + 1, 64)


def test_guide_table_in_a_wider_dtype_flags_with_its_top_bit():
    # The first stage's table is built in the cells' dtype. A uint8
    # table cast to uint16 would keep its flag 128, which reads as a
    # label there.
    first = normalized_cdfs(np.random.default_rng(7).random((1, 16)) ** 4)
    narrow = _guide_table(first, 10**6)
    wide = _guide_table(first, 10**6, np.uint16)
    assert narrow.dtype == np.uint8 and wide.dtype == np.uint16
    marked = narrow >= 1 << 7
    assert marked.any()
    np.testing.assert_array_equal(wide >= 1 << 15, marked)
    np.testing.assert_array_equal(wide[~marked], narrow[~marked])
    np.testing.assert_array_equal(wide & 0x7FFF, narrow & 0x7F)
    words = edge_words(first, narrow.shape[0] - 1)
    found = np.empty(words.size, dtype=np.uint16)
    _guided_search(first, wide, FixedWords(words), found, None,
                   entry_buffer(words.size))
    np.testing.assert_array_equal(
        found, guided_search(first, words, _guide_table(first, 10**6)))


def trailing_zero_mass_table():
    """A 16×16 table whose last four columns have zero mass, so every
    row's last CDF values are exactly 1."""
    table = np.random.default_rng(16).random((16, 16))
    table[:, 12:] = 0.0
    return distribution_from_joint(table / table.sum())


@pytest.mark.parametrize("jd", [
    distribution_from_joint(np.array([[0.1, 0.0, 0.6, 0.3]])),
    zero_mass_row_table(),
    many_row_distribution(15, 17),  # 255 cells: uint16
    many_row_distribution(16, 16),  # 256 cells: uint16
    trailing_zero_mass_table(),
], ids=["N=1", "zero-mass-row", "NM=255", "NM=256", "zero-mass-columns"])
def test_stream_across_block_boundaries(monkeypatch, worker_threads,
                                        drawn_labels, jd):
    # The draw is forced onto 1, 2 and 3 workers, and, with blocks of 61
    # draws so that there are enough of them, onto more workers than the
    # process has CPUs; a short switch interval makes their threads
    # interleave as often as they can. A worker per full block at most,
    # and one slice below two blocks. Blocks of 61 draws are counted by
    # ``np.add.at``, full ones by ``np.bincount``.
    many = sampler._cpu_count() + 2
    references = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for block, workers in [(_BLOCK_DRAWS, 1), (_BLOCK_DRAWS, 2),
                               (_BLOCK_DRAWS, 3), (61, many)]:
            monkeypatch.setattr(sampler, "_BLOCK_DRAWS", block)
            monkeypatch.setattr(sampler, "_cpu_count", lambda: workers)
            for count in (1, block - 1, block, block + 1, 3 * block + 7,
                          workers * block + 7):
                worker_threads.clear()
                counts = sample_trajectories(jd, count, count)
                slices = sampler._slices(count)
                assert len(slices) == max(1, min(workers, count // block))
                assert (min(1, len(slices) - 1) <= len(worker_threads)
                        <= len(slices) - 1)
                assert_no_thread_alive(worker_threads)
                if count not in references:
                    references[count] = reference_draw(
                        jd, count, np.random.default_rng(count))
                    blocks = dict(drawn_labels)
                    assert_same_stream(counts, blocks, mask_loop_draw(
                        jd, count, np.random.default_rng(count)), jd.shape,
                        slices)
                assert_same_stream(counts, drawn_labels, references[count],
                                   jd.shape, slices)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("seed", [7, (21, 3), 2**63 + 5],
                         ids=["int", "tuple", "above-2^63"])
def test_counts_are_two_stage_searchsorted_of_default_rng(monkeypatch, seed):
    # Any entropy SeedSequence takes is a seed: the counts are those of a
    # right-side searchsorted of default_rng(seed).random(count), for the
    # first outcomes, then of its next count uniforms in their rows, on
    # any number of workers.
    jd = many_row_distribution(16, 16)
    for count in (1, _BLOCK_DRAWS - 1, _BLOCK_DRAWS + 1,
                  3 * _BLOCK_DRAWS + 7):
        ns, ms = reference_draw(jd, count, np.random.default_rng(seed))
        want = cell_counts(ns * jd.shape[1] + ms, jd.shape)
        for workers in (1, 2, 3):
            monkeypatch.setattr(sampler, "_cpu_count", lambda: workers)
            np.testing.assert_array_equal(
                sample_trajectories(jd, count, seed), want)


def test_unseeded_draw_reads_one_seed_sequence(monkeypatch):
    # seed=None draws its entropy once: both stages of every slice read
    # the one SeedSequence, so the counts are its default_rng replay.
    made = []

    class RecordedSeedSequence(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(np.random, "SeedSequence", RecordedSeedSequence)
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)
    jd = many_row_distribution(16, 16)
    count = 3 * _BLOCK_DRAWS + 7
    counts = sample_trajectories(jd, count, None)
    [sequence] = made
    ns, ms = reference_draw(jd, count, np.random.default_rng(sequence))
    np.testing.assert_array_equal(
        counts, cell_counts(ns * jd.shape[1] + ms, jd.shape))


def test_generator_is_not_a_seed():
    # A sample is a function of its seed; a generator carries a state the
    # draw would neither read nor leave as it found it.
    with pytest.raises(TypeError):
        sample_trajectories(uniform_2x2(), 10, np.random.default_rng(0))


def test_count_is_any_integer_but_no_float():
    # The count goes through operator.index: a numpy integer draws the
    # same sample as the Python int, and a float is a TypeError.
    jd = many_row_distribution(16, 16)
    want = sample_trajectories(jd, 10**5, 0)
    for count in (np.int64(10**5), np.uint32(10**5)):
        np.testing.assert_array_equal(sample_trajectories(jd, count, 0),
                                      want)
    for count in (2.5, 1e6):
        with pytest.raises(TypeError):
            sample_trajectories(jd, count, 0)


def test_slices_split_the_draws_evenly(monkeypatch):
    # Even slices, each at least one full block; draw k reads uniform k
    # wherever its slice starts.
    for workers, count, edges in [
            (2, 10**6, [0, 500_000, 10**6]),
            (3, 10**6 + 2, [0, 333_334, 666_668, 10**6 + 2]),
            (3, 2 * _BLOCK_DRAWS + 1, [0, _BLOCK_DRAWS, 2 * _BLOCK_DRAWS + 1]),
            (3, 2 * _BLOCK_DRAWS - 1, [0, 2 * _BLOCK_DRAWS - 1])]:
        monkeypatch.setattr(sampler, "_cpu_count", lambda: workers)
        assert sampler._slices(count) == list(zip(edges[:-1], edges[1:]))


class SliceFailure(Exception):
    pass


def fail_in_workers(monkeypatch, error):
    """Make every slice but the caller's raise ``error``."""
    search = sampler._guided_search

    def failing(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise error("slice failed")
        search(*args, **kwargs)

    monkeypatch.setattr(sampler, "_guided_search", failing)
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)


@pytest.mark.parametrize("error", [SliceFailure, MemoryError])
def test_error_in_a_slice_reaches_the_caller(monkeypatch, worker_threads,
                                             error):
    fail_in_workers(monkeypatch, error)
    with pytest.raises(error, match="slice failed"):
        sample_trajectories(many_row_distribution(16, 16),
                            3 * _BLOCK_DRAWS, 0)
    assert 1 <= len(worker_threads) <= 2
    assert_no_thread_alive(worker_threads)


def count_blocks_by_slice(monkeypatch, count, error, fail):
    """Tally, by slice index, the blocks each slice of a ``count``-draw
    sample of seed 0 counts, in the dict returned, and make block b of
    slice k raise ``error`` where fail(k, b). A slice is told by its
    second-stage bit generator, which starts at the seed's stream
    advanced by count + a, not by its thread, which may run another slice
    too."""
    sequence = np.random.SeedSequence(0)
    starts = {np.random.PCG64(sequence).advance(count + a)
              .state["state"]["state"]: k
              for k, (a, _) in enumerate(sampler._slices(count))}
    search, count_block = sampler._guided_search, sampler._count
    slice_of, current, counted = {}, threading.local(), {}

    def recording(cdfs, table, bits, found, rows, entry):
        if rows is not None:
            if id(bits) not in slice_of:
                slice_of[id(bits)] = starts[bits.state["state"]["state"]]
            current.slice = slice_of[id(bits)]
        search(cdfs, table, bits, found, rows, entry)

    def failing(labels, counts, index):
        k = current.slice
        counted[k] = counted.get(k, 0) + 1
        if fail(k, counted[k]):
            raise error("leaf failed")
        count_block(labels, counts, index)

    monkeypatch.setattr(sampler, "_guided_search", recording)
    monkeypatch.setattr(sampler, "_count", failing)
    return counted


@pytest.mark.parametrize("error", [SliceFailure, MemoryError])
def test_error_in_a_run_of_leaves_reaches_the_caller(
        monkeypatch, worker_threads, error):
    # Each slice draws and counts a run of three blocks, the leaves of the
    # draw. The last slice's count of its second block fails; the other
    # slices count all of theirs, every thread is joined and the error
    # reaches the caller with its type.
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)
    counted = count_blocks_by_slice(
        monkeypatch, 9 * _BLOCK_DRAWS, error,
        lambda k, blocks: k == 2 and blocks == 2)
    with pytest.raises(error, match="leaf failed"):
        sample_trajectories(many_row_distribution(16, 16),
                            9 * _BLOCK_DRAWS, 0)
    assert 1 <= len(worker_threads) <= 2
    assert_no_thread_alive(worker_threads)
    assert counted == {0: 3, 1: 3, 2: 2}


@pytest.mark.parametrize("error", [SliceFailure, MemoryError])
def test_error_in_the_callers_slice_waits_for_the_workers(
        monkeypatch, worker_threads, error):
    # Slice 0 runs on the caller's thread and fails on its first block.
    # Its error reaches the caller only once both worker slices have
    # counted all three of their blocks and every thread is joined.
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)
    counted = count_blocks_by_slice(
        monkeypatch, 9 * _BLOCK_DRAWS, error,
        lambda k, blocks: (k == 0 and threading.current_thread()
                           is threading.main_thread()))
    with pytest.raises(error, match="leaf failed"):
        sample_trajectories(many_row_distribution(16, 16),
                            9 * _BLOCK_DRAWS, 0)
    assert 1 <= len(worker_threads) <= 2
    assert_no_thread_alive(worker_threads)
    assert counted == {0: 1, 1: 3, 2: 3}


def test_memory_error_in_a_slice_exits_3(monkeypatch, caplog, worker_threads):
    fail_in_workers(monkeypatch, MemoryError)
    argv = ["sample", "--config", str(SCENARIO_DIR / "qubit_hadamard.json"),
            "--count", str(3 * _BLOCK_DRAWS)]
    assert cli.main(argv) == cli.EXIT_VALIDATION_ERROR
    assert "out of memory: slice failed" in caplog.text
    assert 1 <= len(worker_threads) <= 2
    assert_no_thread_alive(worker_threads)


def test_import_starts_no_thread_and_loads_no_numpy_random():
    # A fresh process pays for threads and numpy.random only once it draws.
    code = ("import sys, threading, tpm_lab.cli; "
            "print(threading.active_count(), 'numpy.random' in sys.modules)")
    package_root = Path(sampler.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(package_root)))
    assert done.stdout.split() == ["1", "False"]


def test_draw_and_estimate_peak_memory_follow_from_the_design():
    # d = 16 and 10⁶ draws, as in the benchmark's sample-mc workload.
    check_peak_memory(16)


def test_draw_peak_memory_where_the_count_caps_the_buckets():
    # At d = 1024, 10⁶ draws cap B at 512 < M, so about 81% of the
    # second stage's draws are bisected, and N·M = 2²⁰ labels are counted
    # by ``np.add.at``.
    check_peak_memory(1024)


def check_peak_memory(dim):
    table = np.random.default_rng(dim).random((dim, dim)) ** 3
    jd = distribution_from_joint(table / table.sum())
    weights = np.random.default_rng(17).standard_normal((dim, dim))
    count = 10**6
    n_rows, n_cols = jd.shape
    n_cells = n_rows * n_cols
    table = _guide_table(normalized_cdfs(jd.p_joint), count)
    first_table = _guide_table(np.ones((1, n_rows)), count, table.dtype)
    # A process's first draw imports the thread pool and makes numpy's
    # first bit generators, one-off objects no later draw allocates.
    sample_trajectories(jd, 1, 0)
    tracemalloc.start()
    try:
        counts = sample_trajectories(jd, count, 0)
        draw_peak = tracemalloc.get_traced_memory()[1]
        # The estimate's peak counts the counts it reads, not what the draw
        # left cached.
        before = tracemalloc.get_traced_memory()[0] - counts.nbytes
        tracemalloc.reset_peak()
        estimate_exponential_average(counts, weights)
        estimate_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # Array headers, views and numpy's small caches.
    objects = 1 << 13
    # A draw is flagged for a bisection when its bucket holds a CDF step;
    # those buckets carry under M/B of the mass in either stage.
    marked_share = min(1.0, max(n_rows / (first_table.shape[0] - 1),
                                n_cols / (table.shape[0] - 1)))
    # Each slice's worker holds its own block buffers, temporaries and
    # count table.
    workers = len(sampler._slices(count))
    # No term grows with the count: the guide tables are capped at 32
    # buckets per cell.
    draw_bound = (
        workers * (
            # A block's labels and intp entry indices, its one array of
            # PCG64 words and its flag mask.
            _BLOCK_DRAWS * (table.itemsize + 8 + 8 + 1)
            # A block's flagged draws, each with its position, uniform and
            # two intp bounds, and the entries read from the labels or the
            # table or a bisection step's mask; the word gathered and
            # shifted into each uniform is freed before the bounds exist.
            # Their probes reuse the entry buffer, their CDF values the
            # words.
            + _BLOCK_DRAWS * marked_share * (8 * 4 + table.itemsize)
            # The slice's count table and a block's ``bincount``.
            + 2 * 8 * n_cells
            # numpy's ufunc buffer, where the rows and the entries are
            # cast to intp.
            + 8 * np.getbufsize()
            # Array headers, views and numpy's small caches; a worker's
            # thread and its two bit generators.
            + objects)
        # The N×M CDF table, both stages' bucket-major guide tables, each
        # built in place, and three N-long vectors.
        + 8 * n_cells + table.nbytes + first_table.nbytes + 8 * 3 * n_rows)
    assert draw_peak <= draw_bound
    estimate_bound = (
        # The counts.
        counts.nbytes
        # At most sixteen doubles or intp indices per sampled cell: its
        # index, exponent and weight, its count as a double, the product
        # and its error term, the split halves and their temporaries.
        + 16 * 8 * np.count_nonzero(counts)
        + objects)
    assert estimate_peak <= estimate_bound


def rational_moments(counts, weight_table):
    """The exact oracle: the sampled cells' counts k and weights
    w = e^{−weight}, the doubles the estimator reads, as Fractions, with
    n = Σk and the exact mean Σk·w/n."""
    cells = np.flatnonzero(counts)
    k = [int(c) for c in np.ravel(counts)[cells]]
    exponents = np.asarray(weight_table, dtype=float).ravel()[cells]
    w = [Fraction(float(v)) for v in np.exp(-exponents)]
    n = sum(k)
    return k, w, n, sum(ki * wi for ki, wi in zip(k, w)) / n


def gamma(j: int) -> float:
    """Higham's γ_j = j·u/(1 − j·u), u = 2⁻⁵³: the relative error bound of
    j roundings."""
    u = 2.0 ** -53
    return j * u / (1 - j * u)


def assert_matches_rational_oracle(report, counts, weight_table):
    """The report's mean is within one ulp of the exact Σk·w/n, and its
    std_error within a counted rounding bound of its exact value about
    the reported mean m̂, √(Σk·(w − m̂)²/(n(n − 1)))."""
    k, w, n, mean = rational_moments(counts, weight_table)
    assert report.sample_count == n
    assert abs(Fraction(report.mean) - mean) <= Fraction(
        float(np.spacing(report.mean)))
    if n == 1:
        assert report.std_error == 0.0
        return
    m_hat = Fraction(report.mean)
    exact = sum(ki * (wi - m_hat) ** 2
                for ki, wi in zip(k, w)) / (n * (n - 1))
    if exact == 0:
        assert report.std_error == 0.0
        return
    # Each term k·(w − m̂)² takes three roundings, the difference counted
    # twice by the square, and the sum of its L terms, all nonnegative,
    # at most L − 1: γ_{L+3}. Dividing by n − 1 and the square root add
    # one rounding each to s, counted twice in std_error², and √n and the
    # division by it one more each: γ_{L+10} on std_error². The power-of-
    # two scaling of the weights is exact.
    ratio = Fraction(report.std_error) ** 2 / exact
    assert abs(ratio - 1) <= gamma(len(k) + 10)


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
    # The off-support NaN and −1000 are never read, so nothing warns; the
    # whole-array oracle's mean and s carry their own summation error.
    jd, tables = off_support_weight_tables()
    table = tables[weight]
    assert np.isnan(table[~jd.support_mask]).any()
    assert (table[~jd.support_mask] == -1000.0).any()
    for seed in range(3):
        counts = sample_trajectories(jd, 50_000, 950 + seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = estimate_exponential_average(counts, table, exact=0.9)
        assert_matches_rational_oracle(report, counts, table)
        oracle = gather_exp_estimate(
            reference_draw(jd, 50_000, np.random.default_rng(950 + seed)),
            table, exact=0.9)
        for field in ("mean", "std_error", "z_score",
                      "effective_sample_size", "max_weight_share"):
            assert getattr(report, field) == pytest.approx(
                getattr(oracle, field), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 8, 127, 128, 129, 65_535, 65_536,
                               65_537, 3 * 65_536 + 5, 10**6 + 1, 10**6 + 7])
def test_estimate_matches_exact_rational_oracle(n):
    # n draws over a 16×16 table of normal exponents at four scales; at
    # scale 30 a handful of cells carry nearly all of Σk·w. The estimate
    # reads the counts alone, so no count, CPU count or slice split
    # changes it.
    rng = np.random.default_rng(n)
    for scale in (0.1, 1.0, 5.0, 30.0):
        table = scale * rng.standard_normal((16, 16))
        counts = rng.multinomial(n, np.full(256, 1 / 256)).reshape(16, 16)
        report = estimate_exponential_average(counts, table)
        assert_matches_rational_oracle(report, counts, table)
        values = np.exp(-table)[counts > 0]
        total = Fraction(report.mean) * n
        assert report.max_weight_share == pytest.approx(
            float(Fraction(float(values.max())) / total), rel=1e-15)
        assert report.effective_sample_size == pytest.approx(
            float(total ** 2 / sum(int(c) * Fraction(float(v)) ** 2
                                   for c, v in zip(counts[counts > 0],
                                                   values))), rel=1e-12)


@pytest.mark.parametrize("n", [1, 2])
def test_estimate_is_numpy_mean_and_std_bit_for_bit(worker_threads, n):
    # On one or two draws numpy's sum of the weights rounds at most once,
    # so its mean is Σk·w/n correctly rounded, the estimate's, and its
    # std(ddof=1) sums the same squares in one rounding: both agree bit
    # for bit, and so do the reliability figures. Larger samples are held
    # to the exact oracle. The estimate starts no thread.
    rng = np.random.default_rng(n)
    for scale in (0.1, 1.0, 5.0, 30.0):
        table = scale * rng.standard_normal((16, 16))
        for _ in range(64):
            cells = rng.integers(0, table.size, n)
            values = np.exp(-table).ravel()[cells]
            report = estimate_exponential_average(
                cell_counts(cells, table.shape), table)
            total = float(values.sum())
            s = float(values.std(ddof=1)) if n > 1 else 0.0
            cv = s / (total / n)
            assert report.mean == float(values.mean())
            assert report.std_error == s / math.sqrt(n)
            assert report.effective_sample_size == (
                n / (1.0 + (1.0 - 1.0 / n) * cv * cv))
            assert report.max_weight_share == float(values.max()) / total
    assert not worker_threads


@pytest.mark.parametrize("exponents", ["near-700", "near+700", "both"])
def test_estimate_near_the_exponent_range_matches_the_oracle(exponents):
    # Exponents within 5 of −700 give weights up to e^{705} ≈ 10^{306},
    # whose 10⁶-draw Σk·w exceeds the largest double; within 5 of +700
    # they are as small as e^{−705} ≈ 4·10^{−307}, near the smallest
    # normal double. Scaled by a power of two, the sums stay exact and the
    # squares stay in range; with both, the tiny weights vanish against
    # the large ones, far below an ulp of the mean.
    rng = np.random.default_rng(700)
    centers = {"near-700": -700.0, "near+700": 700.0,
               "both": np.where(np.arange(256) % 2, 700.0, -700.0)}
    table = (centers[exponents] + rng.uniform(-5, 5, 256)).reshape(16, 16)
    counts = rng.multinomial(10**6, np.full(256, 1 / 256)).reshape(16, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_exponential_average(counts, table)
    assert math.isfinite(report.mean) and report.std_error > 0
    assert_matches_rational_oracle(report, counts, table)


def test_counts_up_to_max_count_are_exact():
    # Every count up to 2⁵³ − 1 is a double, so the products stay exact.
    assert MAX_COUNT == 2**53 - 1
    counts = np.array([[MAX_COUNT - 3, 3]])
    for table in ([[0.0, -1.0]], [[0.3, -40.0]]):
        report = estimate_exponential_average(counts, np.array(table))
        assert report.sample_count == MAX_COUNT
        assert_matches_rational_oracle(report, counts, table)


def test_nonfinite_weight_names_the_first_sampled_cell():
    # Of the sampled cells whose weight or e^{−weight} is not finite, the
    # first in row-major order is named: the counts keep no draw order.
    weights = np.zeros((4, 4))
    weights[3, 0] = weights[1, 2] = np.nan
    weights[2, 1] = -1000.0  # e^{1000} overflows
    counts = np.zeros((4, 4), dtype=np.int64)
    counts[0, 0] = 5
    for cell in [(3, 0), (2, 1), (1, 2)]:
        counts[cell] = 1
        with pytest.raises(ValueError,
                           match=rf"sampled pair \({cell[0]}, {cell[1]}\)"):
            estimate_exponential_average(counts, weights)


@pytest.mark.parametrize("counts", [
    np.array([[0, 4], [1, 0], [2, 0]], dtype=np.uint8),
    np.array([[-(2**62), 0], [0, 5]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[True, False], [False, True]]),
    np.array([1, 0, 0, 1]),
], ids=["unsigned", "far-negative", "float", "bool", "flat"])
def test_cell_outside_the_table_or_not_an_index_raises(counts):
    # A count table of another shape has cells outside the 2×2 weight
    # table; one of another kind, or with a negative entry, counts nothing.
    with pytest.raises(ValueError, match="nonnegative integers"):
        estimate_exponential_average(counts, np.zeros((2, 2)))


@pytest.mark.parametrize("ns, ms", [
    ([0, 2], [0, 1]),
    ([0, 1], [0, 2]),  # cell N·M itself
    ([0, -1], [0, 0]),  # a flat label would wrap this around
])
def test_sample_outside_the_table_raises(ns, ms):
    # The pairs (ns, ms) counted over the smallest table that holds both
    # them and the 2×2 weight table: one pair outside it widens the count
    # table, whose shape then differs from the weight table's.
    ns, ms = np.array(ns), np.array(ms)
    low = min(ns.min(), 0), min(ms.min(), 0)
    shape = (max(ns.max(), 1) - low[0] + 1, max(ms.max(), 1) - low[1] + 1)
    counts = cell_counts((ns - low[0]) * shape[1] + ms - low[1], shape)
    assert counts.sum() == 2 and counts.shape != (2, 2)
    with pytest.raises(ValueError, match="nonnegative integers"):
        estimate_exponential_average(counts, np.zeros((2, 2)))


def test_reliability_of_equal_and_dominated_weights():
    counts = np.array([[7, 1]])
    flat = estimate_exponential_average(counts, np.zeros((1, 2)))
    assert flat.effective_sample_size == pytest.approx(8.0, rel=1e-15)
    assert flat.max_weight_share == pytest.approx(1 / 8, rel=1e-15)
    # One draw of weight e^4 against seven of weight 1.
    heavy = estimate_exponential_average(counts, np.array([[0.0, -4.0]]))
    big = np.exp(4.0)
    assert heavy.effective_sample_size == pytest.approx(
        (big + 7) ** 2 / (big ** 2 + 7), rel=1e-14)
    assert heavy.max_weight_share == pytest.approx(big / (big + 7),
                                                   rel=1e-15)
    single = estimate_exponential_average(np.array([[0, 1]]),
                                          np.zeros((1, 2)))
    assert single.effective_sample_size == 1.0
    assert single.max_weight_share == 1.0


@pytest.mark.parametrize("config", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
@pytest.mark.parametrize("weight", ["mi", "work"])
def test_sample_stdout_matches_the_recorded_report(monkeypatch, capsys,
                                                   config, weight):
    # The recorded reports pin each shipped scenario's stream end to end.
    # 1 000 003 draws on three slices cross block and slice edges; the
    # counts are the same on any number of CPUs.
    monkeypatch.setattr(sampler, "_cpu_count", lambda: 3)
    argv = ["sample", "--config", str(config), "--count", "1000003",
            "--weight", weight]
    assert cli.main(argv) == 0
    recorded = DATA_DIR / f"sample_{config.stem}_{weight}.json"
    assert capsys.readouterr().out.encode() == recorded.read_bytes()


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
    # The mask-loop oracle's draw, counted, gives the same report, whose
    # fields the rational oracle bounds.

    def oracle_draw(jd, count, seed):
        ns, ms = mask_loop_draw(jd, count, np.random.default_rng(seed))
        return cell_counts(ns * jd.shape[1] + ms, jd.shape)

    def checked_estimate(counts, weight_table, exact=None):
        report = estimate_exponential_average(counts, weight_table, exact)
        assert_matches_rational_oracle(report, counts, weight_table)
        return report

    monkeypatch.setattr(cli, "sample_trajectories", oracle_draw)
    monkeypatch.setattr(cli, "estimate_exponential_average",
                        checked_estimate)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == out


def test_point_mass_distribution():
    jd = distribution_from_joint(np.array([[1.0]]))
    counts = sample_trajectories(jd, 50, 0)
    np.testing.assert_array_equal(counts, [[50]])
    report = estimate_exponential_average(counts, np.array([[0.7]]))
    assert report.sample_count == 50
    assert report.mean == np.exp(-0.7)
    assert report.std_error == 0.0
    assert report.z_score is None


def test_uniform_marginal_frequencies():
    count = 10_000
    counts = sample_trajectories(uniform_2x2(), count, 3)
    assert counts.sum() == count
    # Binomial(10^4, 1/2) has sigma = 50; allow 4 sigma.
    assert abs(counts[1].sum() - count / 2) < 200
    assert abs(counts[:, 1].sum() - count / 2) < 200
    # Binomial(10^4, 1/4) has sigma ~ 43; allow 4 sigma.
    assert np.all(np.abs(counts - count / 4) < 175)


def test_sampling_is_deterministic_per_seed(drawn_labels):
    jd = uniform_2x2()
    a = sample_trajectories(jd, 100, 11)
    [first] = [np.concatenate(run) for run in drawn_labels.values()]
    drawn_labels.clear()
    b = sample_trajectories(jd, 100, 11)
    [again] = [np.concatenate(run) for run in drawn_labels.values()]
    drawn_labels.clear()
    sample_trajectories(jd, 100, 12)
    [other] = [np.concatenate(run) for run in drawn_labels.values()]
    assert np.array_equal(a, b) and np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_never_samples_off_support():
    jd = distribution_from_joint(np.diag([0.5, 0.5]))
    counts = sample_trajectories(jd, 1000, 5)
    assert counts[0, 1] == counts[1, 0] == 0
    assert counts.sum() == 1000


def test_zero_width_cells_never_selected():
    jd = distribution_from_joint(np.array([[0.5, 0.0, 0.5]]))
    counts = sample_trajectories(jd, 1000, 17)
    assert counts[0, 1] == 0 and counts.sum() == 1000


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
            sample_trajectories(jd, count, 0)
    # No draw, one too many, and 2⁶⁴ draws, whose int64 sum wraps to 0.
    for counts in (np.zeros((2, 2), dtype=np.int64),
                   np.array([[MAX_COUNT, 1], [0, 0]]),
                   np.full((2, 2), 2**62)):
        with pytest.raises(ValueError, match="need between 1 and"):
            estimate_exponential_average(counts, np.zeros((2, 2)))


def test_nonfinite_weight_rejected():
    # e^{−inf} = 0 is finite, yet an infinite weight is rejected too.
    counts = np.array([[1, 1, 0], [0, 1, 2]])
    for bad in (np.nan, np.inf, -np.inf):
        weights = np.zeros((2, 3))
        weights[1, 2] = bad
        with pytest.raises(ValueError,
                           match=r"sampled pair \(1, 2\)") as err:
            estimate_exponential_average(counts, weights)
        assert str(err.value).endswith(repr(weights[1, 2]))
        # Unsampled, the same weight is never read.
        unsampled = counts.copy()
        unsampled[1, 2] = 0
        report = estimate_exponential_average(unsampled, weights)
        assert report.mean == 1.0


def test_all_zero_weights():
    counts = sample_trajectories(uniform_2x2(), 200, 1)
    report = estimate_exponential_average(counts, np.zeros((2, 2)),
                                          exact=1.0)
    assert report.mean == 1.0
    assert report.std_error == 0.0
    assert report.exact_value == 1.0
    assert report.z_score is None


def test_single_sample_has_zero_std_error():
    counts = sample_trajectories(uniform_2x2(), 1, 9)
    report = estimate_exponential_average(counts,
                                          np.arange(4.0).reshape(2, 2))
    assert report.sample_count == 1
    assert report.std_error == 0.0
    assert report.z_score is None


def test_jackknife_matches_classic_standard_error():
    # For a plain sample mean the delete-one jackknife reduces exactly to
    # s / sqrt(n) with s the ddof=1 standard deviation.
    weights = np.array([[0.1, 0.7], [0.3, 1.9]])
    counts = sample_trajectories(uniform_2x2(), 500, 23)
    report = estimate_exponential_average(counts, weights)
    values = np.repeat(np.exp(-weights).ravel(), counts.ravel())
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
    counts = sample_trajectories(jd, 100_000, 99)
    report = estimate_exponential_average(counts, mi.i_table,
                                          exact=mi.exp_average)
    assert report.exact_value == pytest.approx(1.0, abs=1e-10)
    assert abs(report.z_score) <= 3.0


def test_z_scores_roughly_standard_normal_across_seeds():
    jd, mi = fixed_qutrit_scenario()
    zs = []
    for seed in range(200):
        counts = sample_trajectories(jd, 10_000, 4000 + seed)
        report = estimate_exponential_average(counts, mi.i_table,
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
        observed = sample_trajectories(jd, count, 5000 + seed)
        expected = count * jd.p_joint
        statistic = float(np.sum((observed - expected) ** 2 / expected))
        # 9 cells, 1 constraint: 8 degrees of freedom.
        if statistic <= CHI2_8_Q999:
            passes += 1
    assert passes >= int(0.95 * seeds)
