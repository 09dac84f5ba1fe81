"""Monte Carlo sampling of outcome pairs and exponential-average estimation.

A sample is a pair of ``np.intp`` index arrays ``(ns, ms)``: draw k is the
outcome pair (ns[k], ms[k]). Exponential averages are notoriously
heavy-tailed estimators; this module exists to demonstrate that behavior
against the exact values, not to fix it (no importance sampling, no
variance reduction).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tpm import JointDistribution

__all__ = [
    "EstimatorReport",
    "sample_trajectories",
    "estimate_exponential_average",
    "MAX_COUNT",
]

# The largest sample count whose np.intp index arrays are addressable.
MAX_COUNT = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize


@dataclass(frozen=True)
class EstimatorReport:
    """Sample mean with its standard error and optional exact comparison.

    ``std_error`` is s/√n with s the ddof=1 sample standard deviation,
    which is exactly the delete-one jackknife error of a sample mean.
    ``z_score`` is (mean − exact)/std_error; it is None when no exact value
    was supplied or when the standard error is zero (single sample or a
    constant weight table).

    The reliability of the mean is read from the sampled weights
    w = e^{−weight}: ``effective_sample_size`` is (Σw)²/Σw², between 1
    and ``sample_count``, and ``max_weight_share`` is max w / Σw. A few
    rare draws carrying the average show as a small effective sample
    size and a large share. Both are NaN when Σw is zero or not finite
    or when s overflows.
    """

    sample_count: int
    mean: float
    std_error: float
    effective_sample_size: float
    max_weight_share: float
    exact_value: float | None = None
    z_score: float | None = None


def _guide_table(cdfs: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Bucketed inverse-CDF guide table (Chen & Asau, 1974) for each row,
    sized for ``count`` draws.

    Bucket j of B covers [j/B, (j+1)/B), with B the largest power of two
    ≤ min(32·M, max(1, count // N)), so scaling by B is exact: c ≤ j/B ⟺
    ⌈c·B⌉ ≤ j, and c lies strictly inside bucket j ⟺ ⌊c·B⌋ = j < c·B.
    ``guide[r, j]`` is the count of row r's CDF values ≤ j/B, which is
    the right-side ``searchsorted`` of every u in the bucket, or M + 1
    where a CDF value lies strictly inside the bucket and only a search
    can tell. Rows must be nondecreasing and nonnegative. Returns
    ``(guide, B)``; the table is (N, B) of ``np.min_scalar_type(M + 1)``,
    at most min(32·N·M, max(N, count)) entries, so it never outgrows the
    draws it serves.
    """
    n_rows, n_cols = cdfs.shape
    n_buckets = 1 << min(32 * n_cols,
                         max(1, count // n_rows)).bit_length() - 1
    scaled = cdfs * n_buckets
    step = n_cols + 1
    # Row r holds count i on the buckets from ⌈c_{i−1}·B⌉ up to ⌈c_i·B⌉.
    edges = np.zeros((n_rows, n_cols + 2), dtype=np.intp)
    edges[:, 1:-1] = np.minimum(np.ceil(scaled), n_buckets)
    edges[:, -1] = n_buckets
    counts = np.arange(n_cols + 1, dtype=np.min_scalar_type(step))
    guide = np.repeat(np.tile(counts, n_rows), np.diff(edges, axis=1).ravel())
    guide = guide.reshape(n_rows, n_buckets)
    inside = (np.floor(scaled) < scaled) & (scaled < n_buckets)
    rows, cols = np.nonzero(inside)
    guide[rows, np.floor(scaled[rows, cols]).astype(np.intp)] = step
    return guide, n_buckets


def _guided_search(cdfs: np.ndarray, u: np.ndarray,
                   rows: np.ndarray | None = None) -> np.ndarray:
    """``np.searchsorted(cdfs[rows[k]], u[k], side="right")`` for every k,
    as ``np.intp``; ``rows=None`` searches the single row of a one-row
    table.

    Each uniform u = k·2⁻⁵³ in [0, 1) reads its bucket ⌊u·B⌋ (exact for
    B a power of two) from the guide table; only the draws whose bucket
    holds a CDF step get a binary search, grouped by row with one stable
    sort. That is at most M/B of them, under 1/16 unless fewer than 32·M
    draws per row cap B.
    """
    n_rows = cdfs.shape[0]
    guide, n_buckets = _guide_table(cdfs, u.size)
    step = cdfs.shape[1] + 1
    index_type = (np.int32 if guide.size <= np.iinfo(np.int32).max
                  else np.intp)
    cell = (u * n_buckets).astype(index_type)
    if rows is not None:
        offset = rows.astype(index_type)
        offset *= n_buckets
        cell += offset
        del offset
    found = guide.ravel().take(cell)
    del cell
    todo = np.flatnonzero(found == step)
    found = found.astype(np.intp)
    todo_rows = np.zeros_like(todo) if rows is None else rows[todo]
    # kind="stable" is numpy's radix sort on 8/16-bit keys.
    todo = todo[np.argsort(todo_rows.astype(np.min_scalar_type(n_rows - 1)),
                           kind="stable")]
    row_counts = np.bincount(todo_rows, minlength=n_rows)
    row_ends = np.cumsum(row_counts)
    for r in np.flatnonzero(row_counts):
        k = todo[row_ends[r] - row_counts[r]:row_ends[r]]
        found[k] = np.searchsorted(cdfs[r], u[k], side="right")
    return found


def sample_trajectories(jd: JointDistribution, count: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` i.i.d. outcome pairs from the joint distribution.

    Returns ``(ns, ms)``, two ``np.intp`` arrays of length ``count``.
    Inverse-CDF sampling: all first outcomes n from p(n), then every
    draw's second outcome m from its row p(·|n). Mass below the
    distribution's support epsilon is dropped and the remainder
    renormalized, so every returned pair lies on the support mask.
    Deterministic for a fixed generator state.

    Both stages read a bucketed guide table instead of binary-searching
    every draw, and give exactly the right-side ``searchsorted`` of each
    uniform: the stream is that of a plain inverse-CDF draw. With B the
    largest power of two ≤ min(32·M, max(1, count // N)) (N = 1 and M = N
    for the first stage) and f the fraction of draws whose bucket holds a
    CDF step (≤ M/B, under 1/16 when B is not capped by the count), time
    is O(count + N·B + f·count·log M). Peak memory is 28 bytes per draw
    (28 MB per 10⁶ draws), reached while the second stage finds its
    buckets: ``ns``, the uniforms and their scaled copy at 8 bytes each
    and the 4-byte bucket index (8-byte beyond 2³¹ guide entries). On top
    come the N×M CDF table and the (N, B) guide table of 1-, 2- or 4-byte
    entries, at most max(N, count) of them. ``count`` must lie in
    [1, MAX_COUNT].
    """
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}], got {count}")
    p = np.where(jd.support_mask, jd.p_joint, 0.0)
    n_rows, n_cols = p.shape
    row_mass = p.sum(axis=1)
    total = float(row_mass.sum())
    first_cdf = np.cumsum(row_mass) / total
    # Zero-mass rows/cells occupy zero-width CDF intervals; searchsorted
    # with side='right' can never select them for u in [0, 1).
    ns = _guided_search(first_cdf[None, :], rng.random(count))
    np.minimum(ns, n_rows - 1, out=ns)

    row_cdfs = np.cumsum(p, axis=1)
    row_totals = row_cdfs[:, -1].copy()
    row_totals[row_totals <= 0] = 1.0  # zero-mass rows are never selected
    row_cdfs /= row_totals[:, None]
    ms = _guided_search(row_cdfs, rng.random(count), ns)
    np.minimum(ms, n_cols - 1, out=ms)
    return ns, ms


def estimate_exponential_average(samples: tuple[np.ndarray, np.ndarray],
                                 weight_table,
                                 exact: float | None = None) -> EstimatorReport:
    """Estimate ⟨e^{−w}⟩ from sampled outcome pairs ``(ns, ms)``.

    ``weight_table[n, m]`` gives the exponent for pair (n, m); it must be
    finite at every sampled pair (off-support cells may be NaN or of any
    size — they are never sampled). The error bar is s/√n, the delete-one
    jackknife standard error of the sample mean.

    The N×M table is exponentiated once and the samples gather from it,
    so time is O(count + N·M) and memory two count-long 8-byte arrays at
    a time beyond the samples and the N×M tables. A sampled index
    outside the table, negative ones included, raises ValueError.
    """
    ns, ms = (np.asarray(index) for index in samples)
    if not len(ns):
        raise ValueError("need at least one sample")
    table = np.asarray(weight_table, dtype=float)
    n_rows, n_cols = table.shape
    if (ns.min() < 0 or ns.max() >= n_rows
            or ms.min() < 0 or ms.max() >= n_cols):
        raise ValueError(f"invalid entry in samples: an index pair lies "
                         f"outside the {n_rows}×{n_cols} weight table")
    flat = np.multiply(ns, n_cols, dtype=np.intp)
    flat += ms
    nonfinite = np.flatnonzero((~np.isfinite(table)).ravel()[flat])
    if nonfinite.size:
        bad = int(nonfinite[0])
        raise ValueError(
            f"non-finite weight at sampled pair "
            f"({ns[bad]}, {ms[bad]}): {table[ns[bad], ms[bad]]!r}")
    # Unsampled off-support cells may overflow or be NaN; only the
    # sampled (finite) cells are read.
    with np.errstate(over="ignore", invalid="ignore"):
        exp_table = np.exp(-table)
    values = exp_table.ravel()[flat]
    del flat
    n = values.size
    total = float(values.sum())
    mean = total / n
    largest = float(values.max())
    s = 0.0
    if n > 1:
        # s is shift-invariant; measuring from one sample makes it exactly 0
        # for a constant sample, whose mean need not round to the constant.
        values -= values[0]
        s = float(values.std(ddof=1))
    std_error = s / math.sqrt(n)
    if 0.0 < total < math.inf and math.isfinite(s):
        # (Σw)²/Σw² with Σw² = (n − 1)s² + n·mean², two nonnegative terms.
        cv = s / mean
        effective_sample_size = n / (1.0 + (1.0 - 1.0 / n) * cv * cv)
        max_weight_share = largest / total
    else:
        effective_sample_size = max_weight_share = math.nan
    z_score = None
    if exact is not None and std_error > 0:
        z_score = (mean - float(exact)) / std_error
    return EstimatorReport(sample_count=n, mean=mean, std_error=std_error,
                           exact_value=None if exact is None else float(exact),
                           z_score=z_score,
                           effective_sample_size=effective_sample_size,
                           max_weight_share=max_weight_share)
