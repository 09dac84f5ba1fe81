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


def sample_trajectories(jd: JointDistribution, count: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` i.i.d. outcome pairs from the joint distribution.

    Returns ``(ns, ms)``, two ``np.intp`` arrays of length ``count``.
    Inverse-CDF sampling: all first outcomes n from p(n), then, for each
    first outcome, its second outcomes m from the row p(·|n). Mass below
    the distribution's support epsilon is dropped and the remainder
    renormalized, so every returned pair lies on the support mask.
    Deterministic for a fixed generator state.

    The draws are grouped by first outcome with one stable sort of ``ns``
    (a radix sort while N fits in 16 bits), so each row's uniforms are one
    contiguous slice searched once. Time is O(count·log M + N·M); peak
    memory is four count-long 8-byte arrays, the returned pair included
    (32 MB per 10⁶ draws), plus the N×M CDF table. ``count`` must lie in
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
    ns = np.searchsorted(first_cdf, rng.random(count), side="right")
    np.minimum(ns, n_rows - 1, out=ns)

    row_cdfs = np.cumsum(p, axis=1)
    row_totals = row_cdfs[:, -1].copy()
    row_totals[row_totals <= 0] = 1.0  # zero-mass rows are never selected
    row_cdfs /= row_totals[:, None]
    u = rng.random(count)
    # Any grouping order gives the same stream, since each uniform keeps
    # its draw index; kind="stable" is numpy's radix sort on 8/16-bit keys.
    order = np.argsort(ns.astype(np.min_scalar_type(n_rows - 1)),
                       kind="stable")
    u_grouped = u[order]
    del u
    row_counts = np.bincount(ns, minlength=n_rows)
    row_ends = np.cumsum(row_counts)
    ms = np.empty(count, dtype=np.intp)
    for n in np.flatnonzero(row_counts):
        a, b = row_ends[n] - row_counts[n], row_ends[n]
        ms[order[a:b]] = np.searchsorted(row_cdfs[n], u_grouped[a:b],
                                         side="right")
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
    outside the table raises ValueError.
    """
    ns, ms = samples
    if not len(ns):
        raise ValueError("need at least one sample")
    table = np.asarray(weight_table, dtype=float)
    flat = np.ravel_multi_index((ns, ms), table.shape)
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
