"""Monte Carlo sampling of outcome pairs and exponential-average estimation.

A sample is a pair of ``np.intp`` index arrays ``(ns, ms)``: draw k is the
outcome pair (ns[k], ms[k]). Exponential averages are notoriously
heavy-tailed estimators; this module exists to demonstrate that behavior
against the exact values, not to fix it (no importance sampling, no
variance reduction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tpm import JointDistribution

__all__ = [
    "EstimatorReport",
    "sample_trajectories",
    "estimate_exponential_average",
]


@dataclass(frozen=True)
class EstimatorReport:
    """Sample mean with its standard error and optional exact comparison.

    ``std_error`` is s/√n with s the ddof=1 sample standard deviation,
    which is exactly the delete-one jackknife error of a sample mean.
    ``z_score`` is (mean − exact)/std_error; it is None when no exact value
    was supplied or when the standard error is zero (single sample or a
    constant weight table).
    """

    sample_count: int
    mean: float
    std_error: float
    exact_value: float | None = None
    z_score: float | None = None


def sample_trajectories(jd: JointDistribution, count: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``count`` i.i.d. outcome pairs from the joint distribution.

    Returns ``(ns, ms)``, two ``np.intp`` arrays of length ``count``.
    Inverse-CDF sampling: all first outcomes n from p(n), then, for each
    first outcome, its second outcomes m from the row p(·|n). Mass below
    the distribution's support epsilon is dropped and the remainder
    renormalized, so every returned pair lies on the support mask. Memory
    is O(count + N·M). Deterministic for a fixed generator state.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    p = np.where(jd.support_mask, jd.p_joint, 0.0)
    row_mass = p.sum(axis=1)
    total = float(row_mass.sum())
    first_cdf = np.cumsum(row_mass) / total
    # Zero-mass rows/cells occupy zero-width CDF intervals; searchsorted
    # with side='right' can never select them for u in [0, 1).
    ns = np.searchsorted(first_cdf, rng.random(count), side="right")
    ns = np.minimum(ns, p.shape[0] - 1)

    row_cdfs = np.cumsum(p, axis=1)
    row_totals = row_cdfs[:, -1].copy()
    row_totals[row_totals <= 0] = 1.0  # zero-mass rows are never selected
    row_cdfs /= row_totals[:, None]
    u = rng.random(count)
    ms = np.empty(count, dtype=np.intp)
    for n in range(p.shape[0]):
        drawn = ns == n
        ms[drawn] = np.searchsorted(row_cdfs[n], u[drawn], side="right")
    ms = np.minimum(ms, p.shape[1] - 1)
    return ns, ms


def estimate_exponential_average(samples: tuple[np.ndarray, np.ndarray],
                                 weight_table,
                                 exact: float | None = None) -> EstimatorReport:
    """Estimate ⟨e^{−w}⟩ from sampled outcome pairs ``(ns, ms)``.

    ``weight_table[n, m]`` gives the exponent for pair (n, m); it must be
    finite at every sampled pair (off-support cells may be NaN — they are
    never sampled). The error bar is s/√n, the delete-one jackknife
    standard error of the sample mean.
    """
    ns, ms = samples
    if not len(ns):
        raise ValueError("need at least one sample")
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
        # s is shift-invariant; measuring from one sample makes it exactly 0
        # for a constant sample, whose mean need not round to the constant.
        std_error = float((values - values[0]).std(ddof=1) / np.sqrt(n))
    z_score = None
    if exact is not None and std_error > 0:
        z_score = (mean - float(exact)) / std_error
    return EstimatorReport(sample_count=n, mean=mean, std_error=std_error,
                           exact_value=None if exact is None else float(exact),
                           z_score=z_score)
