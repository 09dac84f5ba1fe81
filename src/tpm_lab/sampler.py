"""Monte Carlo sampling of outcome pairs and exponential-average estimation.

A sample is its cell counts: how many draws landed on each outcome pair
(n, m) of the N×M joint table. The draws are i.i.d., so the counts carry
every statistic of the estimate, and no array grows with the count. A
draw splits the sample into contiguous slices, one per CPU the process
may use, run on one thread pool, slice 0 on the caller's thread; each is
drawn and counted a block at a time from its own stretch of the seed's
one PCG64 stream, so a seed gives the same counts on any number of CPUs.
The estimator sums Σk·w exactly, so its mean is a function of the counts
alone. Exponential averages are notoriously heavy-tailed estimators;
this module exists to demonstrate that behavior against the exact
values, not to fix it (no importance sampling, no variance reduction).
"""

from __future__ import annotations

import math
import operator
import os
from typing import NamedTuple

import numpy as np

from .tpm import JointDistribution

__all__ = [
    "EstimatorReport",
    "sample_trajectories",
    "estimate_exponential_average",
    "MAX_COUNT",
]

# The largest sample count exact as a double, as the estimate's
# error-free products need of every cell count and of n.
MAX_COUNT = 2**53 - 1

# Cells or buckets per block of rows while a guide table is built.
_BLOCK_CELLS = 1 << 16

# Draws per block while a sample is drawn and counted.
_BLOCK_DRAWS = 1 << 16


class EstimatorReport(NamedTuple):
    """Sample mean with its standard error and optional exact comparison,
    as an immutable ``NamedTuple``.

    ``std_error`` is s/√n with s the ddof=1 sample standard deviation,
    which is exactly the delete-one jackknife error of a sample mean.
    ``z_score`` is (mean − exact)/std_error; it is None when no exact value
    was supplied or when the standard error is zero (single sample or a
    constant weight table).

    The reliability of the mean is read from the sampled weights
    w = e^{−weight}: ``effective_sample_size`` is (Σw)²/Σw², between 1
    and ``sample_count``, and ``max_weight_share`` is max w / Σw. A few
    rare draws carrying the average show as a small effective sample
    size and a large share. Both are NaN when every sampled w is 0.
    """

    sample_count: int
    mean: float
    std_error: float
    effective_sample_size: float
    max_weight_share: float
    exact_value: float | None = None
    z_score: float | None = None


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _guide_table(cdfs: np.ndarray, count: int,
                 dtype=None) -> tuple[np.ndarray, np.ndarray]:
    """Bucketed inverse-CDF guide table (Chen & Asau, 1974) for each row,
    sized for ``count`` draws, with the bounds table it is read from;
    entries of both are flat cell labels of ``dtype``, by default
    ``np.min_scalar_type(N·M)``, an unsigned type whose maximum is no
    label.

    Bucket j of B covers [j/B, (j+1)/B), with B the largest power of two
    ≤ min(max(32·M, 2¹⁶ // N), max(1, count // N)), so scaling by B is
    exact: c ≤ j/B ⟺ ⌈c·B⌉ ≤ j. A small table thus gets at least about a
    block's worth, 2¹⁶, of buckets, so fewer of its draws are bisected;
    from M = 64 up, 32·M sets B. Only a row's first M − 1 CDF values are
    read: the count of them ≤ u is min(searchsorted(row, u,
    side="right"), M − 1).
    ``bounds[r, j]`` is the label r·M + the count of them ≤ j/B, except
    that column B counts those < 1, since no u < 1 reaches a CDF value of
    1, so every u in bucket j has its label between ``bounds[r, j]`` and
    ``bounds[r, j + 1]``. ``guide[r, j]`` is that label where the two
    agree, and the dtype's maximum, never a label, where a CDF value in
    (j/B, (j+1)/B) leaves a search to tell. A value exactly at an inner
    edge (j+1)/B < 1 marks bucket j too, needlessly: the search then
    finds the lower bound.
    Rows must be nondecreasing and nonnegative. Returns ``(guide,
    bounds)``, of shapes (N, B) and (N, B + 1) and dtype ``dtype``, built
    in it so that the marker is its maximum; the guide has at most
    min(max(32·N·M, 2¹⁶), max(N, count)) entries, so neither table
    outgrows the draws it serves. Both are built a block of about 2¹⁶
    cells or buckets at a time, which bounds the build's temporaries
    whatever N·M.
    """
    n_rows, n_cols = cdfs.shape
    n_buckets = 1 << min(max(32 * n_cols, _BLOCK_CELLS // n_rows),
                         max(1, count // n_rows)).bit_length() - 1
    if dtype is None:
        dtype = np.min_scalar_type(n_rows * n_cols)
    guide = np.empty((n_rows, n_buckets), dtype=dtype)
    bounds = np.empty((n_rows, n_buckets + 1), dtype=dtype)
    flat = bounds.reshape(-1)
    block = max(1, _BLOCK_CELLS // max(n_cols, n_buckets))
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        ceil = np.ceil(cdfs[start:stop, :-1] * n_buckets)
        # Row r holds label r·M + i on the columns from ⌈c_{i−1}·B⌉ up to
        # ⌈c_i·B⌉, capped at B, or up to B + 1 where c_i is 1, which no
        # u < 1 reaches; its last label also holds column B, so column B
        # holds the count of values < 1.
        edges = np.zeros((stop - start, n_cols + 1), dtype=np.intp)
        np.minimum(ceil, n_buckets, out=ceil)
        ceil += cdfs[start:stop, :-1] >= 1.0
        edges[:, 1:-1] = ceil
        edges[:, -1] = n_buckets + 1
        labels = np.arange(start * n_cols, stop * n_cols, dtype=dtype)
        flat[start * (n_buckets + 1):stop * (n_buckets + 1)] = np.repeat(
            labels, np.diff(edges, axis=1).ravel())
        lower, upper = bounds[start:stop, :-1], bounds[start:stop, 1:]
        guide[start:stop] = np.where(lower == upper, lower,
                                     np.iinfo(dtype).max)
    return guide, bounds


def _guided_search(cdfs: np.ndarray, tables: tuple[np.ndarray, np.ndarray],
                   rng: np.random.Generator, found: np.ndarray,
                   rows: np.ndarray | None,
                   buffers: tuple[np.ndarray, np.ndarray]) -> None:
    """Write into ``found`` the label r·M + min(searchsorted(cdfs[r], u_k,
    side="right"), M − 1) of each draw k, with r = rows[k] (``rows=None``
    searches a one-row table) and u_k the generator's next ``found.size``
    uniforms, leaving it as ``rng.random(found.size)`` would. ``rows`` may
    be ``found`` itself: a block's rows are read before its labels are
    written. ``tables`` is ``_guide_table(cdfs, ...)``, only read, so
    slices of one draw may search it at once.

    The draws run a block at a time through ``buffers``, a float64 and an
    intp array of the block's length. Each uniform u reads its bucket ⌊u·B⌋
    (exact for B a power of two) from the guide table. A draw whose bucket
    holds a CDF step, at most M/B of them, is bisected between the
    bucket's two bounds over the row's CDF values, one vectorised step per
    bit of the block's widest such range. Beyond the buffers, only the
    marked draws' temporaries are allocated.
    """
    guide, bounds = tables
    n_buckets = guide.shape[1]
    flat_guide, flat_bounds = guide.reshape(-1), bounds.reshape(-1)
    flat_cdfs = cdfs.reshape(-1)
    count = found.size
    u, bucket = buffers
    for start in range(0, count, u.size):
        stop = min(start + u.size, count)
        u_block, bucket_block = u[:stop - start], bucket[:stop - start]
        rng.random(out=u_block)
        # u·B is exact, so the buffer holds it and the intp bucket index
        # r·B + ⌊u·B⌋ is summed in place, with no index copy in ``take``.
        u_block *= n_buckets
        if rows is None:
            np.copyto(bucket_block, u_block, casting="unsafe")
        else:
            np.multiply(rows[start:stop], n_buckets, out=bucket_block,
                        dtype=np.intp)
            np.add(bucket_block, u_block, out=bucket_block, dtype=np.intp,
                   casting="unsafe")
        # Every bucket index lies in the table, so "clip" never moves one;
        # unlike "raise", it writes straight into ``found``.
        block = found[start:stop]
        flat_guide.take(bucket_block, out=block, mode="clip")
        hit = np.flatnonzero(block == np.iinfo(guide.dtype).max)
        hit_u = u_block[hit] / n_buckets
        # The block's spent buffers take the bisection's probes and the CDF
        # values read at them. Bucket r·B + j has its bounds at
        # r·(B + 1) + j and the next entry.
        probe, cdf = bucket[:hit.size], u[:hit.size]
        bucket_block.take(hit, out=probe)
        probe += probe >> n_buckets.bit_length() - 1
        last = np.subtract(flat_bounds.take(probe), 1, dtype=np.intp)
        probe += 1
        top = np.subtract(flat_bounds.take(probe), 1, dtype=np.intp)
        # The labels in (last, top] are all among their row's first M − 1,
        # and the draw's label is one past the last of them whose CDF value
        # is ≤ u: one bisection step per bit of the block's widest range.
        np.subtract(top, last, out=probe)
        for k in reversed(range(int(probe.max(initial=0)).bit_length())):
            np.add(last, 1 << k, out=probe)
            np.minimum(probe, top, out=probe)
            flat_cdfs.take(probe, out=cdf, mode="clip")
            # last = probe where the CDF value there is ≤ u, branch-free.
            probe -= last
            probe *= cdf <= hit_u
            last += probe
        last += 1
        block[hit] = last


def _slices(count: int) -> list[tuple[int, int]]:
    """The draws [a, b) of each worker: with W the number of CPUs this
    process may run on, capped at one per full block of draws, the W even
    slices [k·count // W, (k + 1)·count // W). Draw k reads uniform k
    wherever its slice starts, so the split leaves the stream as it is."""
    workers = max(1, min(_cpu_count(), count // _BLOCK_DRAWS))
    edges = [k * count // workers for k in range(workers + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _count(labels: np.ndarray, counts: np.ndarray,
           index: np.ndarray) -> None:
    """Add one to ``counts`` at each of the flat cell ``labels``, copied
    first into the intp buffer ``index``. A ``bincount`` zeroes and adds
    a whole table, so it counts only into one of at most half the block;
    ``np.add.at`` costs more per label but nothing per cell."""
    index = index[:labels.size]
    np.copyto(index, labels)
    if 2 * counts.size <= labels.size:
        counts += np.bincount(index, minlength=counts.size)
    else:
        np.add.at(counts, index, 1)


def sample_trajectories(jd: JointDistribution, count: int,
                        seed) -> np.ndarray:
    """Draw ``count`` i.i.d. outcome pairs from the joint distribution and
    return their cell counts: an (N, M) int64 table whose entry (n, m) is
    the number of draws of (n, m). Inverse-CDF sampling: each draw's first
    outcome n from p(n), then its second m from its row p(·|n), one
    uniform each. Mass below the support epsilon is dropped and the rest
    renormalized, so only cells on the support mask are counted.

    The sample is a function of ``seed``, any entropy
    ``np.random.SeedSequence`` accepts (``None`` draws fresh entropy,
    once): draw k reads uniform k of ``np.random.default_rng(seed)`` in
    the first stage and uniform count + k in the second.

    Both stages read a bucketed guide table (``_guide_table``) of B
    buckets per row and give exactly the right-side ``searchsorted`` of
    each uniform in O(count + N·B + f·count·log M), f ≤ M/B the share of
    draws in a bucket holding a CDF step.

    The draws are split into even contiguous slices (``_slices``), one per
    CPU and at most one per full block: slice 0 on the caller's thread, the
    rest on a thread pool. Slice [a, b) reads a ``PCG64`` of the seed
    advanced by a and one advanced by count + a: the same counts on any
    number of CPUs. Every worker is joined before the first error in slice
    order, if any, is raised.

    A slice runs a block of ``_BLOCK_DRAWS`` draws at a time through its
    own buffers: the first stage writes the block's first outcomes into a
    block of labels in the smallest unsigned type that holds N·M, the
    second writes the cells n·M + m over them, and they are counted into
    the slice's table; the slices' tables are summed. No array grows with
    the count, an integer in [1, MAX_COUNT]: ``operator.index`` takes a
    numpy integer and rejects a float with TypeError.
    """
    count = operator.index(count)
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}], got {count}")
    sequence = np.random.SeedSequence(seed)
    p = np.where(jd.support_mask, jd.p_joint, 0.0)
    row_mass = p.sum(axis=1)
    total = float(row_mass.sum())
    # Zero-mass rows/cells occupy zero-width CDF intervals; searchsorted
    # with side='right' can never select them for u in [0, 1).
    first_cdf = (np.cumsum(row_mass) / total)[None, :]
    row_cdfs = np.cumsum(p, axis=1, out=p)  # in place: one N×M table
    row_totals = row_cdfs[:, -1].copy()
    row_totals[row_totals <= 0] = 1.0  # zero-mass rows are never selected
    row_cdfs /= row_totals[:, None]
    row_tables = _guide_table(row_cdfs, count)
    labels_dtype = row_tables[0].dtype
    first_tables = _guide_table(first_cdf, count, labels_dtype)

    def draw(first: np.random.Generator, second: np.random.Generator,
             a: int, b: int) -> np.ndarray:
        # One slice's buffers serve all its blocks, so no block allocates.
        counts = np.zeros(jd.p_joint.size, dtype=np.int64)
        size = min(b - a, _BLOCK_DRAWS)
        block = np.empty(size, dtype=labels_dtype)
        buffers = np.empty(size), np.empty(size, dtype=np.intp)
        for start in range(a, b, size):
            labels = block[:b - start]
            _guided_search(first_cdf, first_tables, first, labels, None,
                           buffers)
            _guided_search(row_cdfs, row_tables, second, labels, labels,
                           buffers)
            _count(labels, counts, buffers[1])
        return counts

    def stream(offset: int) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(sequence).advance(offset))

    # Imported only once a process draws. Each slice's generators live
    # until the draw ends; ``submit``, not ``map``: no slice is cancelled.
    from concurrent.futures import ThreadPoolExecutor
    jobs = [(stream(a), stream(count + a), a, b) for a, b in _slices(count)]
    with ThreadPoolExecutor(max(1, len(jobs) - 1)) as pool:
        futures = [pool.submit(draw, *job) for job in jobs[1:]]
        counts = draw(*jobs[0])
        for future in futures:
            counts += future.result()
    return counts.reshape(jd.shape)


def _two_product(a, b):
    """(p, e) with p = fl(a·b) and p + e = a·b exactly (Dekker, 1971),
    elementwise, unless e falls below the smallest normal double: each
    factor is split by 2²⁷ + 1 into two halves of at most 26 significant
    bits (Veltkamp), whose four products are exact."""
    def split(x):
        scaled = x * 134217729.0
        high = scaled - (scaled - x)
        return high, x - high

    (a_hi, a_lo), (b_hi, b_lo) = split(a), split(b)
    p = a * b
    return p, a_hi * b_hi - p + a_hi * b_lo + a_lo * b_hi + a_lo * b_lo


def estimate_exponential_average(counts: np.ndarray, weight_table,
                                 exact: float | None = None) -> EstimatorReport:
    """Estimate ⟨e^{−w}⟩ from the cell counts of a sample.

    ``counts`` is the (N, M) table of ``sample_trajectories``, and entry
    (n, m) of the N×M ``weight_table`` is the exponent w of the pair
    (n, m). w and e^{−w} must be finite at every sampled cell, one with a
    nonzero count k, or ValueError names the pair; unsampled cells may
    hold anything and are never read. The error bar is s/√n, the
    delete-one jackknife standard error of the sample mean.

    The sampled weights are scaled by the power of two that puts the
    largest in [1/2, 1), so no sum overflows, and the results are scaled
    back. Σk·w is summed exactly: each k·w is split error-free into two
    doubles (``_two_product``), and ``math.fsum`` rounds the residual
    Σk·w − n·q of a first quotient q. So the mean is Σk·w/n correctly
    rounded but for ties, a function of the counts alone. s² is
    Σk·(w − mean)²/(n − 1), summed in one vectorised pass, and exactly 0
    for a constant sample. ``effective_sample_size`` is
    n/(1 + (1 − 1/n)·(s/mean)²), which is (Σw)²/Σw², and
    ``max_weight_share`` is max w/(n·mean), max w over the sampled cells.
    Time and memory are O(N·M) whatever the count, which must lie in
    [1, MAX_COUNT].
    """
    table = np.asarray(weight_table, dtype=float)
    counts = np.asarray(counts)
    cells = np.flatnonzero(counts)
    k = counts.reshape(-1)[cells]
    if (counts.dtype.kind not in "iu" or counts.shape != table.shape
            or k.min(initial=0) < 0):
        raise ValueError(f"counts must be a table of nonnegative integers "
                         f"of the weight table's shape {table.shape}")
    n = int(k.sum())
    # Below 2⁵⁴ the float sum leaves the integer sum far from overflow.
    if k.sum(dtype=float) > 2.0 ** 54 or not 1 <= n <= MAX_COUNT:
        raise ValueError(f"need between 1 and {MAX_COUNT} samples")
    exponents = table.reshape(-1)[cells]
    with np.errstate(over="ignore"):
        w = np.exp(-exponents)
    finite = np.isfinite(exponents) & np.isfinite(w)
    if not finite.all():
        pair = divmod(int(cells[np.argmin(finite)]), table.shape[1])
        raise ValueError(f"non-finite weight or e^(-weight) at sampled pair "
                         f"{pair}: {table[pair]!r}")
    exponent = math.frexp(float(w.max()))[1]
    w = np.ldexp(w, -exponent)
    k = k.astype(float)  # exact: each k ≤ n < 2⁵³
    products, errors = _two_product(k, w)
    quotient = float(products.sum()) / n
    high, low = _two_product(quotient, float(n))
    # A memoryview hands fsum each double with no list of floats.
    residual = math.fsum(memoryview(np.concatenate(
        [products, errors, [-high, -low]])))
    mean = quotient + residual / n
    s = 0.0
    if n > 1:
        s = math.sqrt(float(np.sum(k * np.square(w - mean))) / (n - 1))
    effective_sample_size = max_weight_share = math.nan
    if mean > 0:
        cv = s / mean
        effective_sample_size = n / (1.0 + (1.0 - 1.0 / n) * cv * cv)
        max_weight_share = float(w.max()) / (n * mean)
    mean = math.ldexp(mean, exponent)
    std_error = math.ldexp(s / math.sqrt(n), exponent)
    z_score = None
    if exact is not None and std_error > 0:
        z_score = (mean - float(exact)) / std_error
    return EstimatorReport(sample_count=n, mean=mean, std_error=std_error,
                           exact_value=None if exact is None else float(exact),
                           z_score=z_score,
                           effective_sample_size=effective_sample_size,
                           max_weight_share=max_weight_share)
