"""Monte Carlo sampling of outcome pairs and exponential-average estimation.

A sample is one array of flat cell indices of the N×M joint table: draw k
is the outcome pair (n, m) with cells[k] = n·M + m, in the smallest
unsigned type that holds N·M. It is the only array that grows with the
count: 2 bytes per draw at d = 16. A draw runs on every CPU the process
may use, each thread drawing a contiguous slice of the sample from its
own stretch of the one generator stream, so a seed gives the same sample
on any number of CPUs. The estimator sums the sampled weights leaf by
leaf along numpy's own pairwise-summation tree, also on every CPU, so its
sums are bit for bit those of one whole-array reduction. Exponential
averages are notoriously heavy-tailed estimators; this module exists to
demonstrate that behavior against the exact values, not to fix it (no
importance sampling, no variance reduction).
"""

from __future__ import annotations

import math
import os
from threading import Thread
from typing import NamedTuple

import numpy as np

from .tpm import JointDistribution

__all__ = [
    "EstimatorReport",
    "sample_trajectories",
    "estimate_exponential_average",
    "MAX_COUNT",
]

# The largest sample count whose one count-long array, the cells, is
# addressable with labels of up to 8 bytes; the uniforms, the gather
# indices and the gathered weights live a block or a leaf of draws at a
# time.
MAX_COUNT = np.iinfo(np.intp).max // np.dtype(np.uint64).itemsize

# Cells or buckets per block of rows while a guide table is built.
_BLOCK_CELLS = 1 << 16

# Draws per block while a sample is drawn, and the least number of draws
# per leaf while its weights are summed.
_BLOCK_DRAWS = 1 << 16

# numpy sums a contiguous float64 run of at most this many values in one
# unrolled loop, and a longer one as the sum of its two halves.
_PAIRWISE_BLOCK = 128


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


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _on_threads(target, jobs: list[tuple]) -> None:
    """Call ``target(*args)`` for each argument tuple of ``jobs``, each on
    a thread of its own, the first on the caller's thread. Once every call
    has finished, the first exception among them, in job order, is raised
    again in the caller."""
    errors: list[BaseException | None] = [None] * len(jobs)

    def run(k: int) -> None:
        try:
            target(*jobs[k])
        except BaseException as exc:  # raised again by the caller
            errors[k] = exc

    threads = []
    try:
        for k in range(1, len(jobs)):
            threads.append(Thread(target=run, args=(k,)))
            threads[-1].start()
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error


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
                   rows: np.ndarray | None = None) -> None:
    """Write into ``found`` the label r·M + min(searchsorted(cdfs[r], u_k,
    side="right"), M − 1) of each draw k < ``found.size``, with r =
    rows[k] and u_k the generator's next ``found.size`` uniforms;
    ``rows=None`` searches the single row of a one-row table. ``rows`` may
    be ``found`` itself: a block's rows are read before its labels are
    written over them. ``tables``
    is ``_guide_table(cdfs, ...)``, read and never written, so slices of
    one draw may search it at once. The generator is left exactly as one
    ``rng.random(found.size)`` call leaves it.

    The draws run a block of ``_BLOCK_DRAWS`` at a time through two
    buffers of this call. Each uniform u = k·2⁻⁵³ in [0, 1) reads its
    bucket ⌊u·B⌋ (exact for B a power of two) from the guide table. A
    draw whose bucket holds a CDF step is finished in its block, by a
    bisection between the bucket's two bounds over the row's CDF values:
    one vectorised step per bit of the widest such range in the block.
    That is at most M/B of the draws, under 1/16 unless the count caps B.
    Nothing but the output outlives a block: the call's own memory is the
    two buffers, 16 bytes per block draw, and its marked draws'
    temporaries.
    """
    guide, bounds = tables
    n_buckets = guide.shape[1]
    flat_guide, flat_bounds = guide.reshape(-1), bounds.reshape(-1)
    flat_cdfs = cdfs.reshape(-1)
    count = found.size
    u = np.empty(min(count, _BLOCK_DRAWS))
    bucket = np.empty(u.size, dtype=np.intp)
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


def _slices(count: int, bit_generator) -> list[tuple[int, int]]:
    """The draws [a, b) of each worker: with W the number of CPUs this
    process may run on, capped at one per full block of draws, the W even
    slices [k·count // W, (k + 1)·count // W). Draw k reads uniform k
    wherever its slice starts, so the split leaves the stream as it is.
    One slice unless ``bit_generator`` can skip ahead by 64-bit outputs:
    ``PCG64.advance(k)`` (and ``PCG64DXSM``'s) skips exactly the k outputs
    of k doubles, where ``Philox.advance`` counts blocks of four."""
    workers = min(_cpu_count(), count // _BLOCK_DRAWS)
    # Read at call time: importing the package loads no numpy.random.
    skippable = (np.random.PCG64, np.random.PCG64DXSM)
    if workers < 2 or not isinstance(bit_generator, skippable):
        return [(0, count)]
    edges = [k * count // workers for k in range(workers + 1)]
    return list(zip(edges[:-1], edges[1:]))


def sample_trajectories(jd: JointDistribution, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. outcome pairs from the joint distribution.

    Returns the flat cell index n·M + m of each draw, an array of length
    ``count`` in the smallest unsigned type that holds N·M;
    ``np.divmod(cells, M)`` gives the pairs (n, m). Inverse-CDF sampling:
    all first outcomes n from p(n), one uniform each, then every draw's
    second outcome m from its row p(·|n), one more uniform each. Mass
    below the distribution's support epsilon is dropped and the remainder
    renormalized, so every returned cell lies on the support mask.
    Deterministic for a fixed generator state, which is left as
    ``rng.random(2 * count)`` leaves it, whatever the number of CPUs.

    Both stages read a bucketed guide table instead of binary-searching
    every draw, and give exactly the right-side ``searchsorted`` of each
    uniform: the stream is that of a plain inverse-CDF draw. The first
    stage's labels are the first outcomes n, in the cells' dtype, and are
    written into the cells; the second stage's guide table, indexed by n,
    holds the cells themselves, which are written over them. With B the
    largest power of two ≤ min(max(32·M, 2¹⁶ // N), max(1, count // N))
    (N = 1 and M = N for the first stage) and f the fraction of draws
    whose bucket holds a CDF step (≤ M/B, under 1/16 when B is not capped
    by the count), time is O(count + N·B + f·count·log M).

    The draws are split into even contiguous slices (``_slices``), one
    per CPU the process may run on and at most one per full block of
    ``_BLOCK_DRAWS`` draws, each drawn by its own thread; the caller's
    thread draws the first. Draw k reads uniform k of the stream in the
    first stage and uniform count + k in the second, and
    ``Generator.random`` reads one 64-bit output per double, so the
    worker of slice [a, b) reads a copy of the generator advanced to a,
    then another advanced to count + a, and every draw reads the uniform
    it reads in one slice. The guide tables are built once and only read.
    A generator that cannot skip ahead by outputs, such as ``MT19937``,
    draws one slice. An exception in any slice is raised in the caller
    after every worker has finished.

    Each slice runs a block of ``_BLOCK_DRAWS`` draws at a time and
    finishes every draw inside its block, so the only count-long array is
    the cells: 1, 2, 4 or 8 bytes per draw, 2 at d = 16. Per slice come
    16 bytes per block draw of reused buffers (1 MiB), and 32 bytes and a
    label per block draw whose bucket holds a CDF step (its position,
    uniform and two bounds); shared are the N×M CDF table and the (N, B)
    guide and (N, B + 1) bounds tables of each stage, the guide at most
    max(N, count) labels. Traced per 10⁶ draws on one slice and on two:
    3.5 and 4.5 MiB at d = 16, about 2.6 bytes per draw beyond the
    buffers; 20 and 23 MiB at d = 1024, where B = 512 and 81% of the
    second stage's draws are bisected. ``count`` must lie in
    [1, MAX_COUNT].
    """
    if not 1 <= count <= MAX_COUNT:
        raise ValueError(f"count must be in [1, {MAX_COUNT}], got {count}")
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
    cells = np.empty(count, dtype=row_tables[0].dtype)
    first_tables = _guide_table(first_cdf, count, cells.dtype)

    def draw(first: np.random.Generator, second: np.random.Generator,
             a: int, b: int) -> None:
        # A slice's cells first hold its first outcomes, which the second
        # stage reads as its rows.
        _guided_search(first_cdf, first_tables, first, cells[a:b])
        _guided_search(row_cdfs, row_tables, second, cells[a:b], cells[a:b])

    bit_generator = rng.bit_generator
    slices = _slices(count, bit_generator)
    if len(slices) == 1:
        draw(rng, rng, 0, count)
        return cells
    state = bit_generator.state

    def stream(offset: int) -> np.random.Generator:
        copy = type(bit_generator)()
        copy.state = state
        copy.advance(offset)
        return np.random.Generator(copy)

    _on_threads(draw, [(stream(a), stream(count + a), a, b)
                       for a, b in slices])
    # ``advance`` also drops a buffered 32-bit half output, which no double
    # reads, so it is put back.
    bit_generator.advance(2 * count)
    end = bit_generator.state
    end.update(has_uint32=state["has_uint32"], uinteger=state["uinteger"])
    bit_generator.state = end
    return cells


def _pairwise_leaves(start: int, stop: int, size: int):
    """The leaves [a, b), in order, of numpy's pairwise summation of the
    values [start, stop): a node longer than ``size`` (at least
    ``_PAIRWISE_BLOCK``) splits at a + n₂, with n₂ = ⌊(b − a)/2⌋ rounded
    down to a multiple of 8, as ``np.add.reduce`` splits a contiguous
    float64 run."""
    if stop - start <= size:
        yield start, stop
        return
    half = (stop - start) // 2
    half -= half % 8
    yield from _pairwise_leaves(start, start + half, size)
    yield from _pairwise_leaves(start + half, stop, size)


def _pairwise_total(leaf_sums, length: int, size: int) -> float:
    """Numpy's pairwise sum of ``length`` values from the sums of the
    leaves of ``_pairwise_leaves(0, length, size)``, taken in order from
    the iterator ``leaf_sums``: the nodes add up in the order of the
    whole-array reduction, so the total is bit for bit its result."""
    if length <= size:
        return next(leaf_sums)
    half = length // 2
    half -= half % 8
    left = _pairwise_total(leaf_sums, half, size)
    return left + _pairwise_total(leaf_sums, length - half, size)


def _gather(flat_exp: np.ndarray, cells: np.ndarray, a: int, b: int,
            buffer: np.ndarray) -> np.ndarray:
    """The sampled weights e^{−w} of draws [a, b), written into the front
    of ``buffer`` and returned; ``take`` copies the b − a cells to intp.
    Every cell was checked to lie in the table, so "clip" never moves
    one; unlike "raise", it writes straight into the buffer."""
    return flat_exp.take(cells[a:b], out=buffer[:b - a], mode="clip")


def estimate_exponential_average(cells: np.ndarray, weight_table,
                                 exact: float | None = None) -> EstimatorReport:
    """Estimate ⟨e^{−w}⟩ from sampled flat cell indices ``cells``.

    Draw k is the cell n·M + m of the N×M ``weight_table``, whose entry
    is the exponent for pair (n, m); it must be finite at every sampled
    cell (off-support cells may be NaN or of any size — they are never
    sampled). The error bar is s/√n, the delete-one jackknife standard
    error of the sample mean.

    The N×M table is exponentiated once, with every non-finite weight
    mapped to NaN, and the sampled weights w are never held all at once.
    They are summed leaf by leaf along numpy's own pairwise-summation
    tree over the count (``_pairwise_leaves``, leaves of at most
    L = max(``_BLOCK_DRAWS``, 128) draws), and the leaf sums are added up
    in the tree's order, so Σw, Σ(w − w₀) and Σ((w − w₀) − m)² are bit
    for bit the whole-array ``sum`` and ``std(ddof=1)`` of the gathered
    weights. Each leaf is gathered into a buffer twice: once for Σw, max w
    and Σ(w − w₀), once for the squares. Both passes split the leaves into
    contiguous runs, one per CPU the process may run on, each on its own
    thread. Time is O(count + N·M); memory beyond the cells is the N×M
    tables and, per run, a leaf of weights and its cells' intp copy, at
    most 16·L bytes (1 MiB). Traced per 10⁶ draws at d = 16, of which
    1.9 MiB are the cells: 2.9 MiB on one run, 3.9 on two. A cell outside
    the table, negative ones included, raises ValueError, and so does a
    sampled non-finite weight, naming the pair of the first draw that hit
    one.
    """
    cells = np.asarray(cells)
    if not cells.size:
        raise ValueError("need at least one sample")
    table = np.asarray(weight_table, dtype=float)
    n_rows, n_cols = table.shape
    if (cells.dtype.kind not in "iu" or cells.max() >= table.size
            or (cells.dtype.kind == "i" and cells.min() < 0)):
        raise ValueError(f"invalid entry in samples: not a cell index of "
                         f"the {n_rows}×{n_cols} weight table")
    # Unsampled off-support cells may overflow or be NaN; e^{−w} of a
    # non-finite w is NaN here, so a sampled one makes the total NaN.
    exp_table = np.full(table.shape, np.nan)
    with np.errstate(over="ignore"):
        np.exp(-table, out=exp_table, where=np.isfinite(table))
    flat_exp = exp_table.reshape(-1)
    n = cells.size
    size = max(_BLOCK_DRAWS, _PAIRWISE_BLOCK)
    leaves = list(_pairwise_leaves(0, n, size))
    workers = min(_cpu_count(), len(leaves))
    runs = [(range(k * len(leaves) // workers,
                   (k + 1) * len(leaves) // workers),)
            for k in range(workers)]
    # s is shift-invariant; measuring from one sample makes it exactly 0
    # for a constant sample, whose mean need not round to the constant.
    first = flat_exp[cells[0]]
    sums, maxima, shifted, squares = ([0.0] * len(leaves) for _ in range(4))

    def first_pass(run: range) -> None:
        buffer = np.empty(min(n, size))
        for k in run:
            values = _gather(flat_exp, cells, *leaves[k], buffer)
            sums[k] = float(np.add.reduce(values))
            maxima[k] = float(values.max())
            values -= first
            shifted[k] = float(np.add.reduce(values))

    _on_threads(first_pass, runs)
    total = _pairwise_total(iter(sums), n, size)
    if math.isnan(total):
        # Every weight is ≥ 0, so a leaf's sum is NaN just where the leaf
        # holds a NaN weight.
        a, b = leaves[next(k for k, leaf_sum in enumerate(sums)
                           if math.isnan(leaf_sum))]
        bad = np.isnan(_gather(flat_exp, cells, a, b, np.empty(b - a)))
        pair = divmod(int(cells[a + np.flatnonzero(bad)[0]]), n_cols)
        raise ValueError(f"non-finite weight at sampled pair {pair}: "
                         f"{table[pair]!r}")
    mean = total / n
    largest = max(maxima)
    s = 0.0
    if n > 1:
        # values.std(ddof=1), leaf by leaf, in the order of numpy's _var.
        mean_shifted = _pairwise_total(iter(shifted), n, size) / n

        def second_pass(run: range) -> None:
            buffer = np.empty(min(n, size))
            for k in run:
                values = _gather(flat_exp, cells, *leaves[k], buffer)
                values -= first
                values -= mean_shifted
                np.square(values, out=values)
                squares[k] = float(np.add.reduce(values))

        _on_threads(second_pass, runs)
        s = math.sqrt(_pairwise_total(iter(squares), n, size) / (n - 1))
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
