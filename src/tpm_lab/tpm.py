"""Exact two-point-measurement statistics and the exponential identities.

The pipeline builds a :class:`TpmExperiment` (state, first projective
measurement, channel, second projective measurement), derives the exact
joint outcome distribution p(n,m) from the Born rule, and reads every
downstream quantity off that table: marginals, conditionals, the
single-trial mutual information I_nm = ln p(m|n) − ln p(m), its
exponential average ⟨e^{−I}⟩ with explicit support-defect bookkeeping,
and the work statistics ⟨e^{−βW}⟩ versus Z'/Z.

Support convention: a cell with p(n,m) ≤ support_epsilon is excluded from
exponential averages, and the excluded probability-product mass is
reported as ``support_defect`` instead of silently producing NaN, so
exp_average + support_defect = 1 for every experiment; exp_average = 1
exactly when the support is full.

Sign convention: W_nm = E'_m − E_n and dissipation β(W_nm − ΔF) with
ΔF = F' − F, under which ⟨e^{−dissipation}⟩ = 1 for Gibbs initial states,
rank-1 energy bases and unital evolution. Logarithms are natural (nats).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require
from .quantum import (
    DensityMatrix,
    KrausChannel,
    ProjectorFamily,
    _freeze,
    _sum_by_label,
)

__all__ = [
    "TpmExperiment",
    "JointDistribution",
    "MutualInformationTable",
    "WorkStatistics",
    "joint_distribution",
    "distribution_from_joint",
    "mutual_information_table",
    "work_statistics",
    "compare_mi_to_dissipation",
]

DEFAULT_SUPPORT_EPSILON = 1e-12
PROBABILITY_BOUND_TOL = 1e-12
NORMALIZATION_TOL = 1e-10
BOOKKEEPING_TOL = 1e-10
JENSEN_TOL = 1e-12


class _TpmExperimentFields(NamedTuple):
    initial_state: DensityMatrix
    first_measurement: ProjectorFamily
    channel: KrausChannel
    second_measurement: ProjectorFamily


class TpmExperiment(_TpmExperimentFields):
    """One prepare–evolve–measure scenario, an immutable ``NamedTuple``.

    All four ingredients must share the same Hilbert space dimension; a
    record built with ``TpmExperiment(...)`` or ``_replace`` whose
    dimensions disagree raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        dims = {name: part.dim for name, part in zip(self._fields, self)}
        if len(set(dims.values())) != 1:
            raise ValueError(f"experiment dimensions disagree: {dims}")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return self.initial_state.dim


class JointDistribution(NamedTuple):
    """The exact outcome table p(n,m), its two marginals and its support,
    each formed once, as an immutable ``NamedTuple``; a conditional
    p(m|n) = p(n,m)/p(n) is divided out where it is read.

    - ``p_joint``: the (N, M) probabilities, clamped to [0, 1] after a
      bound check.
    - ``p_first``, ``p_second``: p(n) = Σ_m p(n,m) and p(m) = Σ_n p(n,m),
      the marginal *after* the first measurement's dephasing: the true
      marginal of the outcome pair, which the MI is defined against.
    - ``support_mask``: True where p(n,m) > ``support_epsilon``.
      ``support_defect``: 1 − Σ p(n)p(m) over the support, the product
      mass it leaves out.
    - ``factorization_residual``: max |p(n,m) − tr{Q_m Λ(P_n)}·tr(P_n ρ)|,
      how far the rank-1 factorized Born rule is from the exact one; 0
      (to rounding) whenever every first projector is rank-1.
    - ``transition``: the read-only d×d table T[j, k] =
      ⟨w_j|Λ(|v_k⟩⟨v_k|)|w_j⟩ between the columns v_k, w_j of the two
      measurement bases. It depends on neither the state nor β, so
      :func:`joint_distribution` keeps it for a β retune of a Gibbs state
      to reuse; None for a table given to :func:`distribution_from_joint`.
    """

    p_joint: np.ndarray
    p_first: np.ndarray
    p_second: np.ndarray
    support_mask: np.ndarray
    support_defect: float
    support_epsilon: float
    factorization_residual: float
    transition: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.p_joint.shape


def distribution_from_joint(p_joint, support_epsilon: float = DEFAULT_SUPPORT_EPSILON,
                            factorization_residual: float = 0.0,
                            transition: np.ndarray | None = None) -> JointDistribution:
    """Build a :class:`JointDistribution` from a raw probability table.

    Checks that every entry is finite (``finite_entries``, read off the
    table's min and max), bounds (entries within [−1e−12, 1 + 1e−12])
    before clamping to [0, 1], normalization (Σ p = 1 within 1e−10) and
    that some cell exceeds ``support_epsilon``, which must be ≥ 0
    (ValueError otherwise, NaN included); fills the marginals, the
    support mask and the support defect. ``transition`` is kept as it is,
    made read-only.
    """
    if not support_epsilon >= 0:  # NaN fails too
        raise ValueError(
            f"support epsilon must be nonnegative, got {support_epsilon!r}")
    p = np.array(p_joint, dtype=float, order="C")
    if p.ndim != 2:
        raise ValueError(f"joint table must be 2-d, got shape {p.shape}")
    low, high = float(p.min()), float(p.max())
    if not (math.isfinite(low) and math.isfinite(high)):  # NaN or ±inf
        raise ValidationError("joint table contains non-finite entries",
                              invariant="finite_entries")
    if not -PROBABILITY_BOUND_TOL <= low <= high <= 1 + PROBABILITY_BOUND_TOL:
        raise ValidationError(
            f"probabilities out of bounds: min {low:.3e}, max {high:.3e}",
            invariant="probability_bounds",
            residual=max(-low, high - 1.0))
    p.clip(0.0, 1.0, out=p)
    total = float(p.sum())
    require("normalization", abs(total - 1.0), NORMALIZATION_TOL,
            "joint table sums to {total!r}, not 1", total=total)
    p_first = p.sum(axis=1)
    p_second = p.sum(axis=0)
    mask = p > support_epsilon
    rows, cols = mask.nonzero()
    if not len(rows):
        raise ValidationError(
            f"no outcome pair has probability above support epsilon "
            f"{support_epsilon!r}", invariant="empty_support")
    return JointDistribution(
        p_joint=_freeze(p), p_first=_freeze(p_first), p_second=_freeze(p_second),
        support_mask=_freeze(mask),
        support_defect=1.0 - float((p_first[rows] * p_second[cols]).sum()),
        support_epsilon=float(support_epsilon),
        factorization_residual=float(factorization_residual),
        transition=None if transition is None else _freeze(transition))


def joint_distribution(experiment: TpmExperiment,
                       support_epsilon: float = DEFAULT_SUPPORT_EPSILON, *,
                       transition: np.ndarray | None = None) -> JointDistribution:
    """Exact joint distribution of a TPM experiment via the Born rule.

    Computes the unfactorized p(n,m) = tr{Q_m Σ_i Λ_i P_n ρ P_n Λ_i† Q_m},
    correct for projectors of any rank, and reports how far the rank-1
    factorized form tr{Q_m Λ(P_n)}·tr(P_n ρ) deviates from it
    (``factorization_residual``).

    Everything is evaluated in the measurement bases. With V, W the first
    and second bases, A_i = W†Λ_iV and 1 the all-ones d×d matrix, one pass
    over the Kraus stack, one operator at a time, forms the basis-order
    transition table T = Σ_i |A_i|² + (r/d)·1 (W†(I/d)W = I/d puts weight
    r/d on every second-basis row) in O(K·d³ + d²) time and O(d²) working
    memory. T[j, k] is the probability that first-basis column k lands on
    second-basis column j; it depends on neither the state nor β, so the
    table keeps it (``transition``, d² doubles).

    - A state diagonal in the first basis (its basis U is V entry for
      entry, as for a Gibbs state in its own eigenbasis) has populations
      λ and the Born table B = T·diag(λ). Given ``transition``, the T of
      an experiment with this one's channel and measurements, such a
      state skips the Kraus pass, so a β-only sweep point of a Gibbs
      state costs O(d²) plus the grouping; any other state ignores it.
    - Any other state is ρ̃ = R diag(λ) R† with R = V†U and the entries
      between different first groups zeroed (the dephasing); the pass
      then also sums B = Σ_i Re[(A_i ρ̃) ⊙ Ā_i] + (r/d)·1·diag ρ̃.

    Both share one tail: p = Bᵀ and Tᵀ with row n scaled by p(n) are
    summed over the outcome groups, each in column order by index
    (:func:`_group_sums`), in O(d²), and p is checked by
    :func:`distribution_from_joint`; an ``in_order`` family (group k is
    column k alone) is read as it is. So a rank-1 family in any label
    order reads its entries exactly, a zero projector gives a zero row,
    and with a diagonal state and two in-order families the factorization
    residual is exactly 0.
    """
    first = experiment.first_measurement
    state = experiment.initial_state
    if np.array_equal(state.basis, first.basis):
        populations = state.weights
        if transition is None:
            transition, _ = _kraus_pass(experiment)
        born = transition * populations
    else:
        rot = first.basis.conj().T @ state.basis
        dephased = np.where(first.groups[:, None] == first.groups[None, :],
                            (rot * state.weights) @ rot.conj().T, 0.0)
        populations = dephased.diagonal().real
        transition, born = _kraus_pass(experiment, dephased)

    second = experiment.second_measurement
    p = _group_sums(born.T, first, second)
    p_transition = _group_sums(transition.T, first, second)
    p_first = (populations if first.in_order
               else np.bincount(first.groups, populations, len(first)))
    residual = float(abs(p - p_transition * p_first[:, None]).max())
    return distribution_from_joint(p, support_epsilon,
                                   factorization_residual=residual,
                                   transition=transition)


def _kraus_pass(experiment: TpmExperiment, dephased=None):
    """(T, B) from one pass over the Kraus stack: T as in
    :func:`joint_distribution`, and B = Σ_i Re[(A_i ρ̃) ⊙ Ā_i] +
    (r/d)·1·diag ρ̃ for the dephased state ρ̃ if one is given, else None."""
    v = experiment.first_measurement.basis
    w_dag = experiment.second_measurement.basis.conj().T
    dim = experiment.dim
    transition = np.zeros((dim, dim))
    born = None if dephased is None else np.zeros((dim, dim))
    for op in experiment.channel.kraus_ops:
        a = w_dag @ op @ v
        a_conj = a.conj()
        transition += (a * a_conj).real
        if born is not None:
            born += ((a @ dephased) * a_conj).real
    r = experiment.channel.replacement
    transition += r / dim
    if born is not None:
        born += (r / dim) * dephased.diagonal().real
    return transition, born


def _group_sums(table: np.ndarray, first: ProjectorFamily,
                second: ProjectorFamily) -> np.ndarray:
    """The (N, M) sums of a (first column × second column) table over each
    pair of outcome groups, first over rows, then over columns, each in
    column order. An in-order family's axis is kept as it is."""
    if not first.in_order:
        table = _sum_by_label(table, first.groups, len(first))
    if not second.in_order:
        table = _sum_by_label(table.T, second.groups, len(second)).T
    return table


class MutualInformationTable(NamedTuple):
    """Single-trial mutual information on the support and its exponential
    average, as an immutable ``NamedTuple``.

    ``rows`` and ``cols`` are the support cells p(n,m) > support_epsilon
    in row-major order, and ``i_values`` their I_nm = ln p(m|n) − ln p(m);
    ``shape`` is the (N, M) of the outcome table, and the read-only
    ``i_table`` holds I_nm on the support and NaN elsewhere.
    ``exp_average`` is Σ p(n,m)·p(m)/p(m|n) over the support, in ratio
    form (never by exponentiating a log). ``support_defect`` is the
    product mass 1 − Σ p(n)p(m) the support leaves out, so exp_average +
    support_defect is identically 1; on full support the defect is 0 and
    the average is the conservation-of-probability sum. ``average_mi`` is
    the mutual information of the outcome pair summed over the support:
    non-negative by convexity on full support, and at least
    P(S)·ln(P(S)/Q(S)), which may be negative, on a restricted one.
    """

    rows: np.ndarray
    cols: np.ndarray
    i_values: np.ndarray
    shape: tuple[int, int]
    exp_average: float
    support_defect: float
    average_mi: float

    @property
    def i_table(self) -> np.ndarray:
        table = np.full(self.shape, np.nan)
        table[self.rows, self.cols] = self.i_values
        return _freeze(table)


def mutual_information_table(jd: JointDistribution) -> MutualInformationTable:
    """Mutual-information table of a joint distribution.

    The bookkeeping identity exp_average + support_defect = 1 and the
    Jensen bound average_mi ≥ P(S)·ln(P(S)/Q(S)) on the support S (P(S) the
    joint mass on S, Q(S) = 1 − support_defect; the bound is 0 on full
    support) are re-validated on the computed numbers (both hold by
    construction for any distribution that passed
    :func:`distribution_from_joint`).
    """
    rows, cols = jd.support_mask.nonzero()
    joint = jd.p_joint[rows, cols]
    cond = joint / jd.p_first[rows]
    marginal = jd.p_second[cols]
    i_values = np.log(cond) - np.log(marginal)
    exp_average = float((joint * marginal / cond).sum())
    average_mi = float((joint * i_values).sum())

    require("bookkeeping", abs(exp_average + jd.support_defect - 1.0), BOOKKEEPING_TOL,
            "bookkeeping identity violated: exp_average + support_defect "
            "deviates from 1 by {value:.3e}")
    # Log-sum inequality on the support S with q = p(n)p(m):
    # Σ_S p ln(p/q) ≥ P(S) ln(P(S)/Q(S)). Q(S) = Σ_S q is exp_average,
    # summed without the cancellation in 1 − support_defect.
    support_mass = float(joint.sum())
    jensen_bound = support_mass * float(np.log(support_mass / exp_average))
    if not average_mi >= jensen_bound - JENSEN_TOL:
        raise ValidationError(
            f"average mutual information {average_mi!r} is below its "
            f"log-sum bound {jensen_bound!r}",
            invariant="jensen", residual=jensen_bound - average_mi)
    return MutualInformationTable(
        rows=_freeze(rows), cols=_freeze(cols), i_values=_freeze(i_values),
        shape=jd.shape, exp_average=exp_average,
        support_defect=jd.support_defect, average_mi=average_mi)


class WorkStatistics(NamedTuple):
    """Work table W_nm = E'_m − E_n and the exponential work average, as
    an immutable ``NamedTuple``.

    ``jarzynski_lhs`` is the exact sum Σ p(n,m) e^{−βW_nm};
    ``jarzynski_rhs`` is Z'/Z = e^{−βΔF}; both are finite, since
    :func:`work_statistics` raises rather than return an infinite side.
    Their difference is ``jarzynski_defect``; ``beta`` is the β of both
    ensembles.

    ``conditional_colsums[m]`` is c_m = Σ_n p(m|n), each p(m|n) being
    p(n,m)/p(n), divided out of the joint table on the rows with
    p(n) > support_epsilon. For a Gibbs state measured by rank-1 first
    projectors in its own eigenbasis, with every p(n) above the support
    epsilon, lhs − rhs = (1/Z)·Σ_m e^{−βE'_m}·(c_m − r'_m), where
    r'_m = rank Q_m of final outcome m. So the identity asks each column
    sum to equal the rank of its final projector, not 1, and a unital
    channel gives exactly that: c_m = tr(Q_m Λ(I)) = r'_m. The report's
    ``colsum_max_dev``, max_m |c_m − 1|, therefore reads the largest
    r'_m − 1 on a unital channel: 3 on four-fold degenerate final levels,
    where lhs/rhs − 1 stays at rounding.
    """

    work_table: np.ndarray
    delta_F: float
    jarzynski_lhs: float
    jarzynski_rhs: float
    jarzynski_defect: float
    conditional_colsums: np.ndarray
    beta: float


def work_statistics(jd: JointDistribution, first_energies, second_energies,
                    beta: float, Z: float, Z_prime: float) -> WorkStatistics:
    """Jarzynski-side statistics of a joint distribution ``jd``, given the
    finite outcome energy labels E_n and E'_m (one per table row and
    column), the inverse temperature β > 0 of both ensembles and their
    partition functions Z, Z' > 0: the right-hand side is Z'/Z and
    ΔF = −(1/β) ln(Z'/Z).

    A cell with p(n,m) = 0 adds nothing to the work average, so extreme
    work on it cannot poison the sum; a term whose factor e^{−βW}
    overflows is formed as exp(ln p − βW). Raises :class:`ValidationError`
    when ⟨e^{−βW}⟩ overflows (``finite_lhs``) or Z'/Z does
    (``finite_rhs``), so no side is infinite; Z'/Z may underflow to 0.
    """
    e_first = np.asarray(first_energies, dtype=float)
    e_second = np.asarray(second_energies, dtype=float)
    n_out, m_out = jd.shape
    if e_first.shape != (n_out,) or e_second.shape != (m_out,):
        raise ValueError(
            f"energy lists of lengths {e_first.shape[0]}/{e_second.shape[0]} "
            f"do not match the {n_out}x{m_out} outcome table")
    if not all(map(math.isfinite, e_first.tolist() + e_second.tolist())):
        raise ValueError("energy labels must be finite")
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if not (Z > 0 and Z_prime > 0):
        raise ValueError(f"partition functions must be positive, got {Z}, {Z_prime}")

    work = e_second[None, :] - e_first[:, None]
    delta_f = -(np.log(Z_prime) - np.log(Z)) / beta

    p = jd.p_joint
    # A cell with p = 0 contributes 0, whatever its factor; an overflow is
    # the finite_lhs error.
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(p > 0, p * np.exp(-beta * work), 0.0)
        lhs = float(terms.sum())
    if not math.isfinite(lhs):  # a term, or the sum, overflowed
        redo = ~np.isfinite(terms)
        with np.errstate(over="ignore"):
            terms[redo] = np.exp(np.log(p[redo]) - beta * work[redo])
        lhs = float(terms.sum())
    if not math.isfinite(lhs):
        raise ValidationError(
            "exponential work average overflowed", invariant="finite_lhs")
    rhs = float(Z_prime / Z)
    if not math.isfinite(rhs):
        raise ValidationError(
            f"Z'/Z = {Z_prime!r}/{Z!r} overflowed", invariant="finite_rhs")

    # A row with p(n) ≤ support_epsilon adds 0, so each column sums the
    # same terms in the same row order as over the defined rows alone.
    defined = (jd.p_first > jd.support_epsilon)[:, None]
    colsums = np.divide(p, jd.p_first[:, None], out=np.zeros(jd.shape),
                        where=defined).sum(axis=0)
    return WorkStatistics(
        work_table=_freeze(work), delta_F=float(delta_f),
        jarzynski_lhs=lhs, jarzynski_rhs=rhs, jarzynski_defect=lhs - rhs,
        conditional_colsums=_freeze(colsums), beta=float(beta))


def compare_mi_to_dissipation(mi: MutualInformationTable,
                              ws: WorkStatistics) -> float:
    """Largest gap between I_nm and the dissipation β(W_nm − ΔF) over the
    support cells of ``mi``; ValueError if the two tables' shapes differ.

    The two tables coincide exactly only in special scenarios (e.g. the
    channel carries the initial Gibbs state to the final one and the
    conditionals match the final Gibbs weights); this measures how far a
    given experiment is from that identification.
    """
    if mi.shape != ws.work_table.shape:
        raise ValueError(
            f"table shapes disagree: {mi.shape} vs {ws.work_table.shape}")
    dissipation = ws.beta * (ws.work_table[mi.rows, mi.cols] - ws.delta_F)
    return float(abs(mi.i_values - dissipation).max())
