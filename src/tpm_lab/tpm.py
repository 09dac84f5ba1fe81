"""Exact two-point-measurement statistics and the exponential identities.

The pipeline is: build a :class:`TpmExperiment` (state, first projective
measurement, channel, second projective measurement), derive the exact
joint outcome distribution p(n,m) from the Born rule, then read every
downstream quantity off that table — marginals, conditionals, the
single-trial mutual information I_nm = ln p(m|n) − ln p(m), its
exponential average ⟨e^{−I}⟩ with explicit support-defect bookkeeping,
and the work statistics ⟨e^{−βW}⟩ versus Z'/Z.

Support convention: any cell with p(n,m) ≤ support_epsilon is excluded
from exponential averages, and the excluded probability-product mass is
reported as ``support_defect`` instead of silently producing NaN. The
bookkeeping identity exp_average + support_defect = 1 holds for every
experiment, full support or not; exp_average = 1 exactly when the support
is full.

Sign convention: work is W_nm = E'_m − E_n and dissipation is
β(W_nm − ΔF) with ΔF = F' − F, the convention under which
⟨e^{−dissipation}⟩ = 1 for Gibbs initial states, rank-1 energy bases and
unital evolution. All logarithms are natural (nats).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require
from .quantum import DensityMatrix, KrausChannel, ProjectorFamily, _freeze

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

    Attributes
    ----------
    p_joint : (N, M) array
        Joint outcome probabilities, clamped to [0, 1] after a bound check.
    p_first, p_second : arrays
        Marginals p(n) = Σ_m p(n,m) and p(m) = Σ_n p(n,m). p(m) is the
        marginal *after* the first measurement's dephasing — the true
        marginal of the outcome pair, which is what the mutual information
        is defined against.
    support_mask : (N, M) bool array
        True where p(n,m) > support_epsilon.
    support_defect : float
        1 − Σ p(n)p(m) over the support: the product mass it leaves out.
    factorization_residual : float
        max |p(n,m) − tr{Q_m Λ(P_n)}·tr(P_n ρ)|: how far the rank-1
        factorized form of the Born rule is from the exact unfactorized
        one. Zero (to rounding) whenever every first projector is rank-1.
    """

    p_joint: np.ndarray
    p_first: np.ndarray
    p_second: np.ndarray
    support_mask: np.ndarray
    support_defect: float
    support_epsilon: float
    factorization_residual: float

    @property
    def shape(self) -> tuple[int, int]:
        return self.p_joint.shape


def distribution_from_joint(p_joint, support_epsilon: float = DEFAULT_SUPPORT_EPSILON,
                            factorization_residual: float = 0.0) -> JointDistribution:
    """Build a :class:`JointDistribution` from a raw probability table.

    Checks that every entry is finite (``finite_entries``, read off the
    table's min and max), bounds (entries within [−1e−12, 1 + 1e−12])
    before clamping to [0, 1], normalization (Σ p = 1 within 1e−10) and
    that some cell exceeds ``support_epsilon``; fills the marginals, the
    support mask and the support defect.
    """
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
    if not mask.any():
        raise ValidationError(
            f"no outcome pair has probability above support epsilon "
            f"{support_epsilon!r}", invariant="empty_support")
    rows, cols = mask.nonzero()
    return JointDistribution(
        p_joint=_freeze(p), p_first=_freeze(p_first), p_second=_freeze(p_second),
        support_mask=_freeze(mask),
        support_defect=1.0 - float((p_first[rows] * p_second[cols]).sum()),
        support_epsilon=float(support_epsilon),
        factorization_residual=float(factorization_residual))


def joint_distribution(experiment: TpmExperiment,
                       support_epsilon: float = DEFAULT_SUPPORT_EPSILON) -> JointDistribution:
    """Exact joint distribution of a TPM experiment via the Born rule.

    Computes the unfactorized expression
    p(n,m) = tr{Q_m Σ_i Λ_i P_n ρ P_n Λ_i† Q_m}, which is correct for
    projectors of any rank, and reports how far the rank-1 factorized form
    tr{Q_m Λ(P_n)}·tr(P_n ρ) deviates from it (``factorization_residual``).

    Everything is evaluated in the measurement bases, in one pass over the
    channel's (K, d, d) Kraus stack, one operator at a time, plus one
    O(d²) term for its replacement weight r: O(K·d³ + d²) time and O(d²)
    working memory. With V, W the first and second bases, G, H their
    (column × outcome) group-indicator matrices, A_i = W†Λ_iV, and 1 the
    all-ones d×d matrix:

    - ρ̃ is diag(λ) when the state's basis U is V entry for entry (a Gibbs
      state in its own eigenbasis), and A_i ρ̃ is then A_i with column k
      scaled by λ_k, O(d²); else ρ̃ is R diag(λ) R† with R = V†U and the
      entries between different first groups zeroed (the dephasing);
    - p = Gᵀ (Σ_i Re[(A_i ρ̃) ⊙ Ā_i] + (r/d)·1·diag ρ̃)ᵀ H, since
      W†(I/d)W = I/d puts weight (r/d)·ρ̃_kk on every second-basis row;
    - the factorized table is Gᵀ (Σ_i |A_i|² + (r/d)·1)ᵀ H with row n
      scaled by p(n) = (Gᵀ diag ρ̃)_n.

    When both families are ``in_order`` (d outcomes, group k is column k
    alone), G and H are identities and the group sums are read directly,
    with no product. Any other family, degenerate, permuted or with a
    zero projector, keeps the products, which read a permutation bit for
    bit.
    """
    first = experiment.first_measurement
    second = experiment.second_measurement
    v = first.basis
    w_dag = second.basis.conj().T
    state = experiment.initial_state
    if np.array_equal(state.basis, v):
        dephased, populations = None, state.weights
    else:
        rot = v.conj().T @ state.basis
        dephased = np.where(first.groups[:, None] == first.groups[None, :],
                            (rot * state.weights) @ rot.conj().T, 0.0)
        populations = dephased.diagonal().real

    dim = experiment.dim
    born, transition = np.zeros((2, dim, dim))
    for op in experiment.channel.kraus_ops:
        a = w_dag @ op @ v
        a_conj = a.conj()
        a_rho = a * populations if dephased is None else a @ dephased
        born += (a_rho * a_conj).real
        transition += (a * a_conj).real
    r = experiment.channel.replacement
    born += (r / dim) * populations
    transition += r / dim

    if first.in_order and second.in_order:
        p, p_first, p_transition = born.T, populations, transition.T
    else:
        g = np.eye(len(first))[first.groups]
        h = np.eye(len(second))[second.groups]
        p = g.T @ born.T @ h
        p_first = g.T @ populations
        p_transition = g.T @ transition.T @ h
    residual = float(abs(p - p_transition * p_first[:, None]).max())
    return distribution_from_joint(p, support_epsilon,
                                   factorization_residual=residual)


class MutualInformationTable(NamedTuple):
    """Single-trial mutual information and its exponential average, as an
    immutable ``NamedTuple``.

    ``i_table[n, m]`` is ln p(m|n) − ln p(m) on the support mask and NaN
    elsewhere. ``exp_average`` is Σ p(n,m)·p(m)/p(m|n) over the support,
    computed in ratio form (never by exponentiating a log).
    ``support_defect`` is the probability-product mass 1 − Σ p(n)p(m)
    excluded by the support restriction, so exp_average + support_defect
    is identically 1; a full-support experiment has defect 0 and the
    exponential average is exactly the conservation-of-probability sum.
    ``average_mi`` is the mutual information of the outcome pair summed
    over the support: non-negative by convexity on full support, and at
    least P(S)·ln(P(S)/Q(S)), which may be negative, on a restricted one.
    """

    i_table: np.ndarray
    exp_average: float
    support_defect: float
    average_mi: float

    @property
    def support_mask(self) -> np.ndarray:
        return np.isfinite(self.i_table)


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
    i_table = np.full(jd.shape, np.nan)
    support_defect = jd.support_defect
    joint = jd.p_joint[rows, cols]
    cond = joint / jd.p_first[rows]
    marginal = jd.p_second[cols]
    i_vals = np.log(cond) - np.log(marginal)
    i_table[rows, cols] = i_vals
    exp_average = float((joint * marginal / cond).sum())
    average_mi = float((joint * i_vals).sum())

    require("bookkeeping", abs(exp_average + support_defect - 1.0), BOOKKEEPING_TOL,
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
        i_table=_freeze(i_table), exp_average=exp_average,
        support_defect=support_defect, average_mi=average_mi)


class WorkStatistics(NamedTuple):
    """Work table W_nm = E'_m − E_n and the exponential work average, as
    an immutable ``NamedTuple``.

    ``jarzynski_lhs`` is the exact sum Σ p(n,m) e^{−βW_nm};
    ``jarzynski_rhs`` is Z'/Z = e^{−βΔF}; both are finite, since
    :func:`work_statistics` raises rather than return an infinite side.
    Their difference
    (``jarzynski_defect``) vanishes exactly when the conditional matrix is
    doubly stochastic and the initial state is Gibbs in the first
    measurement basis — ``conditional_colsums`` is the direct diagnostic:
    the identity requires every column sum Σ_n p(m|n) to equal 1, which a
    unital channel with rank-1 projectors delivers. Each p(m|n) is
    p(n,m)/p(n), divided out of the joint table on the rows with
    p(n) > support_epsilon.
    """

    work_table: np.ndarray
    delta_F: float
    jarzynski_lhs: float
    jarzynski_rhs: float
    jarzynski_defect: float
    conditional_colsums: np.ndarray
    dissipation_table: np.ndarray


def work_statistics(jd: JointDistribution, first_energies, second_energies,
                    beta: float, Z: float, Z_prime: float) -> WorkStatistics:
    """Jarzynski-side statistics of a joint distribution.

    Parameters
    ----------
    jd : JointDistribution
        Outcome table; cells with p(n,m) = 0 contribute nothing to the
        work average, so extreme work values on zero-probability cells
        cannot poison the sum.
    first_energies, second_energies : sequences of float
        Outcome energy labels E_n and E'_m; lengths must match the table.
    beta : float
        Inverse temperature (> 0), shared by both ensembles.
    Z, Z_prime : float
        Initial and final partition functions (> 0); the right-hand side
        is Z'/Z and ΔF = −(1/β) ln(Z'/Z).

    Raises :class:`ValidationError` when ⟨e^{−βW}⟩ overflows
    (``finite_lhs``) or Z'/Z does (``finite_rhs``), so no statistics
    carry an infinite side; Z'/Z may underflow to 0. A term whose factor
    e^{−βW} overflows is formed as exp(ln p − βW) instead.
    """
    e_first = np.asarray(first_energies, dtype=float)
    e_second = np.asarray(second_energies, dtype=float)
    n_out, m_out = jd.shape
    if e_first.shape != (n_out,) or e_second.shape != (m_out,):
        raise ValueError(
            f"energy lists of lengths {e_first.shape[0]}/{e_second.shape[0]} "
            f"do not match the {n_out}x{m_out} outcome table")
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
    rhs = Z_prime / Z
    if not math.isfinite(rhs):
        raise ValidationError(
            f"Z'/Z = {Z_prime!r}/{Z!r} overflowed", invariant="finite_rhs")

    defined = jd.p_first > jd.support_epsilon
    colsums = (jd.p_joint[defined] / jd.p_first[defined, None]).sum(axis=0)
    dissipation = beta * (work - delta_f)
    return WorkStatistics(
        work_table=_freeze(work), delta_F=float(delta_f),
        jarzynski_lhs=lhs, jarzynski_rhs=float(rhs),
        jarzynski_defect=lhs - float(rhs),
        conditional_colsums=_freeze(colsums),
        dissipation_table=_freeze(dissipation))


def compare_mi_to_dissipation(mi: MutualInformationTable,
                              ws: WorkStatistics) -> float:
    """Largest gap between I_nm and β(W_nm − ΔF) over the support.

    The two tables coincide exactly only in special scenarios (e.g. the
    channel carries the initial Gibbs state to the final one and the
    conditionals match the final Gibbs weights); this measures how far a
    given experiment is from that identification.
    """
    if mi.i_table.shape != ws.dissipation_table.shape:
        raise ValueError(
            f"table shapes disagree: {mi.i_table.shape} vs "
            f"{ws.dissipation_table.shape}")
    mask = mi.support_mask
    return float(abs(mi.i_table[mask] - ws.dissipation_table[mask]).max())
