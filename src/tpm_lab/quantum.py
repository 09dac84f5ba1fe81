"""Physical object layer: states, projective measurements, channels, Gibbs ensembles.

Constructors validate their invariants and fail loudly with the violated
invariant and its residual; nothing is silently normalized or repaired.
All objects are immutable after construction (stored arrays are marked
read-only) and all operations are pure.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, require
from .linalg import (
    as_complex_matrix,
    frobenius,
    hermitian_eig,
    hermiticity_residual,
)

__all__ = [
    "DensityMatrix",
    "ProjectorFamily",
    "KrausChannel",
    "GibbsEnsemble",
    "gibbs_ensemble",
    "eigen_measurement",
    "channel_from_unitary",
    "unitary_from_hamiltonian",
    "standard_channel",
    "maximally_mixed",
]

# Largest |exponent| passed to exp() when building Gibbs weights; beyond
# this the partition function is not representable in double precision.
GIBBS_EXPONENT_GUARD = 700.0

# Absolute residual bounds of the object invariants.
STATE_TOL = 1e-10        # DensityMatrix: ‖ρ − ρ†‖_F, |tr ρ − 1|, −λ_min
PROJECTOR_TOL = 1e-10    # ProjectorFamily: Hermiticity, idempotency,
                         # orthogonality and completeness residuals
RANK_TOL = 1e-8          # ProjectorFamily: |tr P_n − round(tr P_n)|
COMPLETENESS_TOL = 1e-8  # KrausChannel: ‖ΣΛ†Λ + rI − I‖_F
_NOT_IDEMPOTENT = "projector {k} is not idempotent: ‖P² − P‖_F = {value:.3e} > {bound:.1e}"


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DensityMatrix:
    """A quantum state, stored as its spectral pair ρ = U diag(λ) U†: the
    read-only ``weights`` λ and ``basis`` U.

    An explicit ``matrix`` is checked for Hermiticity and unit trace as
    given, then diagonalised by one ``eigh``. :attr:`GibbsEnsemble.state`
    and :func:`maximally_mixed` build the pair on a basis the package
    made, so only their weights are checked: finite, summing to 1. Either
    way λ_min ≥ −:data:`STATE_TOL`, or :class:`ValidationError` names the
    invariant and its residual.
    """

    def __init__(self, matrix):
        m = as_complex_matrix(matrix)
        with np.errstate(over="ignore", invalid="ignore"):
            res = hermiticity_residual(m)
            trace = complex(np.trace(m))
        require("hermiticity", res, STATE_TOL,
                "state is not Hermitian: ‖ρ − ρ†‖_F = {value:.3e} > {bound:.1e}")
        self._store(trace, *np.linalg.eigh(m))

    @classmethod
    def _spectral(cls, weights: np.ndarray, basis: np.ndarray) -> DensityMatrix:
        if not np.isfinite(weights).all():
            raise ValidationError("state weights contain non-finite entries",
                                  invariant="finite_entries")
        state = cls.__new__(cls)
        state._store(float(weights.sum()), weights, basis)
        return state

    def _store(self, trace, weights: np.ndarray, basis: np.ndarray) -> None:
        require("unit_trace", abs(trace - 1.0), STATE_TOL,
                "state trace is {trace:.12g}, not 1: "
                "residual {value:.3e} > {bound:.1e}", trace=trace)
        min_eig = float(weights.min())
        require("positive_semidefinite", -min_eig, STATE_TOL,
                "state is not positive semidefinite: "
                "min eigenvalue {min_eig:.3e} < -{bound:.1e}", min_eig=min_eig)
        self.weights, self.basis = _freeze(weights), _freeze(basis)
        self.dim = len(weights)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class ProjectorFamily:
    """A complete family of mutually orthogonal projectors {P_n}.

    A family is stored as one basis plus outcome groups, never as dense
    projectors: ``basis`` is a d×d matrix V with orthonormal columns,
    ``groups`` gives each column its outcome label, and projector n is
    P_n = V_n V_n† with V_n = V[:, groups == n]. Projector n corresponds to
    measurement outcome n; ``energies`` are optional finite outcome labels
    in energy units (the eigenvalues of a Hamiltonian whose eigenbasis this
    family measures). ``in_order``: d outcomes, column k alone measures k.

    Build it from a list of dense ``projectors`` or from ``basis`` and
    ``groups`` (as :func:`eigen_measurement` does), not both. Each dense
    projector takes one ``eigh``: its Hermiticity is checked on the matrix,
    its idempotency read off the eigenvalues (‖P² − P‖_F = ‖λ² − λ‖₂), and
    its eigenvectors with eigenvalue near 1 become its columns of V. The
    other invariants come from the one Gram matrix G = V†V, with G_ab the
    block of groups a and b and r the number of columns:

    - idempotency: ‖G_nn² − G_nn‖_F = ‖P_n² − P_n‖_F;
    - orthogonality: ‖G_ab‖_F, which equals ‖P_a P_b‖_F for orthonormal
      columns within each group;
    - completeness: ‖ΣP − I‖_F, which is (‖G − I‖_F² + d − r)^½, and
      ‖G − I‖_F itself at r = d. A dense family's completeness is instead
      summed from the matrices it was given, in O(N·d²): its eigenvectors
      have unit norm whatever the matrices' scale, so G cannot see a
      family whose projectors are each too long by less than the
      idempotency bound;
    - integer rank: tr P_n = tr G_nn.

    One test accepts a family with r = d: δ·(1 + δ) ≤ :data:`PROJECTOR_TOL`
    with δ = ‖G − I‖_F, completeness within :data:`PROJECTOR_TOL`, and
    every group's trace tr G_nn within :data:`RANK_TOL` of its size, which
    is then its rank. The bound is derived, not tuned: with E = G − I,
    G_ab = E_ab and G_nn² − G_nn = G_nn·E_nn, so ‖G_ab‖_F ≤ δ and
    ‖G_nn² − G_nn‖_F ≤ ‖G_nn‖₂·‖E_nn‖_F ≤ (1 + δ)·δ, and a basis's
    completeness is δ itself. It costs the one product G and a sum over
    its diagonal. Any other family (r ≠ d, or past the bound) is
    diagnosed invariant by invariant in the order above, block by block,
    and a residual above :data:`PROJECTOR_TOL` (rank: :data:`RANK_TOL`)
    raises :class:`ValidationError` naming the invariant; so does a dense
    projector that fails its own checks.
    """

    def __init__(self, projectors=None, energies=None, *, basis=None,
                 groups=None):
        if (projectors is None) == (basis is None):
            raise ValueError("give either projectors or basis and groups")
        if projectors is not None:
            basis, groups, n_out, completeness = _basis_of_projectors(
                projectors)
        else:
            basis = as_complex_matrix(basis, square=False).copy()
            groups = np.asarray(groups)
            if groups.shape != (basis.shape[1],) or \
                    groups.dtype.kind not in "iu" or \
                    groups.min() < 0:
                raise ValueError(
                    f"groups must hold one non-negative integer label per "
                    f"basis column ({basis.shape[1]}), got {groups!r}")
            n_out = int(groups.max()) + 1
            completeness = None
        dim, cols = basis.shape
        groups = groups.astype(np.intp)
        gram = basis.conj().T @ basis
        delta = frobenius(gram - np.eye(cols))
        if completeness is None:
            # At r = d this is δ itself: adding d before subtracting r
            # would lose any δ² below ulp(d)/2.
            completeness = delta if cols == dim else math.sqrt(
                max(delta ** 2 + dim - cols, 0.0))
        sizes = np.bincount(groups, minlength=n_out)
        traces = np.bincount(groups, weights=gram.diagonal().real,
                             minlength=n_out)
        if (cols == dim and delta * (1.0 + delta) <= PROJECTOR_TOL
                and completeness <= PROJECTOR_TOL
                and abs(traces - sizes).max() <= RANK_TOL):
            ranks = tuple(sizes.tolist())
        else:
            ranks = _diagnose_family(gram, groups, n_out, completeness,
                                     traces)
        if energies is not None:
            energies = tuple(np.asarray(energies, dtype=float).tolist())
            if len(energies) != n_out:
                raise ValueError(
                    f"got {len(energies)} energies for {n_out} projectors")
            if not all(map(math.isfinite, energies)):
                raise ValueError(f"energies must be finite, got {energies}")
        self.dim = dim
        self.basis = _freeze(basis)
        self.groups = _freeze(groups)
        self.in_order = n_out == dim and groups.tolist() == [*range(dim)]
        self.ranks = ranks
        self.energies = energies

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def __repr__(self) -> str:
        return (f"ProjectorFamily(dim={self.dim}, outcomes={len(self)}, "
                f"ranks={self.ranks})")


def _basis_of_projectors(projectors):
    """Basis columns, their group labels, the outcome count and the
    completeness residual ‖Σ_n P_n − I‖_F of a list of dense projectors,
    checking each one's Hermiticity and idempotency."""
    mats = [as_complex_matrix(p) for p in projectors]
    if not mats:
        raise ValidationError("projector family is empty",
                              invariant="nonempty")
    dim = mats[0].shape[0]
    columns, groups = [], []
    for k, p in enumerate(mats):
        if p.shape != (dim, dim):
            raise ValueError(
                f"projector {k} has shape {p.shape}, expected ({dim}, {dim})")
        with np.errstate(over="ignore", invalid="ignore"):
            res = hermiticity_residual(p)
        require("hermiticity", res, PROJECTOR_TOL,
                "projector {k} is not Hermitian: residual {value:.3e} > {bound:.1e}", k=k)
        w, v = np.linalg.eigh(p)
        with np.errstate(over="ignore", invalid="ignore"):
            res = frobenius(w * w - w)
        require("idempotency", res, PROJECTOR_TOL, _NOT_IDEMPOTENT, k=k)
        keep = w > 0.5
        columns.append(v[:, keep])
        groups.extend([k] * int(keep.sum()))
    return (np.hstack(columns), np.array(groups, dtype=np.intp), len(mats),
            frobenius(sum(mats) - np.eye(dim)))


def _diagnose_family(gram: np.ndarray, groups: np.ndarray, n_out: int,
                     completeness: float,
                     traces: np.ndarray) -> tuple[int, ...]:
    """Check a family's invariants one by one off its Gram matrix
    G = V†V: raise :class:`ValidationError` naming the first one violated,
    in the order idempotency, orthogonality, completeness, integer rank,
    or return the ranks if none is. ``completeness`` is the family's
    ‖ΣP − I‖_F and ``traces`` its group traces tr G_nn, both computed by
    the caller."""
    # Squared block norms of G, except that each diagonal block G_nn
    # is replaced by G_nn² − G_nn: ‖P_n² − P_n‖_F on the diagonal of
    # ``norms``, ‖P_a P_b‖_F off it.
    same = groups[:, None] == groups[None, :]
    diag_blocks = np.where(same, gram, 0.0)
    blocks = np.where(same, diag_blocks @ diag_blocks - diag_blocks, gram)
    squares = _sum_by_label(np.abs(blocks) ** 2, groups, n_out)
    norms = np.sqrt(_sum_by_label(squares.T, groups, n_out).T)
    # argmax picks the first failing block (a NaN norm fails), else a passing one.
    k = int(np.argmax(~(np.diagonal(norms) <= PROJECTOR_TOL)))
    require("idempotency", float(norms[k, k]), PROJECTOR_TOL,
            _NOT_IDEMPOTENT, k=k)
    a, b = np.unravel_index(
        np.argmax(np.triu(~(norms <= PROJECTOR_TOL), 1)), norms.shape)
    require("orthogonality", float(norms[a, b]), PROJECTOR_TOL,
            "projectors {a} and {b} are not orthogonal: "
            "‖P_a P_b‖_F = {value:.3e} > {bound:.1e}", a=a, b=b)
    require("completeness", completeness, PROJECTOR_TOL,
            "projector family is not complete: ‖ΣP − I‖_F = {value:.3e} > {bound:.1e}")
    ranks = np.round(traces)
    k = int(np.argmax(~(abs(traces - ranks) <= RANK_TOL)))
    require("integer_rank", float(abs(traces[k] - ranks[k])), RANK_TOL,
            "projector {k} has non-integer trace {trace!r}", k=k, trace=float(traces[k]))
    return tuple(ranks.astype(int).tolist())


def _sum_by_label(rows: np.ndarray, labels: np.ndarray,
                  count: int) -> np.ndarray:
    """Row n of the result is the sum of the rows labelled n, added in
    row order; a label no row carries gives a zero row."""
    sums = np.zeros((count, rows.shape[1]))
    np.add.at(sums, labels, rows)
    return sums


class KrausChannel:
    """CPTP map ρ ↦ Σ_i Λ_i ρ Λ_i† + r·tr(ρ)·I/d: Kraus operators plus a
    replacement weight r.

    ``kraus_ops`` is one read-only (K, d, d) complex128 array, operator i
    at ``kraus_ops[i]``; any sequence of K equal-shape d×d matrices (or
    such an array) is accepted. A complex128 (K, d, d) array is stored
    without a copy, so it is frozen in place: the caller's array becomes
    read-only too. ``replacement`` is r, the weight with which the map
    replaces its input by the maximally mixed state; it must be finite and
    in [0, 1], which keeps the map completely positive. The exact engine
    costs O(d³) per Kraus operator and O(d²) for the replacement term.

    Trace preservation (‖ΣΛ†Λ + rI − I‖_F ≤ :data:`COMPLETENESS_TOL`) is
    enforced at construction; unitality (‖ΣΛΛ† + rI − I‖_F) is measured
    and stored but not required — non-unital channels are first-class
    citizens here, they are exactly the ones that break the work identity.
    """

    def __init__(self, kraus_ops, *, replacement: float = 0.0):
        try:
            ops = np.asarray(kraus_ops, dtype=np.complex128)
        except ValueError as err:
            raise ValueError(
                f"Kraus operators must be numeric matrices of one shape: "
                f"{err}") from None
        if ops.shape[:1] == (0,):
            raise ValidationError("channel has no Kraus operators",
                                  invariant="nonempty")
        if ops.ndim != 3 or 0 in ops.shape:
            raise ValidationError(
                f"expected a stack of 2-d matrices, got shape {ops.shape}",
                invariant="matrix_shape")
        if not np.isfinite(ops).all():
            raise ValidationError(
                "Kraus operators contain non-finite entries",
                invariant="finite_entries")
        dim = ops.shape[1]
        if ops.shape[2] != dim:
            raise ValidationError(
                f"expected square Kraus operators, got shape {ops.shape[1:]}",
                invariant="square")
        r = float(replacement)
        # max(−r, r − 1) ≤ 0 exactly when 0 ≤ r ≤ 1; NaN fails.
        require("replacement_weight", max(-r, r - 1.0), 0.0,
                "replacement weight must be finite and in [0, 1], got {r!r}", r=r)
        # (1 − r)·I is I itself at r = 0, so an r = 0 channel's residuals
        # are those of its Kraus operators alone, bit for bit.
        kept = 1.0 - r
        with np.errstate(over="ignore", invalid="ignore"):
            completeness = _product_residual(ops, kept, adjoint_first=True)
        require("completeness", completeness, COMPLETENESS_TOL,
                "Kraus operators do not preserve trace: "
                "‖ΣΛ†Λ + rI − I‖_F = {value:.3e} > {bound:.1e}")
        self.dim = dim
        self.kraus_ops = _freeze(ops)
        self.replacement = r
        self.unitality_residual = _product_residual(ops, kept,
                                                    adjoint_first=False)

    def __len__(self) -> int:
        return len(self.kraus_ops)

    def __repr__(self) -> str:
        return (f"KrausChannel(dim={self.dim}, n_ops={len(self)}, "
                f"replacement={self.replacement!r}, "
                f"unitality_residual={self.unitality_residual:.3e})")


def _product_residual(ops: np.ndarray, kept: float, *,
                      adjoint_first: bool) -> float:
    """‖ΣΛ_i†Λ_i − kept·I‖_F (``adjoint_first``) or ‖ΣΛ_iΛ_i† − kept·I‖_F,
    each product added in operator order into one d×d buffer: O(d²)
    working memory whatever the operator count."""
    dim = ops.shape[1]
    total = np.empty((dim, dim), dtype=np.complex128)
    for k, op in enumerate(ops):
        left, right = (op.conj().T, op) if adjoint_first else (op, op.conj().T)
        if k:
            total += left @ right
        else:
            np.matmul(left, right, out=total)
    total.reshape(-1)[::dim + 1] -= kept
    return frobenius(total)


class GibbsEnsemble(NamedTuple):
    """Thermal bundle of a Hamiltonian H at inverse temperature β, an
    immutable ``NamedTuple``.

    Built by :func:`gibbs_ensemble`, and at another β by :meth:`at_beta`.
    ``energies`` and ``basis`` are H's eigenpair, the one diagonalisation
    of H that everything downstream is built from: eigenvalues ascending,
    column k of ``basis`` the eigenvector of ``energies[k]`` (both
    read-only). Pass them to :func:`eigen_measurement` and
    :func:`unitary_from_hamiltonian`. Z = tr e^{−βH}.
    """

    energies: np.ndarray
    basis: np.ndarray
    beta: float
    partition_function: float

    @property
    def state(self) -> DensityMatrix:
        """The Gibbs state e^{−βH}/Z, built in O(d) each time it is read:
        the normalised weights e^{−β(E_k − E_0)} on ``basis``."""
        weights = np.exp(-self.beta * (self.energies - self.energies[0]))
        return DensityMatrix._spectral(weights / float(weights.sum()),
                                       self.basis)

    def at_beta(self, beta: float) -> GibbsEnsemble:
        """The same Hamiltonian's ensemble at inverse temperature ``beta``.

        The held eigenpair is reused, not recomputed: H is not
        diagonalised again. Z, the β > 0 check and both exponent guards
        run through the code :func:`gibbs_ensemble` uses, so
        ``gibbs_ensemble(h, a).at_beta(b)`` equals ``gibbs_ensemble(h, b)``
        field for field and raises the same errors. At the ensemble's own
        β it is the ensemble itself.
        """
        if beta == self.beta:
            return self
        return _thermal(self.energies, self.basis, beta)


def gibbs_ensemble(hamiltonian, beta: float) -> GibbsEnsemble:
    """Construct the Gibbs ensemble of a Hamiltonian at inverse temperature β.

    This is where a Hamiltonian is checked and diagonalised, once, by
    :func:`~tpm_lab.linalg.hermitian_eig`; the ensemble keeps the
    eigenpair, not the matrix. Eigenvalues are shifted by their minimum
    before exponentiating, and the shift is compensated in ln Z, so
    moderate β·spread never overflows. Natural units k = 1, so β = 1/T.

    Raises :class:`ValidationError` if the Hamiltonian is not Hermitian,
    ValueError unless β > 0 (NaN fails), and OverflowError if β·spread
    exceeds the exponent guard or Z is not representable in double
    precision; a NaN fails each guard, as does β = ∞ on a spectrum of
    zero spread (∞·0 is NaN).
    """
    w, v = hermitian_eig(hamiltonian)
    return _thermal(_freeze(w), _freeze(v), beta)


def _thermal(w: np.ndarray, v: np.ndarray, beta: float) -> GibbsEnsemble:
    """The ensemble of the eigenpair ``(w, v)`` at β: Z and both exponent
    guards."""
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    e_min = float(w[0])
    spread = float(w[-1] - w[0])
    if not beta * spread <= GIBBS_EXPONENT_GUARD:
        raise OverflowError(
            f"beta * spectral spread = {beta * spread:.3e} exceeds the "
            f"exponent guard {GIBBS_EXPONENT_GUARD}")
    z_shifted = float(np.exp(-beta * (w - e_min)).sum())
    log_z = math.log(z_shifted) - beta * e_min
    if not abs(log_z) <= GIBBS_EXPONENT_GUARD:
        raise OverflowError(
            f"|ln Z| = {abs(log_z):.3e} exceeds the exponent guard; "
            "the partition function is not representable")
    return GibbsEnsemble(energies=w, basis=v, beta=float(beta),
                         partition_function=math.exp(log_z))


def eigen_measurement(energies, basis,
                      degeneracy_gap: float | None = None) -> ProjectorFamily:
    """Energy-labeled projector family of a Hamiltonian's eigenbasis.

    Takes the eigenpair ``(energies, basis)`` of H, ascending as
    :func:`~tpm_lab.linalg.hermitian_eig` returns it and as a
    :class:`GibbsEnsemble` holds it; given a matrix ``h``, call
    ``eigen_measurement(*hermitian_eig(h))``. The eigenvectors become the
    family's basis. Consecutive eigenvalues closer than ``degeneracy_gap``
    (default 1e−8·‖w‖₂, which equals 1e−8·‖H‖_F) share one outcome group,
    i.e. one projector of rank = group size, so downstream code sees the
    degenerate subspace rather than an arbitrary eigenvector basis inside
    it. Each group's energy label is the group mean eigenvalue.
    """
    w = np.asarray(energies, dtype=float)
    steps = np.diff(w)
    if not (steps >= 0).all():
        raise ValueError("energies must be in ascending order")
    if degeneracy_gap is None:
        degeneracy_gap = 1e-8 * frobenius(w)
    groups = np.zeros(len(w), dtype=np.intp)
    np.add.accumulate(steps > degeneracy_gap, out=groups[1:], dtype=np.intp)
    return ProjectorFamily(
        basis=basis, groups=groups,
        energies=np.bincount(groups, weights=w) / np.bincount(groups))


def channel_from_unitary(u) -> KrausChannel:
    """Wrap a unitary as a single-Kraus-operator channel. For one operator
    the channel's completeness residual is ‖U†U − I‖_F, so a non-unitary
    matrix is rejected as ``completeness``."""
    return KrausChannel([u])


def unitary_from_hamiltonian(energies, basis, t: float = 1.0) -> np.ndarray:
    """Evolution operator e^{−iHt} = V e^{−iwt} V† of a Hermitian generator
    given by its eigenpair ``(energies, basis)`` = (w, V), as
    :func:`~tpm_lab.linalg.hermitian_eig` returns it and a
    :class:`GibbsEnsemble` holds it."""
    v = np.asarray(basis)
    with np.errstate(over="ignore", invalid="ignore"):
        return (v * np.exp(-1j * np.asarray(energies) * t)) @ v.conj().T


def standard_channel(kind: str, dim: int,
                     param: float | None = None) -> KrausChannel:
    """Stock CPTP maps for probing the identities beyond the unitary case.

    ``kind`` is ``identity``, ``dephasing``, ``depolarizing`` or
    ``amplitude_damping`` (dim = 2 only). ``param`` is the channel
    strength in [0, 1], the dephasing/depolarizing probability p or the
    damping rate γ; ``identity`` takes none. Each Kraus stack is written
    in closed form into one (K, d, d) array:

    - dephasing: √(1−p)·I, then √p·|k⟩⟨k| for k = 0..d−1 (K = d + 1);
    - depolarizing: ρ ↦ (1−p)ρ + p·tr(ρ)·I/d, stored exactly as the one
      operator √(1−p)·I with replacement weight p (K = 1), so the exact
      engine costs O(d³) where a Kraus form (d² + 1 Weyl operators) would
      cost O(d⁵);
    - amplitude damping: [[1, 0], [0, √(1−γ)]] and [[0, √γ], [0, 0]].

    identity, dephasing and depolarizing are unital; amplitude damping is
    deliberately non-unital with ΣΛΛ† − I = diag(γ, −γ), a unitality
    residual of γ·√2. Every channel but depolarizing has replacement
    weight 0.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if kind == "identity":
        if param is not None:
            raise ValueError("identity channel takes no parameter")
        return KrausChannel([np.eye(dim)])
    if param is None:
        raise ValueError(f"channel kind {kind!r} requires a parameter")
    p = float(param)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"channel parameter must lie in [0, 1], got {p}")
    if kind == "dephasing":
        k = np.arange(dim)
        ops = np.zeros((dim + 1, dim, dim), dtype=np.complex128)
        ops[0] = math.sqrt(1 - p) * np.eye(dim)
        ops[1 + k, k, k] = math.sqrt(p)
        return KrausChannel(ops)
    if kind == "depolarizing":
        return KrausChannel([math.sqrt(1 - p) * np.eye(dim)], replacement=p)
    if kind == "amplitude_damping":
        if dim != 2:
            raise ValueError(
                f"amplitude damping is defined for dim = 2, got dim = {dim}")
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1 - p)]], dtype=np.complex128)
        k1 = np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
        return KrausChannel([k0, k1])
    raise ValueError(f"unknown channel kind {kind!r}")


def maximally_mixed(dim: int) -> DensityMatrix:
    """The state I/dim: weights 1/dim on the identity basis."""
    return DensityMatrix._spectral(np.full(dim, 1.0 / dim),
                                   np.eye(dim, dtype=np.complex128))

