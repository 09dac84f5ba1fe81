"""Physical object layer: states, projective measurements, channels, Gibbs ensembles.

Constructors validate their invariants and fail loudly with the violated
invariant and its residual; nothing is silently normalized or repaired.
All objects are immutable after construction (stored arrays are marked
read-only) and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import (
    as_complex_matrix,
    frobenius,
    haar_random_unitary,
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
    "apply_channel",
    "maximally_mixed",
    "random_density_matrix",
]

# Largest |exponent| passed to exp() when building Gibbs weights; beyond
# this the partition function is not representable in double precision.
GIBBS_EXPONENT_GUARD = 700.0


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class DensityMatrix:
    """A quantum state: Hermitian, positive semidefinite, unit trace.

    Parameters
    ----------
    matrix : array_like
        Square complex matrix.
    herm_tol, trace_tol, psd_tol : float
        Absolute residual bounds for the three invariants. Violations
        raise :class:`ValidationError` naming the invariant.
    """

    def __init__(self, matrix, *, herm_tol: float = 1e-10,
                 trace_tol: float = 1e-10, psd_tol: float = 1e-10):
        m = as_complex_matrix(matrix)
        res = hermiticity_residual(m)
        if res > herm_tol:
            raise ValidationError(
                f"state is not Hermitian: ‖ρ − ρ†‖_F = {res:.3e} > {herm_tol:.1e}",
                invariant="hermiticity", residual=res)
        tr = complex(np.trace(m))
        trace_res = abs(tr - 1.0)
        if trace_res > trace_tol:
            raise ValidationError(
                f"state trace is {tr:.12g}, not 1: residual {trace_res:.3e} > {trace_tol:.1e}",
                invariant="unit_trace", residual=trace_res)
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -psd_tol:
            raise ValidationError(
                f"state is not positive semidefinite: min eigenvalue {min_eig:.3e} < -{psd_tol:.1e}",
                invariant="positive_semidefinite", residual=-min_eig)
        self.matrix = _freeze(m)
        self.dim = m.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class ProjectorFamily:
    """A complete family of mutually orthogonal projectors {P_n}.

    A family is stored as one basis plus outcome groups, never as dense
    projectors: ``basis`` is a d×d matrix V with orthonormal columns,
    ``groups`` gives each column its outcome label, and projector n is
    P_n = V_n V_n† with V_n = V[:, groups == n]. Projector n corresponds to
    measurement outcome n; ``energies`` are optional outcome labels in
    energy units (the eigenvalues of a Hamiltonian whose eigenbasis this
    family measures).

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
    - completeness: (‖G − I‖_F² + d − r)^½ = ‖ΣP − I‖_F;
    - integer rank: tr P_n = tr G_nn.
    """

    def __init__(self, projectors=None, energies=None, *, basis=None,
                 groups=None, tol: float = 1e-10, rank_tol: float = 1e-8):
        if (projectors is None) == (basis is None):
            raise ValueError("give either projectors or basis and groups")
        if projectors is not None:
            basis, groups, n_out = _basis_of_projectors(projectors, tol)
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
        dim, cols = basis.shape
        groups = groups.astype(np.intp)
        indicator = np.eye(n_out)[groups]
        gram = basis.conj().T @ basis

        # Squared block norms of G, except that each diagonal block G_nn
        # is replaced by G_nn² − G_nn: ‖P_n² − P_n‖_F on the diagonal of
        # ``norms``, ‖P_a P_b‖_F off it.
        same = groups[:, None] == groups[None, :]
        diag_blocks = np.where(same, gram, 0.0)
        blocks = np.where(same, diag_blocks @ diag_blocks - diag_blocks, gram)
        norms = np.sqrt(indicator.T @ np.abs(blocks) ** 2 @ indicator)
        bad = np.flatnonzero(np.diagonal(norms) > tol)
        if bad.size:
            k = int(bad[0])
            res = float(norms[k, k])
            raise ValidationError(
                f"projector {k} is not idempotent: ‖P² − P‖_F = {res:.3e} > {tol:.1e}",
                invariant="idempotency", residual=res)
        bad = np.argwhere(np.triu(norms > tol, 1))
        if bad.size:
            a, b = (int(i) for i in bad[0])
            res = float(norms[a, b])
            raise ValidationError(
                f"projectors {a} and {b} are not orthogonal: "
                f"‖P_a P_b‖_F = {res:.3e} > {tol:.1e}",
                invariant="orthogonality", residual=res)
        res = math.sqrt(max(frobenius(gram - np.eye(cols)) ** 2 + dim - cols,
                            0.0))
        if res > tol:
            raise ValidationError(
                f"projector family is not complete: ‖ΣP − I‖_F = {res:.3e} > {tol:.1e}",
                invariant="completeness", residual=res)
        ranks = []
        for k, tr in enumerate(indicator.T @ gram.diagonal().real):
            rank = round(tr)
            if abs(tr - rank) > rank_tol:
                raise ValidationError(
                    f"projector {k} has non-integer trace {float(tr)!r}",
                    invariant="integer_rank", residual=float(abs(tr - rank)))
            ranks.append(rank)
        if energies is not None:
            energies = tuple(float(e) for e in energies)
            if len(energies) != n_out:
                raise ValueError(
                    f"got {len(energies)} energies for {n_out} projectors")
        self.dim = dim
        self.basis = _freeze(basis)
        self.groups = _freeze(groups)
        self.ranks = tuple(ranks)
        self.energies = energies

    def __len__(self) -> int:
        return len(self.ranks)

    @property
    def max_rank(self) -> int:
        return max(self.ranks)

    def __repr__(self) -> str:
        return (f"ProjectorFamily(dim={self.dim}, outcomes={len(self)}, "
                f"ranks={self.ranks})")


def _basis_of_projectors(projectors, tol: float):
    """Basis columns, their group labels and the outcome count of a list of
    dense projectors, checking each one's Hermiticity and idempotency."""
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
        res = hermiticity_residual(p)
        if res > tol:
            raise ValidationError(
                f"projector {k} is not Hermitian: residual {res:.3e} > {tol:.1e}",
                invariant="hermiticity", residual=res)
        w, v = np.linalg.eigh(p)
        res = float(np.linalg.norm(w * w - w))
        if res > tol:
            raise ValidationError(
                f"projector {k} is not idempotent: ‖P² − P‖_F = {res:.3e} > {tol:.1e}",
                invariant="idempotency", residual=res)
        keep = w > 0.5
        columns.append(v[:, keep])
        groups.extend([k] * int(keep.sum()))
    return np.hstack(columns), np.array(groups, dtype=np.intp), len(mats)


class KrausChannel:
    """CPTP map ρ ↦ Σ_i Λ_i ρ Λ_i† given by its Kraus operators.

    Trace preservation (‖ΣΛ†Λ − I‖_F, the completeness residual) is
    enforced at construction; unitality (‖ΣΛΛ† − I‖_F) is measured and
    stored but not required — non-unital channels are first-class citizens
    here, they are exactly the ones that break the work identity.
    """

    def __init__(self, kraus_ops, *, completeness_tol: float = 1e-8):
        mats = [as_complex_matrix(k) for k in kraus_ops]
        if not mats:
            raise ValidationError("channel has no Kraus operators",
                                  invariant="nonempty")
        dim = mats[0].shape[0]
        for k, op in enumerate(mats):
            if op.shape != (dim, dim):
                raise ValueError(
                    f"Kraus operator {k} has shape {op.shape}, expected ({dim}, {dim})")
        eye = np.eye(dim)
        completeness = frobenius(
            sum(op.conj().T @ op for op in mats) - eye)
        if completeness > completeness_tol:
            raise ValidationError(
                f"Kraus operators do not preserve trace: "
                f"‖ΣΛ†Λ − I‖_F = {completeness:.3e} > {completeness_tol:.1e}",
                invariant="completeness", residual=completeness)
        unitality = frobenius(sum(op @ op.conj().T for op in mats) - eye)
        self.dim = dim
        self.kraus_ops = tuple(_freeze(op) for op in mats)
        self.completeness_residual = completeness
        self.unitality_residual = unitality

    def __len__(self) -> int:
        return len(self.kraus_ops)

    def __repr__(self) -> str:
        return (f"KrausChannel(dim={self.dim}, n_ops={len(self)}, "
                f"unitality_residual={self.unitality_residual:.3e})")


@dataclass(frozen=True)
class GibbsEnsemble:
    """Thermal bundle (H, β, Z, F, ρ) with ρ = e^{−βH}/Z.

    Built by :func:`gibbs_ensemble`; Z = tr e^{−βH} and F = −(1/β) ln Z.
    """

    hamiltonian: np.ndarray
    beta: float
    partition_function: float
    free_energy: float
    state: DensityMatrix


def gibbs_ensemble(hamiltonian, beta: float,
                   hermiticity_tol: float = 1e-10) -> GibbsEnsemble:
    """Construct the Gibbs ensemble of a Hamiltonian at inverse temperature β.

    Eigenvalues are shifted by their minimum before exponentiating, and the
    shift is compensated in ln Z, so moderate β·spread never overflows.
    Natural units k = 1 throughout, so β = 1/T.

    Raises
    ------
    ValidationError
        If the Hamiltonian is not Hermitian.
    ValueError
        If β ≤ 0.
    OverflowError
        If β·spread exceeds the exponent guard, or if Z itself is not
        representable in double precision.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    w, v = hermitian_eig(hamiltonian, hermiticity_tol)
    e_min = float(w[0])
    spread = float(w[-1] - w[0])
    if beta * spread > GIBBS_EXPONENT_GUARD:
        raise OverflowError(
            f"beta * spectral spread = {beta * spread:.3e} exceeds the "
            f"exponent guard {GIBBS_EXPONENT_GUARD}")
    shifted_weights = np.exp(-beta * (w - e_min))
    z_shifted = float(np.sum(shifted_weights))
    log_z = math.log(z_shifted) - beta * e_min
    if abs(log_z) > GIBBS_EXPONENT_GUARD:
        raise OverflowError(
            f"|ln Z| = {abs(log_z):.3e} exceeds the exponent guard; "
            "the partition function is not representable")
    z = math.exp(log_z)
    free_energy = -log_z / beta
    rho = (v * (shifted_weights / z_shifted)) @ v.conj().T
    rho = (rho + rho.conj().T) / 2
    state = DensityMatrix(rho)
    h = as_complex_matrix(hamiltonian)
    return GibbsEnsemble(hamiltonian=_freeze(h), beta=float(beta),
                         partition_function=z, free_energy=free_energy,
                         state=state)


def eigen_measurement(hamiltonian, degeneracy_gap: float | None = None,
                      hermiticity_tol: float = 1e-10) -> ProjectorFamily:
    """Energy-labeled projector family of a Hamiltonian's eigenbasis.

    The eigenvectors become the family's basis. Consecutive sorted
    eigenvalues closer than ``degeneracy_gap`` (default 1e−8·‖H‖_F) share
    one outcome group, i.e. one projector of rank = group size, so
    downstream code sees the degenerate subspace rather than an arbitrary
    eigenvector basis inside it. Each group's energy label is the group
    mean eigenvalue.
    """
    w, v = hermitian_eig(hamiltonian, hermiticity_tol)
    if degeneracy_gap is None:
        degeneracy_gap = 1e-8 * frobenius(np.asarray(hamiltonian))
    groups = np.concatenate(([0], np.cumsum(np.diff(w) > degeneracy_gap)))
    energies = np.bincount(groups, weights=w) / np.bincount(groups)
    return ProjectorFamily(basis=v, groups=groups, energies=energies)


def channel_from_unitary(u, unitarity_tol: float = 1e-8) -> KrausChannel:
    """Wrap a unitary as a single-Kraus-operator channel."""
    m = as_complex_matrix(u)
    res = frobenius(m.conj().T @ m - np.eye(m.shape[0]))
    if res > unitarity_tol:
        raise ValidationError(
            f"matrix is not unitary: ‖U†U − I‖_F = {res:.3e} > {unitarity_tol:.1e}",
            invariant="unitarity", residual=res)
    return KrausChannel([m])


def unitary_from_hamiltonian(hamiltonian, t: float = 1.0) -> np.ndarray:
    """Evolution operator e^{−iHt} of a Hermitian generator."""
    w, v = hermitian_eig(hamiltonian)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _weyl_operators(dim: int) -> list[np.ndarray]:
    """The dim² unitary shift/clock products X^a Z^b (generalized Paulis)."""
    omega = np.exp(2j * np.pi / dim)
    shift = np.roll(np.eye(dim, dtype=np.complex128), 1, axis=0)
    clock = np.diag(omega ** np.arange(dim))
    ops = []
    xa = np.eye(dim, dtype=np.complex128)
    for _ in range(dim):
        zb = np.eye(dim, dtype=np.complex128)
        for _ in range(dim):
            ops.append(xa @ zb)
            zb = zb @ clock
        xa = xa @ shift
    return ops


def standard_channel(kind: str, dim: int,
                     param: float | None = None) -> KrausChannel:
    """Stock CPTP maps for probing the identities beyond the unitary case.

    Parameters
    ----------
    kind : str
        One of ``identity``, ``dephasing``, ``depolarizing``,
        ``amplitude_damping``.
    dim : int
        Hilbert space dimension. ``amplitude_damping`` is defined for
        dim = 2 only.
    param : float, optional
        Channel strength in [0, 1]: the dephasing/depolarizing probability
        p, or the damping rate γ. Not accepted for ``identity``.

    Notes
    -----
    identity, dephasing and depolarizing are unital; amplitude damping is
    deliberately non-unital with ΣΛΛ† − I = diag(γ, −γ), i.e. a unitality
    residual of γ·√2.
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
        ops = [np.sqrt(1 - p) * np.eye(dim)]
        for i in range(dim):
            k = np.zeros((dim, dim), dtype=np.complex128)
            k[i, i] = np.sqrt(p)
            ops.append(k)
        return KrausChannel(ops)
    if kind == "depolarizing":
        # rho -> (1-p) rho + p I/dim, via the Weyl twirl (1/d²) Σ W rho W†.
        ops = [np.sqrt(1 - p) * np.eye(dim)]
        ops.extend(np.sqrt(p) / dim * w for w in _weyl_operators(dim))
        return KrausChannel(ops)
    if kind == "amplitude_damping":
        if dim != 2:
            raise ValueError(
                f"amplitude damping is defined for dim = 2, got dim = {dim}")
        k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1 - p)]], dtype=np.complex128)
        k1 = np.array([[0.0, np.sqrt(p)], [0.0, 0.0]], dtype=np.complex128)
        return KrausChannel([k0, k1])
    raise ValueError(f"unknown channel kind {kind!r}")


def apply_channel(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply Σ_i Λ_i ρ Λ_i† and validate the output as a state."""
    if channel.dim != rho.dim:
        raise ValueError(
            f"channel dimension {channel.dim} != state dimension {rho.dim}")
    out = sum(op @ rho.matrix @ op.conj().T for op in channel.kraus_ops)
    out = (out + out.conj().T) / 2
    return DensityMatrix(out)


def maximally_mixed(dim: int) -> DensityMatrix:
    """The state I/dim."""
    return DensityMatrix(np.eye(dim) / dim)


def random_density_matrix(dim: int, rng: np.random.Generator,
                          min_weight: float = 0.05) -> DensityMatrix:
    """Random full-rank state: Haar-rotated spectrum bounded away from zero."""
    weights = rng.uniform(min_weight, 1.0, size=dim)
    weights /= weights.sum()
    u = haar_random_unitary(dim, rng)
    rho = (u * weights) @ u.conj().T
    return DensityMatrix((rho + rho.conj().T) / 2)
