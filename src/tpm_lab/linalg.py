"""Dense complex matrix algebra for finite-dimensional quantum objects.

Everything operates on square ``numpy`` arrays of ``complex128``. All
functions are pure; randomness enters only through an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ValidationError, require

__all__ = [
    "frobenius",
    "hermiticity_residual",
    "as_complex_matrix",
    "hermitian_eig",
    "haar_random_unitary",
    "random_hermitian",
]

# Relative Hermiticity bound of hermitian_eig: ‖A − A†‖_F ≤ tol · max(1, ‖A‖_F).
HERMITICITY_TOL = 1e-10


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm as a plain float."""
    return float(np.linalg.norm(a))


def hermiticity_residual(a: np.ndarray) -> float:
    """‖A − A†‖_F, the distance of A from its Hermitian part."""
    return frobenius(a - a.conj().T)


def as_complex_matrix(a, *, square: bool = True) -> np.ndarray:
    """Coerce input to a 2-d complex128 array and check basic sanity.

    Raises :class:`ValidationError` if the array is not 2-d, contains
    non-finite entries, or (when ``square=True``) is not square.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValidationError(
            f"expected a 2-d matrix, got shape {m.shape}", invariant="matrix_shape")
    if not np.isfinite(m).all():
        raise ValidationError(
            "matrix contains non-finite entries", invariant="finite_entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValidationError(
            f"expected a square matrix, got shape {m.shape}", invariant="square")
    return m


def hermitian_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = V diag(w) V† of a Hermitian matrix.

    ``a`` must be square, Hermitian within :data:`HERMITICITY_TOL` relative
    to max(1, ‖A‖_F) (``hermiticity``; a NaN or inf residual fails) and of
    finite norm ‖A‖_F (``finite_norm``), checked without a RuntimeWarning.
    Returns the ``eigh`` pair ``(w, v)``:
    eigenvalues ascending, column k of ``v`` the orthonormal eigenvector
    of ``w[k]``. The result is deterministic for a fixed input.
    """
    m = as_complex_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        res = hermiticity_residual(m)
        norm = frobenius(m)
    # Capped, so that an inf residual fails even when ‖A‖_F overflows too.
    require("hermiticity", res,
            min(HERMITICITY_TOL * max(1.0, norm), sys.float_info.max),
            "matrix is not Hermitian: ‖A − A†‖_F = {value:.3e}, bound {bound:.3e}")
    require("finite_norm", norm, sys.float_info.max,
            "matrix norm overflows: ‖A‖_F = {value:.3e}, bound {bound:.3e}")
    return np.linalg.eigh(m)


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary of size ``dim``.

    QR of a complex Ginibre matrix, with the column phases fixed so the
    triangular factor has a real positive diagonal (this correction is what
    makes the distribution exactly Haar rather than merely unitary).
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    return q * (d / abs(d))


def random_hermitian(dim: int, rng: np.random.Generator,
                     scale: float = 1.0) -> np.ndarray:
    """GUE-style random Hermitian matrix H = scale · (G + G†)/2.

    Spectral radius grows like √dim; scale down for large dimensions if a
    bounded spectrum matters.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    with np.errstate(over="ignore", invalid="ignore"):
        return scale * (g + g.conj().T) / 2
