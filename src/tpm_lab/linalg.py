"""Dense complex matrix algebra for finite-dimensional quantum objects.

Everything operates on square ``numpy`` arrays of ``complex128``. All
functions are pure; randomness enters only through an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import ValidationError

__all__ = [
    "EigenDecomposition",
    "frobenius",
    "hermiticity_residual",
    "as_complex_matrix",
    "hermitian_eig",
    "func_of_hermitian",
    "haar_random_unitary",
    "random_hermitian",
    "kron",
]

# Product-dimension guard for Kronecker products; dense work beyond this
# size is out of scope.
KRON_DIM_CAP = 4096


class EigenDecomposition(NamedTuple):
    """Spectral decomposition A = V diag(w) V† of a Hermitian matrix.

    ``eigenvalues`` are real and sorted non-decreasing; column k of
    ``eigenvectors`` is the (orthonormal) eigenvector for eigenvalue k.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def hermitian_eig(a, hermiticity_tol: float = 1e-10) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    a : array_like
        Square matrix, Hermitian within ``hermiticity_tol``. The residual
        test is relative: ‖A − A†‖_F ≤ tol · max(1, ‖A‖_F).
    hermiticity_tol : float
        Relative Hermiticity tolerance.

    Returns
    -------
    EigenDecomposition
        Eigenvalues ascending, orthonormal eigenvector columns. The result
        is deterministic for a fixed input.
    """
    m = as_complex_matrix(a)
    res = hermiticity_residual(m)
    bound = hermiticity_tol * max(1.0, frobenius(m))
    if res > bound:
        raise ValidationError(
            f"matrix is not Hermitian: ‖A − A†‖_F = {res:.3e} exceeds {bound:.3e}",
            invariant="hermiticity", residual=res)
    w, v = np.linalg.eigh(m)
    return EigenDecomposition(w, v)


def func_of_hermitian(a, f: Callable[[float], float],
                      hermiticity_tol: float = 1e-10) -> np.ndarray:
    """Apply a scalar real→real function to a Hermitian matrix.

    Returns V f(Λ) V† where A = V Λ V†. The output is re-Hermitianized to
    suppress rounding asymmetry. Raises :class:`ValidationError` if ``f``
    produces a non-finite value, reporting the offending eigenvalue.
    """
    w, v = hermitian_eig(a, hermiticity_tol)
    fw = np.empty_like(w)
    for i, x in enumerate(w):
        y = float(f(float(x)))
        if not np.isfinite(y):
            raise ValidationError(
                f"scalar function returned non-finite value {y} at eigenvalue {x!r}",
                invariant="finite_result", residual=float(x))
        fw[i] = y
    out = (v * fw) @ v.conj().T
    return (out + out.conj().T) / 2


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
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_hermitian(dim: int, rng: np.random.Generator,
                     scale: float = 1.0) -> np.ndarray:
    """GUE-style random Hermitian matrix H = scale · (G + G†)/2.

    Spectral radius grows like √dim; scale down for large dimensions if a
    bounded spectrum matters.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * (g + g.conj().T) / 2


def kron(a, b, max_dim: int = KRON_DIM_CAP) -> np.ndarray:
    """Kronecker product with a product-dimension guard."""
    ma = as_complex_matrix(a, square=False)
    mb = as_complex_matrix(b, square=False)
    rows = ma.shape[0] * mb.shape[0]
    cols = ma.shape[1] * mb.shape[1]
    if rows > max_dim or cols > max_dim:
        raise ValueError(
            f"Kronecker product shape ({rows}, {cols}) exceeds the cap {max_dim}")
    return np.kron(ma, mb)
