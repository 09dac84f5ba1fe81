"""Tests for the dense Hermitian/unitary linear algebra layer."""

from __future__ import annotations

import numpy as np
import pytest

from tpm_lab.errors import ValidationError
from tpm_lab.linalg import (
    as_complex_matrix,
    frobenius,
    haar_random_unitary,
    hermitian_eig,
    hermiticity_residual,
    random_hermitian,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def char_poly_coefficients(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial via the Faddeev-LeVerrier trace recursion.

    Uses only matrix products and traces, so together with ``np.roots``
    (companion-matrix eigenvalues, a different algorithm than ``eigh``) it
    gives an eigenvalue oracle independent of the code under test.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def test_hermitian_eig_diagonal_matrix():
    a = np.diag([3.0, 1.0, 2.0])
    w, v = hermitian_eig(a)
    np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-14)
    recon = (v * w) @ v.conj().T
    np.testing.assert_allclose(recon, a, atol=1e-13)


def test_hermitian_eig_pauli_x():
    w, v = hermitian_eig(PAULI_X)
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)


def test_hermitian_eig_random_reconstruction():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 17))
        h = random_hermitian(dim, rng)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose((v * w) @ v.conj().T, h, atol=1e-11)


def test_eigenvalues_match_characteristic_polynomial_roots():
    for seed in range(25):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 5))
        h = random_hermitian(dim, rng)
        w, _ = hermitian_eig(h)
        roots = np.roots(char_poly_coefficients(h))
        assert np.max(np.abs(roots.imag)) < 1e-10
        np.testing.assert_allclose(np.sort(roots.real), w, atol=1e-10)


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(ValidationError) as err:
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert err.value.invariant == "hermiticity"
    assert err.value.residual == pytest.approx(np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("matrix, invariant", [
    # ‖A − A†‖_F and ‖A‖_F are both inf
    ([[0.0, 2e154], [0.0, 0.0]], "hermiticity"),
    # Hermitian, but ‖A‖_F overflows
    ([[1e200, 0.0], [0.0, 1e200]], "finite_norm"),
    ([[-1e308, 0.0], [0.0, 1e308]], "finite_norm"),
], ids=["inf-residual", "inf-norm", "inf-energies"])
def test_hermitian_eig_rejects_an_overflowed_residual_or_norm(matrix,
                                                              invariant):
    # An inf bound would pass any residual, and eigh would read the lower
    # triangle of the first matrix as the zero Hamiltonian.
    with np.errstate(over="ignore"), pytest.raises(ValidationError) as err:
        hermitian_eig(np.array(matrix))
    assert err.value.invariant == invariant
    assert err.value.residual == np.inf


def test_hermitian_eig_rejects_nonsquare():
    with pytest.raises(ValidationError) as err:
        hermitian_eig(np.zeros((2, 3)))
    assert err.value.invariant == "square"


def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ValidationError) as err:
        as_complex_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    assert err.value.invariant == "finite_entries"


def test_haar_unitary_shapes_and_unitarity():
    rng = np.random.default_rng(11)
    for dim in range(1, 17):
        u = haar_random_unitary(dim, rng)
        assert u.shape == (dim, dim)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)


def test_haar_unitary_deterministic_for_fixed_seed():
    u1 = haar_random_unitary(5, np.random.default_rng(42))
    u2 = haar_random_unitary(5, np.random.default_rng(42))
    np.testing.assert_array_equal(u1, u2)


def test_haar_unitary_entry_moment():
    # For Haar on U(2), |U_00|^2 is uniform on [0, 1]: mean 1/2, var 1/12.
    rng = np.random.default_rng(7)
    draws = 10_000
    values = [abs(haar_random_unitary(2, rng)[0, 0]) ** 2
              for _ in range(draws)]
    tol = 4.0 * np.sqrt(1.0 / 12.0 / draws)
    assert abs(np.mean(values) - 0.5) < tol


def test_haar_unitary_rejects_bad_dim():
    with pytest.raises(ValueError):
        haar_random_unitary(0, np.random.default_rng(0))


def test_random_hermitian_is_hermitian():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h = random_hermitian(6, rng, scale=2.0)
        assert hermiticity_residual(h) == 0.0
        assert frobenius(h) > 0
