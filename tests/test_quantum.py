"""Tests for states, projector families, channels and Gibbs ensembles."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from conftest import (
    apply_kraus,
    dense,
    dense_projectors,
    random_density_matrix,
    weyl_depolarizing,
)
from tpm_lab import quantum
from tpm_lab.errors import ValidationError
from tpm_lab.linalg import haar_random_unitary, hermitian_eig, random_hermitian
from tpm_lab.quantum import (
    DensityMatrix,
    KrausChannel,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    maximally_mixed,
    standard_channel,
    unitary_from_hamiltonian,
)

KET0 = np.array([1.0, 0.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


# --- DensityMatrix ----------------------------------------------------------

def test_density_matrix_accepts_valid_state():
    rho = DensityMatrix(np.diag([0.3, 0.7]))
    assert rho.dim == 2
    assert not rho.weights.flags.writeable
    assert not rho.basis.flags.writeable
    assert not hasattr(rho, "matrix")
    np.testing.assert_allclose(rho.weights, [0.3, 0.7], atol=1e-16)


def test_density_matrix_stores_a_copy():
    m = np.diag([0.3, 0.7]).astype(np.complex128)
    rho = DensityMatrix(m)
    assert m.flags.writeable
    m[0, 0] = 0.9
    assert dense(rho)[0, 0] == pytest.approx(0.3, abs=1e-16)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.diag([0.9, 0.3]))
    assert err.value.invariant == "unit_trace"
    assert err.value.residual == pytest.approx(0.2, abs=1e-12)


def test_density_matrix_rejects_nonhermitian():
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]))
    assert err.value.invariant == "hermiticity"


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.diag([1.5, -0.5]))
    assert err.value.invariant == "positive_semidefinite"
    assert err.value.residual == pytest.approx(0.5, abs=1e-12)


def test_maximally_mixed():
    state = maximally_mixed(4)
    np.testing.assert_array_equal(state.weights, np.full(4, 0.25))
    np.testing.assert_array_equal(state.basis, np.eye(4))
    np.testing.assert_allclose(dense(state), np.eye(4) / 4)


def test_random_density_matrix_full_rank():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        rho = random_density_matrix(dim, rng)
        eigs = np.linalg.eigvalsh(dense(rho))
        assert eigs[0] > 1e-4


# --- ProjectorFamily --------------------------------------------------------

def test_projector_family_computational_basis():
    family = ProjectorFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                             [0.0, 1.0])
    assert len(family) == 2
    assert family.ranks == (1, 1)
    assert family.max_rank == 1
    assert family.energies == (0.0, 1.0)


def test_projector_family_rejects_non_idempotent():
    with pytest.raises(ValidationError) as err:
        ProjectorFamily([0.5 * np.eye(2), 0.5 * np.eye(2)])
    assert err.value.invariant == "idempotency"


def test_projector_family_rejects_non_orthogonal():
    with pytest.raises(ValidationError) as err:
        ProjectorFamily([projector(KET0), projector(KET_PLUS)])
    assert err.value.invariant == "orthogonality"
    # ||P_0 P_+||_F = |<0|+>| = 1/sqrt(2)
    assert err.value.residual == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_projector_family_rejects_incomplete():
    with pytest.raises(ValidationError) as err:
        ProjectorFamily([np.diag([1.0, 0.0])])
    assert err.value.invariant == "completeness"
    assert err.value.residual == pytest.approx(1.0, abs=1e-12)


def test_projector_family_energy_count_mismatch():
    with pytest.raises(ValueError):
        ProjectorFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], [0.0])


@pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_projector_family_rejects_a_nonfinite_energy(energy):
    with pytest.raises(ValueError, match="energies must be finite"):
        ProjectorFamily(basis=np.eye(2), groups=[0, 1], energies=[0.0, energy])
    with pytest.raises(ValueError, match="energies must be finite"):
        ProjectorFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                        [energy, 1.0])


def test_projector_family_from_projectors_stores_basis_and_groups():
    u = haar_random_unitary(4, np.random.default_rng(3))
    projectors = [u[:, :2] @ u[:, :2].conj().T, u[:, 2:] @ u[:, 2:].conj().T]
    family = ProjectorFamily(projectors, [0.0, 1.0])
    assert family.ranks == (2, 2)
    assert family.groups.tolist() == [0, 0, 1, 1]
    np.testing.assert_allclose(family.basis.conj().T @ family.basis,
                               np.eye(4), atol=1e-14)
    for dense, expected in zip(dense_projectors(family), projectors):
        np.testing.assert_allclose(dense, expected, atol=1e-14)


@pytest.mark.parametrize("form", ["basis", "dense"])
@pytest.mark.parametrize("dim", [16, 64, 256])
def test_projector_family_rejects_a_uniformly_scaled_basis(dim, form):
    # Every column of a Haar basis 1 + 4.5e−11 long: each projector's
    # idempotency residual is 9e−11, inside its bound, but
    # ‖ΣP − I‖_F = 9e−11·√d is not. The basis form must not round the
    # d·(9e−11)² away by adding d first, and the dense form must not judge
    # the unit-norm eigenvectors of the matrices instead of the matrices.
    u = haar_random_unitary(dim, np.random.default_rng(dim))
    scale = 1.0 + 4.5e-11
    with pytest.raises(ValidationError) as err:
        if form == "basis":
            ProjectorFamily(basis=u * scale, groups=np.arange(dim))
        else:
            ProjectorFamily([scale ** 2 * np.outer(c, c.conj()) for c in u.T])
    assert err.value.invariant == "completeness"
    assert err.value.residual == pytest.approx(9e-11 * np.sqrt(dim),
                                               rel=1e-5)


def test_projector_family_rejects_an_overflowed_gram_matrix():
    # G = V†V overflows, and its NaN entries leave NaN block norms and a
    # NaN trace: each check fails on them, none reaches round(NaN).
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValidationError) as err:
        ProjectorFamily(basis=1e160 * np.eye(2), groups=[0, 1])
    assert err.value.invariant == "idempotency"


def test_projector_family_basis_residuals_are_the_dense_ones():
    # Each residual read off the Gram matrix V†V equals the one of the
    # dense projectors V_n V_n†.
    with pytest.raises(ValidationError) as err:
        ProjectorFamily(basis=np.column_stack([KET0, KET_PLUS]), groups=[0, 1])
    assert err.value.invariant == "orthogonality"
    assert err.value.residual == pytest.approx(np.sqrt(0.5), abs=1e-12)

    # P = 4|0><0|: ‖P² − P‖_F = 12.
    with pytest.raises(ValidationError) as err:
        ProjectorFamily(basis=np.diag([2.0, 1.0]), groups=[0, 1])
    assert err.value.invariant == "idempotency"
    assert err.value.residual == pytest.approx(12.0, abs=1e-12)

    with pytest.raises(ValidationError) as err:
        ProjectorFamily(basis=np.array([[1.0], [0.0]]), groups=[0])
    assert err.value.invariant == "completeness"
    assert err.value.residual == pytest.approx(1.0, abs=1e-12)


def test_projector_family_takes_one_representation():
    eye = np.eye(2)
    with pytest.raises(ValueError):
        ProjectorFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])],
                        basis=eye, groups=[0, 1])
    with pytest.raises(ValueError):
        ProjectorFamily()
    with pytest.raises(ValueError):
        ProjectorFamily(basis=eye, groups=[0])
    with pytest.raises(ValueError):
        ProjectorFamily(basis=eye, groups=[0.0, 1.0])


# --- eigen_measurement ------------------------------------------------------

def test_eigen_measurement_nondegenerate():
    family = eigen_measurement(*hermitian_eig(np.diag([1.0, 0.0, 2.0])))
    assert family.ranks == (1, 1, 1)
    assert family.energies == (0.0, 1.0, 2.0)
    np.testing.assert_allclose(dense_projectors(family)[0], np.diag([0, 1, 0]),
                               atol=1e-14)


def test_eigen_measurement_reconstructs_hamiltonian():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        h = random_hermitian(5, rng)
        family = eigen_measurement(*hermitian_eig(h))
        recon = sum(e * p for e, p in zip(family.energies,
                                          dense_projectors(family)))
        np.testing.assert_allclose(recon, h, atol=1e-12)


def test_eigen_measurement_groups_degenerate_levels():
    u = haar_random_unitary(3, np.random.default_rng(9))
    h = u @ np.diag([0.0, 0.0, 1.0]) @ u.conj().T
    family = eigen_measurement(*hermitian_eig(h))
    assert family.ranks == (2, 1)
    assert family.energies[0] == pytest.approx(0.0, abs=1e-10)
    expected = u @ np.diag([1.0, 1.0, 0.0]) @ u.conj().T
    np.testing.assert_allclose(dense_projectors(family)[0], expected, atol=1e-10)


def test_eigen_measurement_gap_override():
    h = np.diag([0.0, 1e-12, 1.0])
    assert len(eigen_measurement(*hermitian_eig(h), degeneracy_gap=1e-6)) == 2
    assert len(eigen_measurement(*hermitian_eig(h), degeneracy_gap=1e-14)) == 3


def test_eigen_measurement_rejects_unsorted_energies():
    with pytest.raises(ValueError):
        eigen_measurement([1.0, 0.0], np.eye(2))


def test_eigen_measurement_rejects_a_nan_energy():
    # NaN steps are not ≥ 0, so a NaN energy is no ascending spectrum.
    with pytest.raises(ValueError, match="ascending"):
        eigen_measurement([0.0, np.nan, 1.0], np.eye(3))


# --- channels ---------------------------------------------------------------

def test_channel_from_unitary_rejects_non_unitary():
    with pytest.raises(ValidationError) as err:
        channel_from_unitary(2.0 * np.eye(2))
    assert err.value.invariant == "completeness"
    # ‖U†U − I‖_F = ‖3I‖_F.
    assert err.value.residual == pytest.approx(3.0 * np.sqrt(2.0))


def test_kraus_channel_rejects_trace_decreasing_set():
    factor = np.sqrt(1.0 - 0.1 / np.sqrt(2.0))
    with pytest.raises(ValidationError) as err:
        KrausChannel([factor * np.eye(2)])
    assert err.value.invariant == "completeness"
    assert err.value.residual == pytest.approx(0.1, abs=1e-12)


def test_kraus_channel_rejects_a_nan_completeness_residual():
    # Λ†Λ overflows to inf − inf = NaN off the diagonal; a NaN residual
    # must fail the bound, not pass it.
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValidationError) as err:
        KrausChannel([[[1e200, 1e200], [1e200, -1e200]]])
    assert err.value.invariant == "completeness"
    assert np.isnan(err.value.residual)


@pytest.mark.parametrize("scale, replacement, residual", [
    (np.sqrt(1.5), -0.5, 0.5),  # trace-preserving, but not CP
    (0.0, 1.5, 0.5),
    (1.0, np.nan, np.nan),
    (1.0, np.inf, np.inf),
], ids=["negative", "above-one", "nan", "inf"])
def test_kraus_channel_rejects_replacement_weight_outside_unit_interval(
        scale, replacement, residual):
    with pytest.raises(ValidationError) as err:
        KrausChannel([scale * np.eye(2)], replacement=replacement)
    assert err.value.invariant == "replacement_weight"
    assert err.value.residual == pytest.approx(residual, nan_ok=True)


def test_kraus_channel_replacement_enters_completeness_and_unitality():
    channel = KrausChannel([np.sqrt(0.25) * np.eye(3)], replacement=0.75)
    assert channel.replacement == 0.75 and len(channel) == 1
    assert channel.unitality_residual == 0.0
    with pytest.raises(ValidationError) as err:
        KrausChannel([np.sqrt(0.25) * np.eye(3)], replacement=0.5)
    assert err.value.invariant == "completeness"
    assert err.value.residual == pytest.approx(0.25 * np.sqrt(3.0))


def test_kraus_channel_working_memory_stays_a_few_d2_buffers():
    # ΣΛ†Λ and ΣΛΛ† are summed one product at a time into a d×d buffer,
    # and finiteness is read off the stack's min and max. Beyond its input,
    # a d = 128 dephasing stack (K = 129, 34 MB) then needs a few d×d
    # complex buffers: a (K, d, d) stack of products would add 34 MB, and
    # a finiteness mask 2.1 MB.
    dim = 128
    ops = standard_channel("dephasing", dim, 0.3).kraus_ops.copy()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        KrausChannel(ops)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 4 * dim * dim * ops.itemsize, peak


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
@pytest.mark.parametrize("entry", [
    np.nan, np.inf, -np.inf, complex(0.0, np.inf), complex(0.0, -np.inf),
    complex(0.0, np.nan), complex(1e308, -1e308), 0.0])
def test_kraus_channel_reads_finiteness_off_real_and_imaginary_parts(
        layout, entry):
    # A transposed stack's last axis is strided, so its parts are read
    # separately; either way the verdict is np.isfinite's.
    ops = np.stack([np.eye(3, dtype=complex) * np.sqrt(0.5)] * 2)
    ops[1, 0, 2] = entry
    if layout == "transposed":
        ops = ops.transpose(0, 2, 1)
        assert ops.strides[-1] != ops.itemsize
    if entry == 0.0:
        KrausChannel(ops)
        return
    with pytest.raises(ValidationError) as err:
        KrausChannel(ops)
    # A finite entry this large overflows the completeness residual.
    assert err.value.invariant == ("finite_entries" if not np.isfinite(entry)
                                   else "completeness")


@pytest.mark.parametrize("ops, error, invariant", [
    ([], ValidationError, "nonempty"),
    (np.empty((0, 2, 2)), ValidationError, "nonempty"),
    ([np.array([1.0, 0.0])], ValidationError, "matrix_shape"),
    ([np.ones((2, 3))], ValidationError, "square"),
    ([np.eye(2), np.eye(3)], ValueError, None),
    ([np.array([[np.nan, 0.0], [0.0, 1.0]])], ValidationError,
     "finite_entries"),
], ids=["empty", "empty-stack", "1-d", "non-square", "mixed-shapes",
        "nan"])
def test_kraus_channel_rejects_malformed_operators(ops, error, invariant):
    with pytest.raises(ValueError) as err:
        KrausChannel(ops)
    assert type(err.value) is error
    assert getattr(err.value, "invariant", None) == invariant


def test_standard_channel_parameter_validation():
    with pytest.raises(ValueError):
        standard_channel("dephasing", 2, 1.5)
    with pytest.raises(ValueError):
        standard_channel("dephasing", 2)
    with pytest.raises(ValueError):
        standard_channel("amplitude_damping", 3, 0.5)
    with pytest.raises(ValueError):
        standard_channel("identity", 2, 0.1)
    with pytest.raises(ValueError):
        standard_channel("squeezing", 2, 0.1)


def test_dephasing_interpolates_to_diagonal():
    rho = random_density_matrix(3, np.random.default_rng(4))
    out0 = apply_kraus(standard_channel("dephasing", 3, 0.0), rho)
    np.testing.assert_allclose(dense(out0), dense(rho), atol=1e-14)
    out1 = apply_kraus(standard_channel("dephasing", 3, 1.0), rho)
    np.testing.assert_allclose(dense(out1), np.diag(np.diag(dense(rho))),
                               atol=1e-14)
    p = 0.4
    outp = apply_kraus(standard_channel("dephasing", 3, p), rho)
    expected = (1 - p) * dense(rho) + p * np.diag(np.diag(dense(rho)))
    np.testing.assert_allclose(dense(outp), expected, atol=1e-14)


def test_depolarizing_closed_form():
    # The stored form and the explicit Weyl stack the joint-table oracle
    # uses both act as (1 − p)ρ + p·I/d.
    rng = np.random.default_rng(8)
    p = 0.3
    for dim in (2, 3, 5):
        rho = random_density_matrix(dim, rng)
        expected = (1 - p) * dense(rho) + p * np.eye(dim) / dim
        for channel in (standard_channel("depolarizing", dim, p),
                        weyl_depolarizing(dim, p)):
            out = apply_kraus(channel, rho)
            np.testing.assert_allclose(dense(out), expected, atol=1e-12)


def test_amplitude_damping_action():
    out = apply_kraus(standard_channel("amplitude_damping", 2, 0.4),
                      maximally_mixed(2))
    np.testing.assert_allclose(dense(out), np.diag([0.7, 0.3]), atol=1e-14)
    rho = random_density_matrix(2, np.random.default_rng(2))
    drained = apply_kraus(standard_channel("amplitude_damping", 2, 1.0),
                          rho)
    np.testing.assert_allclose(dense(drained), np.diag([1.0, 0.0]),
                               atol=1e-12)


def test_unitality_residuals():
    assert standard_channel("identity", 4).unitality_residual == 0.0
    assert standard_channel("dephasing", 3, 0.6).unitality_residual < 1e-12
    assert standard_channel("depolarizing", 3, 0.5).unitality_residual < 1e-12
    for gamma in (0.1, 0.5, 1.0):
        ch = standard_channel("amplitude_damping", 2, gamma)
        assert ch.unitality_residual == pytest.approx(gamma * np.sqrt(2.0),
                                                      abs=1e-12)


def test_channels_preserve_trace_and_positivity():
    # apply_kraus validates its output as a DensityMatrix, so this
    # loop fails loudly if any channel breaks trace or positivity.
    rng = np.random.default_rng(123)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        rho = random_density_matrix(dim, rng)
        channels = [
            standard_channel("identity", dim),
            standard_channel("dephasing", dim, float(rng.uniform(0, 1))),
            standard_channel("depolarizing", dim, float(rng.uniform(0, 1))),
            channel_from_unitary(haar_random_unitary(dim, rng)),
        ]
        if dim == 2:
            channels.append(
                standard_channel("amplitude_damping", 2,
                                 float(rng.uniform(0, 1))))
        for ch in channels:
            out = apply_kraus(ch, rho)
            assert out.dim == dim


def test_unitary_from_hamiltonian():
    u = unitary_from_hamiltonian(*hermitian_eig(np.diag([0.0, np.pi])))
    np.testing.assert_allclose(u, np.diag([1.0, -1.0]), atol=1e-14)
    u_half = unitary_from_hamiltonian(*hermitian_eig(
        np.diag([0.0, np.pi])), t=0.5)
    np.testing.assert_allclose(u_half, np.diag([1.0, -1.0j]), atol=1e-14)


# --- Gibbs ensembles --------------------------------------------------------

def test_gibbs_qubit_oracle():
    ens = gibbs_ensemble(np.diag([0.0, 1.0]), 1.0)
    z = 1.0 + np.exp(-1.0)
    assert ens.partition_function == pytest.approx(z, abs=1e-14)
    assert np.log(ens.partition_function) == pytest.approx(np.log(z),
                                                           abs=1e-14)
    np.testing.assert_allclose(dense(ens.state),
                               np.diag([1.0 / z, np.exp(-1.0) / z]),
                               atol=1e-14)


def test_gibbs_ensemble_keeps_the_eigenpair():
    h = random_hermitian(4, np.random.default_rng(3))
    ens = gibbs_ensemble(h, 0.7)
    w, v = hermitian_eig(h)
    np.testing.assert_array_equal(ens.energies, w)
    np.testing.assert_array_equal(ens.basis, v)
    assert not ens.energies.flags.writeable
    assert not ens.basis.flags.writeable
    np.testing.assert_allclose(
        unitary_from_hamiltonian(ens.energies, ens.basis, 0.3),
        (v * np.exp(-0.3j * w)) @ v.conj().T, atol=1e-14)


def test_gibbs_constant_hamiltonian():
    c, beta, dim = 3.7, 2.0, 4
    ens = gibbs_ensemble(c * np.eye(dim), beta)
    assert ens.partition_function == pytest.approx(
        dim * np.exp(-beta * c), rel=1e-13)
    assert -np.log(ens.partition_function) / beta == pytest.approx(
        c - np.log(dim) / beta, abs=1e-13)
    np.testing.assert_allclose(dense(ens.state), np.eye(dim) / dim,
                               atol=1e-14)


def test_gibbs_low_temperature_limit():
    ens = gibbs_ensemble(np.diag([0.0, 1.0]), 50.0)
    assert dense(ens.state)[0, 0] == pytest.approx(1.0, abs=1e-20)
    assert ens.partition_function == pytest.approx(1.0, abs=1e-20)


def test_gibbs_shift_invariance():
    rng = np.random.default_rng(31)
    h = random_hermitian(4, rng)
    beta, shift = 1.3, 57.0
    base = gibbs_ensemble(h, beta)
    shifted = gibbs_ensemble(h + shift * np.eye(4), beta)
    np.testing.assert_allclose(dense(shifted.state), dense(base.state),
                               atol=1e-12)
    assert shifted.partition_function == pytest.approx(
        base.partition_function * np.exp(-beta * shift), rel=1e-12)


def test_gibbs_overflow_guards():
    for h in (np.diag([0.0, 1e6]), -800.0 * np.eye(2)):
        with pytest.raises(OverflowError):
            gibbs_ensemble(h, 1.0)
        held = gibbs_ensemble(h, 1e-6)  # both guards pass at this β
        with pytest.raises(OverflowError):
            held.at_beta(1.0)


def test_gibbs_rejects_nonpositive_beta():
    held = gibbs_ensemble(np.diag([0.0, 1.0]), 1.0)
    for beta in (0.0, -1.0):
        with pytest.raises(ValueError):
            gibbs_ensemble(np.diag([0.0, 1.0]), beta)
        with pytest.raises(ValueError):
            held.at_beta(beta)


def test_gibbs_rejects_a_nan_beta():
    # NaN is not > 0: it is rejected, not carried into Z = nan.
    held = gibbs_ensemble(np.diag([0.0, 1.0]), 1.0)
    with pytest.raises(ValueError, match="beta must be positive"):
        gibbs_ensemble(np.diag([0.0, 1.0]), np.nan)
    with pytest.raises(ValueError, match="beta must be positive"):
        held.at_beta(np.nan)


@pytest.mark.filterwarnings("error")
def test_gibbs_rejects_an_infinite_beta_on_a_flat_spectrum():
    # β·spread = ∞·0 is NaN, which fails the exponent guard, before numpy
    # can warn of ∞·0 in the weights.
    with pytest.raises(OverflowError, match="exponent guard"):
        gibbs_ensemble(np.diag([1.0, 1.0]), np.inf)


def test_at_beta_equals_a_fresh_ensemble_without_a_new_eig(monkeypatch):
    h = random_hermitian(5, np.random.default_rng(32))
    betas = (0.1, 0.4, 2.5)
    fresh = [gibbs_ensemble(h, beta) for beta in betas]
    held = gibbs_ensemble(h, 0.4)

    def no_eig(a):
        raise AssertionError("at_beta diagonalised H again")

    monkeypatch.setattr(quantum, "hermitian_eig", no_eig)
    for beta, want in zip(betas, fresh):
        got = held.at_beta(beta)
        assert got.energies is held.energies and got.basis is held.basis
        np.testing.assert_array_equal(got.energies, want.energies)
        np.testing.assert_array_equal(got.basis, want.basis)
        assert (got.beta, got.partition_function) == (
            want.beta, want.partition_function)
        np.testing.assert_array_equal(dense(got.state), dense(want.state))


def test_gibbs_thermodynamic_consistency():
    # -d(ln Z)/dbeta equals the thermal energy tr(rho H).
    step = 1e-5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        h = random_hermitian(dim, rng)
        beta = float(rng.uniform(0.2, 3.0))
        ens = gibbs_ensemble(h, beta)
        energy = float(np.trace(dense(ens.state) @ h).real)
        log_z = lambda b: np.log(gibbs_ensemble(h, b).partition_function)
        finite_diff = -(log_z(beta + step) - log_z(beta - step)) / (2 * step)
        assert abs(finite_diff - energy) <= 1e-6 * max(1.0, abs(energy))
