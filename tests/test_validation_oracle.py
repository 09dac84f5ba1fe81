"""The one-test accept rules of ProjectorFamily and DensityMatrix against
reference validators that check every invariant on every input.

``reference_family`` checks a family block by block off its Gram matrix,
``reference_dense_family`` checks dense projectors on the matrices as
given, and ``reference_positivity`` reads the smallest eigenvalue. A
seeded loop feeds both sides families and states just inside and just
outside each bound, and the two must agree on accept or reject, on the
ranks, and on the invariant and residual of every rejection (a dense
family's residuals to a relative 1e−6, a state's within the error bound
of the two eigenvalue solvers).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tpm_lab import quantum
from tpm_lab.errors import ValidationError
from tpm_lab.linalg import haar_random_unitary
from tpm_lab.quantum import (
    PROJECTOR_TOL,
    RANK_TOL,
    STATE_TOL,
    DensityMatrix,
    ProjectorFamily,
    gibbs_ensemble,
)


def reference_family(basis, groups):
    """``("ok", ranks)`` or ``(invariant, residual)`` of the first violated
    invariant, in the order idempotency, orthogonality, completeness,
    integer rank, each read off its own blocks of G = V†V."""
    basis = np.asarray(basis, dtype=np.complex128)
    groups = np.asarray(groups, dtype=np.intp)
    dim, cols = basis.shape
    n_out = int(groups.max()) + 1
    indicator = np.eye(n_out)[groups]
    gram = basis.conj().T @ basis
    same = groups[:, None] == groups[None, :]
    diag_blocks = np.where(same, gram, 0.0)
    blocks = np.where(same, diag_blocks @ diag_blocks - diag_blocks, gram)
    norms = np.sqrt(indicator.T @ np.abs(blocks) ** 2 @ indicator)
    for k in range(n_out):
        if norms[k, k] > PROJECTOR_TOL:
            return "idempotency", float(norms[k, k])
    for a in range(n_out):
        for b in range(a + 1, n_out):
            if norms[a, b] > PROJECTOR_TOL:
                return "orthogonality", float(norms[a, b])
    # ‖ΣP − I‖_F² = ‖G − I‖_F² + d − r; at r = d it is ‖G − I‖_F itself,
    # whose square adding d first would round away.
    res = float(np.linalg.norm(gram - np.eye(cols)))
    if cols != dim:
        res = math.sqrt(max(res ** 2 + dim - cols, 0.0))
    if res > PROJECTOR_TOL:
        return "completeness", res
    ranks = []
    for tr in indicator.T @ gram.diagonal().real:
        if abs(tr - round(tr)) > RANK_TOL:
            return "integer_rank", float(abs(tr - round(tr)))
        ranks.append(round(tr))
    return "ok", tuple(ranks)


def reference_dense_family(projectors):
    """``("ok", ranks)`` or ``(invariant, residual)`` of the first violated
    invariant of dense projectors, each read off the matrices as given:
    Hermiticity and idempotency projector by projector, then
    orthogonality ‖P_a P_b‖_F, completeness ‖ΣP − I‖_F and integer rank
    tr P_n."""
    mats = [np.asarray(p, dtype=np.complex128) for p in projectors]
    for p in mats:
        res = float(np.linalg.norm(p - p.conj().T))
        if res > PROJECTOR_TOL:
            return "hermiticity", res
        res = float(np.linalg.norm(p @ p - p))
        if res > PROJECTOR_TOL:
            return "idempotency", res
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            res = float(np.linalg.norm(mats[a] @ mats[b]))
            if res > PROJECTOR_TOL:
                return "orthogonality", res
    res = float(np.linalg.norm(sum(mats) - np.eye(len(mats[0]))))
    if res > PROJECTOR_TOL:
        return "completeness", res
    ranks = []
    for p in mats:
        tr = float(np.trace(p).real)
        if abs(tr - round(tr)) > RANK_TOL:
            return "integer_rank", abs(tr - round(tr))
        ranks.append(round(tr))
    return "ok", tuple(ranks)


def reference_positivity(matrix):
    """``("ok", None)`` or ``("positive_semidefinite", −λ_min)``."""
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    if min_eig < -STATE_TOL:
        return "positive_semidefinite", -min_eig
    return "ok", None


def family_verdict(basis, groups):
    try:
        return "ok", ProjectorFamily(basis=basis, groups=groups).ranks
    except ValidationError as err:
        return err.invariant, err.residual


def dense_family_verdict(projectors):
    try:
        return "ok", ProjectorFamily(projectors).ranks
    except ValidationError as err:
        return err.invariant, err.residual


def state_verdict(matrix):
    try:
        DensityMatrix(matrix)
    except ValidationError as err:
        return err.invariant, err.residual
    return "ok", None


def degenerate_groups(dim, rng):
    """Ascending labels 0, 1, … with random group sizes."""
    return np.cumsum(rng.random(dim) < 0.5)


def family_cases(seed):
    """(basis, groups) pairs: valid families of every shape, then each
    perturbed to just inside and just outside its bounds."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 12))
    u = haar_random_unitary(dim, rng)
    gapped = np.arange(dim)
    gapped[1:] += 1  # label 1 has no columns
    shapes = [
        np.arange(dim),  # rank-1 groups
        degenerate_groups(dim, rng),
        rng.permutation(dim) % max(1, dim // 2),  # non-contiguous columns
        gapped,
    ]
    for groups in shapes:
        yield u, groups
        # r < d: drop the last column.
        yield u[:, :-1], groups[:-1]
        for factor in (0.25, 0.49, 0.51, 0.99, 1.01, 2.0, 1e3):
            eps = factor * PROJECTOR_TOL
            # Stretch one column by 1 + ε/2: its entry of G − I is ≈ ε.
            k = int(rng.integers(dim))
            stretched = u.copy()
            stretched[:, k] *= 1.0 + eps / 2.0
            yield stretched, groups
            # Tilt one column towards another: G_ab gains about ε.
            a, b = rng.choice(dim, 2, replace=False)
            tilted = u.copy()
            tilted[:, a] = (u[:, a] + eps * u[:, b]) / math.hypot(1.0, eps)
            yield tilted, groups
            # A random perturbation of Frobenius norm about ε.
            noise = rng.standard_normal((dim, dim, 2)) @ [1.0, 1j]
            yield u + eps / math.sqrt(2.0 * dim * dim) * noise, groups
    # r > d: a zero column is a zero projector, which keeps the family
    # valid at rank 0; orthonormal rows give V V† = I but a Gram matrix
    # that is a projector, not I.
    yield (np.hstack([u, np.zeros((dim, 1))]),
           np.append(np.arange(dim), dim))
    yield (np.hstack([u, np.zeros((dim, 1))]),
           np.append(np.arange(dim), 0))
    wide = haar_random_unitary(dim + 2, rng)[:dim]
    yield wide, np.arange(dim + 2)
    yield wide, np.arange(dim + 2) // 2


def count_diagnoses(monkeypatch) -> list:
    """Record each call of the per-invariant diagnosis."""
    calls = []
    diagnose = quantum._diagnose_family
    monkeypatch.setattr(quantum, "_diagnose_family",
                        lambda *args: calls.append(args) or diagnose(*args))
    return calls


@pytest.mark.parametrize("seed", range(40))
def test_family_accept_rule_matches_the_reference(monkeypatch, seed):
    calls = count_diagnoses(monkeypatch)
    fast = rejected = 0
    for basis, groups in family_cases(seed):
        want = reference_family(basis, groups)
        before = len(calls)
        assert family_verdict(basis, groups) == want
        diagnosed = len(calls) > before
        # Every rejection comes from the per-invariant diagnosis.
        assert diagnosed or want[0] == "ok"
        fast += not diagnosed
        rejected += want[0] != "ok"
    assert fast and rejected


def test_family_fast_rule_is_the_derived_bound(monkeypatch):
    # δ = ‖V†V − I‖_F bounds every block residual: δ·(1 + δ) ≤ tol accepts
    # without a diagnosis, and a family past it is diagnosed.
    calls = count_diagnoses(monkeypatch)
    u = haar_random_unitary(6, np.random.default_rng(1))
    groups = np.array([0, 0, 1, 2, 2, 2])
    for factor, diagnosed in ((0.5, False), (3.0, True)):
        stretched = u.copy()
        stretched[:, 0] *= 1.0 + factor * PROJECTOR_TOL / 2.0
        gram = stretched.conj().T @ stretched
        delta = float(np.linalg.norm(gram - np.eye(6)))
        assert (delta * (1.0 + delta) > PROJECTOR_TOL) is diagnosed
        calls.clear()
        assert family_verdict(stretched, groups) == \
            reference_family(stretched, groups)
        assert bool(calls) is diagnosed


@pytest.mark.parametrize("seed", range(20))
def test_dense_family_accept_rule_matches_the_reference(seed):
    # The same families as dense projectors V_n V_n†, plus a Haar basis
    # whose every column is stretched so that ‖ΣP − I‖_F ≈ factor·tol
    # while each projector's idempotency residual, ≈ factor·tol/√d, passes
    # down to d = 2: only the sum of the given matrices shows the defect.
    # Orthogonality is read off cleaned eigenvectors, whose residuals
    # agree with the dense ones to second order, so residuals are compared
    # to a relative 1e−6.
    cases = [[basis[:, groups == n] @ basis[:, groups == n].conj().T
              for n in range(int(groups.max()) + 1)]
             for basis, groups in family_cases(seed)]
    u = haar_random_unitary(int(np.random.default_rng(seed).integers(2, 12)),
                            np.random.default_rng(seed))
    for factor in (0.49, 0.99, 1.01, 1.3):
        stretch = 1.0 + factor * PROJECTOR_TOL / (2.0 * math.sqrt(len(u)))
        cases.append([np.outer(c, c.conj()) * stretch ** 2 for c in u.T])
    verdicts = []
    for projectors in cases:
        want = reference_dense_family(projectors)
        got = dense_family_verdict(projectors)
        assert got[0] == want[0]
        if want[0] == "ok":
            assert got == want
        else:
            assert got[1] == pytest.approx(want[1], rel=1e-6)
        verdicts.append(want[0])
    assert verdicts[-4:] == ["ok"] * 2 + ["completeness"] * 2


def state_with_min_eigenvalue(dim, min_eig, rng):
    weights = rng.uniform(0.5, 1.0, dim)
    weights[0] = 0.0
    weights *= (1.0 - min_eig) / weights.sum()
    weights[0] = min_eig
    u = haar_random_unitary(dim, rng)
    m = (u * weights) @ u.conj().T
    return (m + m.conj().T) / 2


def eigenvalue_error_bound(matrix):
    """How far an eigenvalue of a Hermitian ``matrix`` computed by
    ``eigh`` or ``eigvalsh`` may lie from the exact one.

    Both reduce the matrix to tridiagonal form by d − 2 Householder
    similarities and are backward stable: they return the exact
    eigenvalues of m + ΔA with ‖ΔA‖_F ≤ 2(d − 2)·γ̃_d·‖m‖_F, each
    reflector applied from both sides (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, Lemma 19.3), and the
    tridiagonal solver adds O(d·u) more. Taking γ̃_d = d·u to first
    order gives ‖ΔA‖₂ ≤ ‖ΔA‖_F ≤ 2·d²·u·‖m‖_F, and by Weyl's inequality
    no eigenvalue moves further than that."""
    dim = len(matrix)
    return 2.0 * dim * dim * (np.finfo(float).eps / 2) * float(
        np.linalg.norm(matrix))


@pytest.mark.parametrize("seed", range(20))
def test_positivity_rule_matches_the_reference(seed):
    rng = np.random.default_rng(100 + seed)
    dim = int(rng.integers(2, 40))
    cases = [state_with_min_eigenvalue(dim, lam, rng)
             for lam in (0.3 / dim, 1e-14, 0.0, -STATE_TOL / 2,
                         -2 * STATE_TOL, -0.1 / dim)]
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi /= np.linalg.norm(psi)
    cases.append(np.outer(psi, psi.conj()))  # a pure state
    verdicts = []
    for m in cases:
        # The constructor's residual −λ_min comes from its own eigh, the
        # reference's from eigvalsh: each within the bound of the exact
        # value, so within twice the bound of each other.
        want = reference_positivity(m)
        got = state_verdict(m)
        assert got[0] == want[0]
        if want[0] != "ok":
            assert abs(got[1] - want[1]) <= 2 * eigenvalue_error_bound(m)
        verdicts.append(want[0])
    assert verdicts[-3:-1] == ["positive_semidefinite"] * 2
    assert verdicts[:4] + verdicts[-1:] == ["ok"] * 5


def test_gibbs_state_with_underflowed_weights_is_accepted():
    # β·spread = 700 leaves 15 of 16 weights between 5e−21 and e^{−700}.
    # In a dense ρ they would all be lost to rounding; the state is kept
    # as its weights on the ensemble's eigenbasis, so each one survives.
    energies = np.linspace(0.0, 700.0, 16)
    u = haar_random_unitary(16, np.random.default_rng(4))
    h = (u * energies) @ u.conj().T
    ensemble = gibbs_ensemble((h + h.conj().T) / 2, 1.0)
    w = ensemble.energies
    weights = np.exp(-(w - w[0]))
    state = ensemble.state
    assert state.dim == 16
    np.testing.assert_array_equal(state.weights, weights / weights.sum())
    assert state.basis is ensemble.basis
    assert 0.0 < state.weights[-1] < 1e-300
