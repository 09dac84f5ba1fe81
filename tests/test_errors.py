"""``errors.require`` and the message of every check that raises through it."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tpm_lab import quantum
from tpm_lab.errors import ValidationError, require
from tpm_lab.linalg import hermitian_eig
from tpm_lab.quantum import DensityMatrix, KrausChannel, ProjectorFamily
from tpm_lab.tpm import distribution_from_joint, mutual_information_table


@pytest.mark.parametrize("value, bound, message", [
    (1.0, 1.0, None),
    (-math.inf, 0.0, None),
    (2.0, 1.0, "2.0 > 1.0 (x)"),
    (math.inf, 1.0, "inf > 1.0 (x)"),
    (math.nan, 1.0, "nan > 1.0 (x)"),
    (1.0, math.nan, "1.0 > nan (x)"),
], ids=["equal", "below", "above", "inf", "nan-value", "nan-bound"])
def test_require_fails_unless_value_is_within_bound(value, bound, message):
    if message is None:
        # A passing check never formats its message, so a template naming
        # a field nobody passes raises nothing.
        require("name", value, bound, "{unpassed}")
        return
    with pytest.raises(ValidationError) as err:
        require("name", value, bound, "{value} > {bound} ({field})",
                field="x")
    assert str(err.value) == message
    assert err.value.invariant == "name"
    assert err.value.residual is value


def _bookkeeping_defect(monkeypatch):
    jd = distribution_from_joint([[0.5, 0.0], [0.0, 0.5]])
    mutual_information_table(jd._replace(support_defect=0.25))


def _non_integer_rank(monkeypatch):
    # An idempotency residual within PROJECTOR_TOL leaves every trace
    # within RANK_TOL of an integer, so only a zero RANK_TOL reaches the
    # message.
    monkeypatch.setattr(quantum, "RANK_TOL", 0.0)
    ProjectorFamily(basis=[[1 + 1e-12]], groups=[0])


P1 = [[0.0, 0.0], [0.0, 1.0]]

# One input per invariant check that raises through ``require``, with the
# message and residual it raised before ``require`` existed.
PINNED = [
    ("hermitian_eig", lambda mp: hermitian_eig([[0.0, 1.0], [0.0, 0.0]]),
     "hermiticity",
     "matrix is not Hermitian: ‖A − A†‖_F = 1.414e+00, bound 1.000e-10",
     1.4142135623730951),
    ("state-hermiticity",
     lambda mp: DensityMatrix([[0.5, 0.5], [0.0, 0.5]]), "hermiticity",
     "state is not Hermitian: ‖ρ − ρ†‖_F = 7.071e-01 > 1.0e-10",
     0.7071067811865476),
    ("state-unit_trace",
     lambda mp: DensityMatrix([[0.9, 0.0], [0.0, 0.3]]), "unit_trace",
     "state trace is 1.2+0j, not 1: residual 2.000e-01 > 1.0e-10",
     0.19999999999999996),
    ("state-positive_semidefinite",
     lambda mp: DensityMatrix([[1.5, 0.0], [0.0, -0.5]]),
     "positive_semidefinite",
     "state is not positive semidefinite: min eigenvalue -5.000e-01 "
     "< -1.0e-10", 0.5),
    ("dense-hermiticity",
     lambda mp: ProjectorFamily([[[1.0, 1.0], [0.0, 0.0]], P1]),
     "hermiticity",
     "projector 0 is not Hermitian: residual 1.414e+00 > 1.0e-10",
     1.4142135623730951),
    ("dense-idempotency",
     lambda mp: ProjectorFamily([[[2.0, 0.0], [0.0, 0.0]], P1]),
     "idempotency",
     "projector 0 is not idempotent: ‖P² − P‖_F = 2.000e+00 > 1.0e-10",
     2.0),
    ("family-idempotency",
     lambda mp: ProjectorFamily(basis=[[1.0, 0.0], [0.0, 3.0]],
                                groups=[0, 1]),
     "idempotency",
     "projector 1 is not idempotent: ‖P² − P‖_F = 7.200e+01 > 1.0e-10",
     72.0),
    ("family-orthogonality",
     lambda mp: ProjectorFamily(
         basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.6], [0.0, 0.0, 0.8]],
         groups=[0, 1, 2]),
     "orthogonality",
     "projectors 1 and 2 are not orthogonal: ‖P_a P_b‖_F = 6.000e-01 "
     "> 1.0e-10", 0.6),
    ("family-completeness",
     lambda mp: ProjectorFamily(basis=[[1.0], [0.0]], groups=[0]),
     "completeness",
     "projector family is not complete: ‖ΣP − I‖_F = 1.000e+00 > 1.0e-10",
     1.0),
    ("family-integer_rank", _non_integer_rank, "integer_rank",
     "projector 0 has non-integer trace 1.0000000000020002",
     2.000177801164682e-12),
    ("kraus-replacement_weight",
     lambda mp: KrausChannel([np.eye(2)], replacement=1.5),
     "replacement_weight",
     "replacement weight must be finite and in [0, 1], got 1.5", 0.5),
    ("kraus-completeness", lambda mp: KrausChannel([2 * np.eye(2)]),
     "completeness",
     "Kraus operators do not preserve trace: ‖ΣΛ†Λ + rI − I‖_F = 4.243e+00 "
     "> 1.0e-08", 4.242640687119285),
    ("normalization",
     lambda mp: distribution_from_joint([[0.25, 0.25], [0.25, 0.0]]),
     "normalization", "joint table sums to 0.75, not 1", 0.25),
    ("bookkeeping", _bookkeeping_defect, "bookkeeping",
     "bookkeeping identity violated: exp_average + support_defect deviates "
     "from 1 by 2.500e-01", 0.25),
]


@pytest.mark.parametrize("build, invariant, message, residual",
                         [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_each_invariant_check_keeps_its_message_and_residual(
        monkeypatch, build, invariant, message, residual):
    with pytest.raises(ValidationError) as err:
        build(monkeypatch)
    assert (err.value.invariant, str(err.value)) == (invariant, message)
    assert type(err.value.residual) is float
    assert err.value.residual == residual
