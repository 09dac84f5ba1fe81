"""``errors.Check`` and ``errors.require``, and the message, residual and
check of every invariant a ``ValidationError`` names."""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from test_cli import RATIO_UNDERFLOW_RAW
from tpm_lab import cli, quantum, tpm
from tpm_lab.errors import Check, ValidationError, require
from tpm_lab.linalg import hermitian_eig
from tpm_lab.quantum import DensityMatrix, KrausChannel, ProjectorFamily
from tpm_lab.scenarios import scenario_from_dict
from tpm_lab.tpm import (
    distribution_from_joint,
    mutual_information_table,
    work_statistics,
)

SOURCE_DIR = Path(tpm.__file__).resolve().parent


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
    assert err.value.check == ("name", value, bound) or math.isnan(value)
    assert err.value.check.passed is False


@pytest.mark.parametrize("value, bound, passed, margin", [
    (1.0, 1.0, True, 0.0),
    (0.25, 1.0, True, 0.75),
    (2.0, 1.0, False, -1.0),
    (math.inf, 1.0, False, -math.inf),
    (math.nan, 1.0, False, math.nan),
    (1.0, math.nan, False, math.nan),
])
def test_check_passes_when_value_is_within_bound(value, bound, passed,
                                                 margin):
    check = Check("name", value, bound)
    assert check.passed is passed
    assert check.margin == margin or math.isnan(margin)
    assert math.isnan(check.margin) == math.isnan(margin)
    if passed:
        assert require("name", value, bound, "{unpassed}") == check


def _bookkeeping_defect(monkeypatch):
    jd = distribution_from_joint([[0.5, 0.0], [0.0, 0.5]])
    mutual_information_table(jd._replace(support_defect=0.25))


def _jensen_defect(monkeypatch):
    # The log-sum bound holds for any positive table, so only a negative
    # JENSEN_TOL reaches the message.
    monkeypatch.setattr(tpm, "JENSEN_TOL", -1.0)
    mutual_information_table(
        distribution_from_joint([[0.5, 0.0], [0.0, 0.5]]))


def _unrepresentable_ratio(monkeypatch):
    monkeypatch.setattr(cli, "load_scenario",
                        lambda path: scenario_from_dict(RATIO_UNDERFLOW_RAW))
    cli._dispatch(cli._PARSER.parse_args(["jarzynski", "--config", "-"]))


def _work(first: float, z: float, z_prime: float):
    jd = distribution_from_joint([[1.0]])
    return lambda mp: work_statistics(jd, [first], [0.0], 1.0, z, z_prime)


def _non_integer_rank(monkeypatch):
    # An idempotency residual within PROJECTOR_TOL leaves every trace
    # within RANK_TOL of an integer, so only a zero RANK_TOL reaches the
    # message.
    monkeypatch.setattr(quantum, "RANK_TOL", 0.0)
    ProjectorFamily(basis=[[1 + 1e-12]], groups=[0])


P1 = [[0.0, 0.0], [0.0, 1.0]]

# One input per invariant a ValidationError names, with its message, its
# residual and the bound of the check it carries: the message and
# residual each raised before ``require`` existed. An error without a
# residual carries no check (bound None).
PINNED = [
    ("hermitian_eig", lambda mp: hermitian_eig([[0.0, 1.0], [0.0, 0.0]]),
     "hermiticity",
     "matrix is not Hermitian: ‖A − A†‖_F = 1.414e+00, bound 1.000e-10",
     1.4142135623730951, 1e-10),
    ("state-hermiticity",
     lambda mp: DensityMatrix([[0.5, 0.5], [0.0, 0.5]]), "hermiticity",
     "state is not Hermitian: ‖ρ − ρ†‖_F = 7.071e-01 > 1.0e-10",
     0.7071067811865476, 1e-10),
    ("state-unit_trace",
     lambda mp: DensityMatrix([[0.9, 0.0], [0.0, 0.3]]), "unit_trace",
     "state trace is 1.2+0j, not 1: residual 2.000e-01 > 1.0e-10",
     0.19999999999999996, 1e-10),
    ("state-positive_semidefinite",
     lambda mp: DensityMatrix([[1.5, 0.0], [0.0, -0.5]]),
     "positive_semidefinite",
     "state is not positive semidefinite: min eigenvalue -5.000e-01 "
     "< -1.0e-10", 0.5, 1e-10),
    ("dense-hermiticity",
     lambda mp: ProjectorFamily([[[1.0, 1.0], [0.0, 0.0]], P1]),
     "hermiticity",
     "projector 0 is not Hermitian: residual 1.414e+00 > 1.0e-10",
     1.4142135623730951, 1e-10),
    ("dense-idempotency",
     lambda mp: ProjectorFamily([[[2.0, 0.0], [0.0, 0.0]], P1]),
     "idempotency",
     "projector 0 is not idempotent: ‖P² − P‖_F = 2.000e+00 > 1.0e-10",
     2.0, 1e-10),
    ("family-idempotency",
     lambda mp: ProjectorFamily(basis=[[1.0, 0.0], [0.0, 3.0]],
                                groups=[0, 1]),
     "idempotency",
     "projector 1 is not idempotent: ‖P² − P‖_F = 7.200e+01 > 1.0e-10",
     72.0, 1e-10),
    ("family-orthogonality",
     lambda mp: ProjectorFamily(
         basis=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.6], [0.0, 0.0, 0.8]],
         groups=[0, 1, 2]),
     "orthogonality",
     "projectors 1 and 2 are not orthogonal: ‖P_a P_b‖_F = 6.000e-01 "
     "> 1.0e-10", 0.6, 1e-10),
    ("family-completeness",
     lambda mp: ProjectorFamily(basis=[[1.0], [0.0]], groups=[0]),
     "completeness",
     "projector family is not complete: ‖ΣP − I‖_F = 1.000e+00 > 1.0e-10",
     1.0, 1e-10),
    ("family-integer_rank", _non_integer_rank, "integer_rank",
     "projector 0 has non-integer trace 1.0000000000020002",
     2.000177801164682e-12, 0.0),
    ("kraus-replacement_weight",
     lambda mp: KrausChannel([np.eye(2)], replacement=1.5),
     "replacement_weight",
     "replacement weight must be finite and in [0, 1], got 1.5", 0.5, 0.0),
    ("kraus-completeness", lambda mp: KrausChannel([2 * np.eye(2)]),
     "completeness",
     "Kraus operators do not preserve trace: ‖ΣΛ†Λ + rI − I‖_F = 4.243e+00 "
     "> 1.0e-08", 4.242640687119285, 1e-8),
    ("normalization",
     lambda mp: distribution_from_joint([[0.25, 0.25], [0.25, 0.0]]),
     "normalization", "joint table sums to 0.75, not 1", 0.25, 1e-10),
    ("bookkeeping", _bookkeeping_defect, "bookkeeping",
     "bookkeeping identity violated: exp_average + support_defect deviates "
     "from 1 by 2.500e-01", 0.25, 1e-10),
    ("finite_norm",
     lambda mp: hermitian_eig([[-1e308, 0.0], [0.0, 1e308]]), "finite_norm",
     "matrix norm overflows: ‖A‖_F = inf, bound 1.798e+308", math.inf,
     sys.float_info.max),
    # Two checks keep their own comparison and attach a Check to the error.
    ("probability_bounds",
     lambda mp: distribution_from_joint([[1.5, -0.5]]), "probability_bounds",
     "probabilities out of bounds: min -5.000e-01, max 1.500e+00", 0.5,
     1e-12),
    ("jensen", _jensen_defect, "jensen",
     "average mutual information 0.6931471805599453 is below its log-sum "
     "bound 0.6931471805599453", 0.0, -1.0),
    ("matrix_shape", lambda mp: hermitian_eig([1.0, 2.0]), "matrix_shape",
     "expected a 2-d matrix, got shape (2,)", None, None),
    ("square", lambda mp: hermitian_eig([[1.0, 2.0]]), "square",
     "expected a square matrix, got shape (1, 2)", None, None),
    ("matrix-finite_entries", lambda mp: hermitian_eig([[math.nan]]),
     "finite_entries", "matrix contains non-finite entries", None, None),
    ("joint-finite_entries",
     lambda mp: distribution_from_joint([[math.inf]]), "finite_entries",
     "joint table contains non-finite entries", None, None),
    ("kraus-nonempty", lambda mp: KrausChannel([]), "nonempty",
     "channel has no Kraus operators", None, None),
    ("family-nonempty", lambda mp: ProjectorFamily([]), "nonempty",
     "projector family is empty", None, None),
    ("empty_support",
     lambda mp: distribution_from_joint([[1.0]], support_epsilon=1.0),
     "empty_support",
     "no outcome pair has probability above support epsilon 1.0", None,
     None),
    ("finite_lhs", _work(1000.0, 1.0, 1.0), "finite_lhs",
     "exponential work average overflowed", None, None),
    ("finite_rhs", _work(0.0, 1e-300, 1e300), "finite_rhs",
     "Z'/Z = 1e+300/1e-300 overflowed", None, None),
    ("representable_rhs", _unrepresentable_ratio, "representable_rhs",
     "Z'/Z = 0.0 is not a positive finite double; the relative Jarzynski "
     "check cannot be formed", None, None),
]


@pytest.mark.parametrize("build, invariant, message, residual, bound",
                         [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_each_invariant_check_keeps_its_message_and_residual(
        monkeypatch, build, invariant, message, residual, bound):
    with pytest.raises(ValidationError) as err:
        build(monkeypatch)
    assert (err.value.invariant, str(err.value)) == (invariant, message)
    check = err.value.check
    if bound is None:
        assert (check, err.value.residual) == (None, None)
        return
    assert type(err.value.residual) is float
    assert err.value.residual == residual
    assert type(check) is Check
    assert check == (invariant, residual, bound)
    assert check.passed is False
    # A NaN value fails the same check, and so does a NaN bound.
    assert check._replace(value=math.nan).passed is False
    assert check._replace(bound=math.nan).passed is False
    with pytest.raises(ValidationError) as nan_err:
        require(invariant, math.nan, bound, "{value} > {bound}")
    assert str(nan_err.value) == f"nan > {bound}"
    assert nan_err.value.invariant == invariant
    assert math.isnan(nan_err.value.residual)
    assert nan_err.value.check.passed is False


def test_every_invariant_in_the_package_has_a_row():
    # Every name an error can carry: ``invariant="…"``, ``require("…"``
    # and a ``check=Check("…"`` attached by a check that keeps its own
    # comparison.
    names = set()
    for path in SOURCE_DIR.glob("*.py"):
        names.update(re.findall(
            r'(?:invariant=|require\(\s*|check=Check\(\s*)"(\w+)"',
            path.read_text(encoding="utf-8")))
    assert names == {case[2] for case in PINNED}
