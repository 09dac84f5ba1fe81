"""Bit-identity oracles for the primitives on the build → tables → row path.

Each rewritten primitive is compared, bit for bit, with the plain numpy
formula it replaced: ``np.linalg.norm``, the generator sums of the Kraus
residuals, the ``np.diff``/``concatenate`` outcome groups, the dense
``np.array_equal`` order test, and a report row read off full MI, work
and dissipation tables.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import weyl_depolarizing
from test_cli import SWEEP_ORACLE_CASES, sweep_base
from tpm_lab import cli, quantum
from tpm_lab.errors import ConfigError, ValidationError
from tpm_lab.linalg import frobenius, haar_random_unitary, random_hermitian
from tpm_lab.quantum import (
    KrausChannel,
    ProjectorFamily,
    eigen_measurement,
    hermitian_eig,
    standard_channel,
)
from tpm_lab.scenarios import build_scenario, sweep_configs
from tpm_lab.tpm import (
    compare_mi_to_dissipation,
    distribution_from_joint,
    joint_distribution,
    mutual_information_table,
    work_statistics,
)


def same(a: float, b: float) -> bool:
    """Equal as doubles, sign of zero included; NaN matches NaN."""
    return math.isnan(a) and math.isnan(b) or (
        a == b and math.copysign(1.0, a) == math.copysign(1.0, b))


def same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def norm_inputs():
    """Real and complex arrays in C and F order, transposed and strided,
    with NaN, ±inf and overflowing entries."""
    rng = np.random.default_rng(11)
    for shape in [(1,), (7,), (1, 1), (2, 3), (5, 5), (9, 4), (64, 64),
                  (3, 4, 5)]:
        real = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30)
        for a in (real, real + 1j * rng.standard_normal(shape)):
            for bad in (None, np.nan, np.inf, -np.inf, 1e300):
                b = a.copy()
                if bad is not None:
                    b.flat[b.size // 2] = bad
                yield b
                yield b.T
                yield np.asfortranarray(b)
                yield b[::2]
                yield b[..., ::-1]


def test_frobenius_is_numpys_norm_bit_for_bit():
    checked = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for a in norm_inputs():
            got, want = frobenius(a), float(np.linalg.norm(a))
            assert type(got) is float
            assert same(got, want), (a.shape, a.dtype, a.strides)
            checked += 1
    assert checked == 8 * 2 * 5 * 5


def reference_residuals(ops: np.ndarray, r: float) -> tuple[float, float]:
    """‖ΣΛ†Λ − (1 − r)I‖_F and ‖ΣΛΛ† − (1 − r)I‖_F as generator sums."""
    kept = (1.0 - r) * np.eye(ops.shape[1])
    return (float(np.linalg.norm(sum(op.conj().T @ op for op in ops) - kept)),
            float(np.linalg.norm(sum(op @ op.conj().T for op in ops) - kept)))


def kraus_stacks():
    """(K, d, d) stacks and replacement weights: K = 1, K = 2, K = d + 1
    (dephasing), d² + 1 (Weyl) and non-trace-preserving random ones."""
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3, 8):
        yield np.array([haar_random_unitary(dim, rng)]), 0.0
        yield standard_channel("dephasing", dim, 0.37).kraus_ops, 0.0
        yield standard_channel("depolarizing", dim, 0.37).kraus_ops, 0.37
        yield weyl_depolarizing(dim, 0.2).kraus_ops, 0.0
        for count in (1, 2, dim + 1):
            yield (rng.standard_normal((count, dim, dim))
                   + 1j * rng.standard_normal((count, dim, dim))), 0.0
    yield standard_channel("amplitude_damping", 2, 0.3).kraus_ops, 0.0
    # Signed zeros and exact cancellations.
    yield np.array([[[-0.0, 1.0], [0.0, -0.0]], [[0.0, -0.0], [-0.0, 0.0]]],
                   dtype=complex), 0.0


def test_kraus_residuals_are_the_generator_sums():
    for ops, r in kraus_stacks():
        completeness, unitality = reference_residuals(ops, r)
        assert same(quantum._product_residual(ops, 1.0 - r,
                                              adjoint_first=True),
                    completeness)
        assert same(quantum._product_residual(ops, 1.0 - r,
                                              adjoint_first=False),
                    unitality)
        if completeness <= quantum.COMPLETENESS_TOL:
            channel = KrausChannel(ops.copy(), replacement=r)
            assert same(channel.unitality_residual, unitality)


def reference_family(w: np.ndarray, gap: float | None):
    """Groups, energies and order of the np.diff/concatenate formulas."""
    steps = np.diff(w)
    if gap is None:
        gap = 1e-8 * float(np.linalg.norm(w))
    groups = np.concatenate(([0], np.cumsum(steps > gap))).astype(np.intp)
    energies = tuple(float(e) for e in
                     np.bincount(groups, weights=w) / np.bincount(groups))
    dim = len(w)
    in_order = len(energies) == dim and np.array_equal(groups, range(dim))
    return groups, energies, in_order


def spectra():
    rng = np.random.default_rng(3)
    yield np.array([0.25])
    yield np.array([-0.0, 1.0])
    yield np.array([0.0, 0.0, 1.0])
    yield np.array([-1.0, -1.0, -1.0, 2.0, 2.0])
    yield np.array([1.0, 1.0 + 1e-9, 1.0 + 2e-9, 3.0])
    for dim in (3, 16, 64):
        yield hermitian_eig(random_hermitian(dim, rng))[0]
        levels = np.sort(rng.uniform(-1.0, 1.0, max(1, dim // 4)))
        yield np.sort(np.repeat(levels, 4)[:dim])


@pytest.mark.parametrize("gap", [None, 0.0, 0.5, 1e-8])
def test_eigen_measurement_groups_are_the_diff_concatenate_ones(gap):
    for w in spectra():
        groups, energies, in_order = reference_family(w, gap)
        family = eigen_measurement(w, np.eye(len(w)), gap)
        assert same_array(family.groups, groups)
        assert len(family.energies) == len(energies)
        assert all(map(same, family.energies, energies))
        assert family.in_order == in_order


def test_in_order_is_false_unless_column_k_alone_measures_k():
    dim = 4
    u = haar_random_unitary(dim, np.random.default_rng(2))
    zero = np.zeros((dim, 1))
    cases = [
        (u, np.arange(dim), True),
        (u, np.array([1, 0, 2, 3]), False),
        (u, np.array([0, 0, 1, 2]), False),
        # r = d + 1: a zero column joins the first outcome, so there are d
        # outcomes but r ≠ d columns; or it is a (d + 1)-th, empty outcome.
        (np.hstack([u, zero]), np.append(np.arange(dim), 0), False),
        (np.hstack([u, zero]), np.arange(dim + 1), False),
    ]
    for basis, groups, want in cases:
        family = ProjectorFamily(basis=basis, groups=groups)
        reference = (len(family) == dim
                     and np.array_equal(family.groups, range(dim)))
        assert family.in_order == reference == want
    # A trailing zero projector keeps d + 1 outcomes on d columns.
    family = ProjectorFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                              np.zeros((2, 2))])
    assert (len(family), family.in_order) == (3, False)


def reference_row(built) -> tuple:
    """The joint table, the NaN-filled MI table, the column sums over the
    defined rows, and the report's number columns read off full tables:
    the MI–dissipation gap is taken over the finite MI entries of the
    dense β(W − ΔF)."""
    jd = joint_distribution(built.experiment, built.support_epsilon)
    rows, cols = jd.support_mask.nonzero()
    i_table = np.full(jd.shape, np.nan)
    joint = jd.p_joint[rows, cols]
    cond = joint / jd.p_first[rows]
    marginal = jd.p_second[cols]
    i_table[rows, cols] = np.log(cond) - np.log(marginal)
    exp_average = float((joint * marginal / cond).sum())
    average_mi = float((joint * i_table[rows, cols]).sum())
    beta = built.config.beta
    z, z_prime = (built.first_ensemble.partition_function,
                  built.second_ensemble.partition_function)
    e_first, e_second = (np.asarray(m.energies) for m in (
        built.experiment.first_measurement,
        built.experiment.second_measurement))
    work = e_second[None, :] - e_first[:, None]
    p = jd.p_joint
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = float(np.where(p > 0, p * np.exp(-beta * work), 0.0).sum())
    rhs = float(z_prime / z)
    defined = jd.p_first > jd.support_epsilon
    colsums = (p[defined] / jd.p_first[defined, None]).sum(axis=0)
    delta_f = -(np.log(z_prime) - np.log(z)) / beta
    dissipation = beta * (work - delta_f)
    mask = np.isfinite(i_table)
    gap = float(abs(i_table[mask] - dissipation[mask]).max())
    return (jd, i_table, colsums, exp_average, jd.support_defect, average_mi,
            lhs, rhs, lhs - rhs, float(abs(colsums - 1.0).max()), gap)


@pytest.mark.parametrize("source, parameter, values", SWEEP_ORACLE_CASES,
                         ids=lambda x: x["name"] if isinstance(x, dict)
                         else None)
def test_report_row_is_read_off_the_full_tables(source, parameter, values):
    for variant in sweep_configs(sweep_base(source), parameter, values):
        try:
            built = build_scenario(variant)
        except (ConfigError, ValidationError, OverflowError):
            break
        jd, i_table, colsums, *want = reference_row(built)
        row, _ = cli.run_verify(variant)
        got = (row.exp_avg_mi, row.support_defect, row.avg_mi,
               row.jarzynski_lhs, row.jarzynski_rhs, row.jarzynski_defect,
               row.colsum_max_dev, row.mi_vs_dissipation_gap)
        assert all(map(same, got, want)), variant.name
        # The records hold the same cells, tables and values, and the gap
        # on the support cells is the one over the dense masked tables.
        mi = mutual_information_table(jd)
        ws = work_statistics(jd, *cli._work_inputs(built))
        assert np.array_equal(mi.i_table, i_table, equal_nan=True)
        support = jd.support_mask.nonzero()
        assert all(map(same_array, (mi.rows, mi.cols), support))
        assert same_array(ws.conditional_colsums, colsums)
        assert same(mi.exp_average, row.exp_avg_mi)
        assert same(ws.jarzynski_lhs, row.jarzynski_lhs)
        assert same(compare_mi_to_dissipation(mi, ws), want[-1])


def test_work_statistics_column_sums_skip_undefined_rows():
    # Rows at or below the support epsilon add nothing to a column sum;
    # the others are added in row order, as over the defined rows alone.
    rng = np.random.default_rng(9)
    for epsilon in (0.0, 1e-12, 1e-3):
        for n_out, m_out in ((1, 1), (3, 2), (8, 8), (40, 7)):
            p = rng.dirichlet(np.full(n_out * m_out, 0.3)).reshape(
                n_out, m_out)
            p[1:][rng.random(n_out - 1) < 0.3] = 0.0
            p /= p.sum()
            jd = distribution_from_joint(p, epsilon)
            defined = jd.p_first > epsilon
            want = (jd.p_joint[defined]
                    / jd.p_first[defined, None]).sum(axis=0)
            ws = work_statistics(jd, np.zeros(n_out), np.zeros(m_out),
                                 1.0, 1.0, 1.0)
            assert same_array(ws.conditional_colsums, want)
