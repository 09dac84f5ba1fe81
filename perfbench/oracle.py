"""Independent reference values for the benchmark's output checks.

The expected report of every case is recomputed here without calling
``tpm_lab``: the same documented seed derivation and random-matrix
recipes build the Hamiltonians and channels, and the joint table comes
from a closed form in the two eigenbases,

    p(n, m) = Σ_{k∈n} Σ_{l∈m} g_k · Σ_i |⟨w_l|Λ_i|v_k⟩|²,

which holds because every generated initial state is diagonal in the
first measurement's eigenbasis (populations g_k). A depolarizing channel
uses its closed form (1−p)|⟨w_l|v_k⟩|² + p/d instead of its d²+1 Kraus
operators. These are the report values of the commit that defined the
benchmark, to within the comparison tolerance.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

SUPPORT_EPSILON = 1e-12  # the CLI default; no generated config overrides it
# A numeric field differing by more than this (relative above 1) fails its
# case. It is the CLI's own verify tolerance, so no verdict can flip inside
# it.
TOLERANCE = 1e-10
ROLE_FIRST_HAMILTONIAN, ROLE_SECOND_HAMILTONIAN, ROLE_CHANNEL = 0, 1, 2
ROLE_SAMPLER, ROLE_SWEEP = 3, 4
ROW_FIELDS = ("dim", "beta", "exp_avg_mi", "support_defect", "avg_mi",
              "jarzynski_lhs", "jarzynski_rhs", "jarzynski_defect",
              "unitality_residual", "colsum_max_dev",
              "factorization_residual", "mi_vs_dissipation_gap")
SAMPLE_FIELDS = ("sample_count", "mean", "std_error", "exact_value",
                 "z_score")


def derive_seed(base_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _ginibre(seed: int, role: int, dim: int) -> np.ndarray:
    rng = np.random.default_rng(derive_seed(seed, role))
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _hamiltonian(spec: dict, dim: int, seed: int, role: int) -> np.ndarray:
    if spec["kind"] == "diagonal":
        return np.diag(np.array(spec["energies"], dtype=float)).astype(complex)
    g = _ginibre(seed, role, dim)
    return spec.get("scale", 1.0) * (g + g.conj().T) / 2


def _kraus_ops(spec: dict, dim: int, seed: int) -> list[np.ndarray]:
    kind = spec["kind"]
    if kind == "identity":
        return [np.eye(dim)]
    if kind == "haar_random":
        q, r = np.linalg.qr(_ginibre(seed, ROLE_CHANNEL, dim) / np.sqrt(2.0))
        d = np.diagonal(r)
        return [q * (d / np.abs(d))]
    if kind == "amplitude_damping":
        gamma = spec["gamma"]
        return [np.array([[1.0, 0.0], [0.0, np.sqrt(1 - gamma)]]),
                np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])]
    if kind == "kraus":
        return [np.array(op["re"], dtype=float) for op in spec["operators"]]
    raise ValueError(f"no reference for channel kind {kind!r}")


def _outcomes(h: np.ndarray):
    """Eigenvalues, eigenvectors, eigenvector → outcome indicator, energies.

    Sorted eigenvalues closer than 1e-8·‖H‖_F share one outcome, whose
    energy is their mean.
    """
    w, v = np.linalg.eigh(h)
    new_group = np.concatenate([[True], np.diff(w) > 1e-8 * np.linalg.norm(h)])
    group = np.cumsum(new_group) - 1
    indicator = np.zeros((len(w), group[-1] + 1))
    indicator[np.arange(len(w)), group] = 1.0
    return w, v, indicator, (w @ indicator) / indicator.sum(axis=0)


def tables(config: dict) -> dict:
    """Joint table, MI and work tables, and every report value of a config."""
    dim, beta, seed = config["dim"], config["beta"], config.get("seed", 0)
    w1, v1, ind1, e1 = _outcomes(_hamiltonian(
        config["first_hamiltonian"], dim, seed, ROLE_FIRST_HAMILTONIAN))
    w2, v2, ind2, e2 = _outcomes(_hamiltonian(
        config["second_hamiltonian"], dim, seed, ROLE_SECOND_HAMILTONIAN))
    if config["initial"]["kind"] == "gibbs":
        g = np.exp(-beta * (w1 - w1[0]))
        g /= g.sum()
    else:  # maximally_mixed
        g = np.full(dim, 1.0 / dim)

    channel = config["channel"]
    if channel["kind"] == "depolarizing":
        p_dep = channel["p"]
        trans = (1 - p_dep) * np.abs(v2.conj().T @ v1) ** 2 + p_dep / dim
        unitality = 0.0
    else:
        ops = _kraus_ops(channel, dim, seed)
        trans = sum(np.abs(v2.conj().T @ op @ v1) ** 2 for op in ops)
        unitality = float(np.linalg.norm(
            sum(op @ op.conj().T for op in ops) - np.eye(dim)))
    # trans[l, k]: weight of first eigenvector k → second eigenvector l.
    p = ind1.T @ (g[:, None] * trans.T) @ ind2
    p_factorized = (ind1.T @ trans.T @ ind2) * (ind1.T @ g)[:, None]

    p_first, p_second = p.sum(axis=1), p.sum(axis=0)
    support = p > SUPPORT_EPSILON
    defined = p_first > SUPPORT_EPSILON
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = np.where(defined[:, None], p / p_first[:, None], np.nan)
        mi = np.where(support, np.log(cond) - np.log(p_second), np.nan)
    product_mass = float(np.sum((p_first[:, None] * p_second)[support]))

    log_z1 = math.log(np.sum(np.exp(-beta * w1)))
    log_z2 = math.log(np.sum(np.exp(-beta * w2)))
    work = e2[None, :] - e1[:, None]
    lhs = float(np.sum((p * np.exp(-beta * work))[p > 0]))
    rhs = math.exp(log_z2 - log_z1)
    dissipation = beta * (work + (log_z2 - log_z1) / beta)
    colsums = cond[defined].sum(axis=0)
    row = {
        "dim": dim, "beta": beta,
        "exp_avg_mi": product_mass, "support_defect": 1.0 - product_mass,
        "avg_mi": float(np.sum((p * mi)[support])),
        "jarzynski_lhs": lhs, "jarzynski_rhs": rhs,
        "jarzynski_defect": lhs - rhs,
        "unitality_residual": unitality,
        "colsum_max_dev": float(np.max(np.abs(colsums - 1.0))),
        "factorization_residual": float(np.max(np.abs(p - p_factorized))),
        "mi_vs_dissipation_gap": float(np.max(np.abs(mi - dissipation)[support])),
    }
    return {"p": p, "support": support, "mi": mi, "work": work, "row": row}


def _sweep_rows(config: dict, options: dict) -> list[dict]:
    seed = options.get("seed", config.get("seed", 0))
    rows = []
    for k, value in enumerate(options["values"]):
        variant = dict(config, seed=derive_seed(seed, ROLE_SWEEP, k))
        if options["param"] == "beta":
            variant["beta"] = value
        else:  # channel_param; amplitude damping is the only swept channel
            variant["channel"] = dict(config["channel"], gamma=value)
        rows.append(tables(variant)["row"])
    return rows


def _sample_estimate(config: dict, count: int, weight: str) -> dict:
    """Replays the inverse-CDF draw of ``tpm-lab sample`` on the reference table."""
    t = tables(config)
    p = np.where(t["support"], t["p"], 0.0)
    rng = np.random.default_rng(derive_seed(config.get("seed", 0),
                                            ROLE_SAMPLER))
    row_mass = p.sum(axis=1)
    first_cdf = np.cumsum(row_mass) / float(row_mass.sum())
    ns = np.minimum(np.searchsorted(first_cdf, rng.random(count), side="right"),
                    p.shape[0] - 1)
    row_cdfs = np.cumsum(p, axis=1)
    totals = row_cdfs[:, -1].copy()
    totals[totals <= 0] = 1.0
    row_cdfs /= totals[:, None]
    u = rng.random(count)
    ms = np.empty(count, dtype=np.intp)
    for n in range(p.shape[0]):
        rows = ns == n
        ms[rows] = np.searchsorted(row_cdfs[n], u[rows], side="right")
    ms = np.minimum(ms, p.shape[1] - 1)

    if weight == "mi":
        exponents, exact = t["mi"][ns, ms], t["row"]["exp_avg_mi"]
    else:
        exponents, exact = config["beta"] * t["work"][ns, ms], t["row"]["jarzynski_lhs"]
    values = np.exp(-exponents)
    mean = float(values.mean())
    # The delete-one jackknife error of a sample mean is exactly s/√n.
    std_error = float(values.std(ddof=1) / math.sqrt(count))
    return {"sample_count": count, "mean": mean, "std_error": std_error,
            "exact_value": exact, "z_score": (mean - exact) / std_error}


def expected(case) -> list[dict] | dict:
    """Reference report of a case: a list of rows, or a sample estimate."""
    if case.command == "sample":
        return _sample_estimate(case.config, case.options["count"],
                                case.options["weight"])
    if case.command == "sweep":
        return _sweep_rows(case.config, case.options)
    return [tables(case.config)["row"]]


def _differs(got, want) -> bool:
    if got is None or want is None:
        return got is not want
    try:
        got = float(got)
    except (TypeError, ValueError):
        return True
    if not (math.isfinite(got) and math.isfinite(want)):
        # Comparisons with NaN are false, so the tolerance test below
        # would pass it; a NaN on either side always differs.
        return not got == want
    return abs(got - want) > TOLERANCE * max(1.0, abs(want))


def mismatches(case, report: str, want) -> list[str]:
    """Fields of a CLI report that disagree with the reference ``want``."""
    if case.command == "sample":
        got = json.loads(report)
        return [f"{name}: got {got.get(name)!r}, want {want[name]!r}"
                for name in SAMPLE_FIELDS if _differs(got.get(name), want[name])]
    if case.options.get("format", "csv") == "json":
        rows = json.loads(report)
    else:
        rows = list(csv.DictReader(io.StringIO(report)))
    if len(rows) != len(want):
        return [f"{len(rows)} report rows, want {len(want)}"]
    return [f"row {k} {name}: got {got.get(name)!r}, want {ref[name]!r}"
            for k, (got, ref) in enumerate(zip(rows, want))
            for name in ROW_FIELDS if _differs(got.get(name), ref[name])]
