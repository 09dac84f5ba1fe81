"""Scenario configs and CLI arguments for each benchmark workload.

Every workload turns a workload seed into a small pool of distinct cases;
the timed loop cycles through the pool. A case is one ``tpm-lab``
invocation: a command, a scenario config (written to a JSON file before
timing) and the remaining command-line arguments. All randomness comes
from the workload seed, so a seed regenerates byte-identical configs.

Why each workload exists, and which layer it stresses, is in README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SAMPLE_COUNT = 1_000_000
SWEEP_POINTS = 64
UNITARY_DIM = 64
KRAUS_DIM = 24
KRAUS_LEVELS = 6  # distinct final energies, each KRAUS_DIM // KRAUS_LEVELS-fold
DEPOLARIZING_P = 0.3
SAMPLE_DIM = 16


@dataclass(frozen=True)
class Case:
    """One CLI invocation: ``tpm-lab <command> --config <file> --<option> ...``.

    ``options`` maps option names to values; a list value becomes one
    argument per element, and floats are written with ``repr`` so the
    CLI parses back exactly the generated value.
    """

    command: str
    config: dict
    options: dict = field(default_factory=dict)

    def config_text(self) -> str:
        return json.dumps(self.config, indent=1, sort_keys=True) + "\n"

    def argv(self, config_path: str, out_path: str) -> list[str]:
        argv = [self.command, "--config", config_path]
        for name, value in self.options.items():
            values = value if isinstance(value, list) else [value]
            argv += [f"--{name}", *(repr(v) if isinstance(v, float) else str(v)
                                   for v in values)]
        return argv + ["--out", out_path]

    def variant(self) -> tuple:
        """What picks the case's code path: the command, the state and
        channel kinds, and the non-numeric options (weight, format, swept
        parameter). Cases of one variant differ only in their numbers."""
        return (self.command, self.config["initial"]["kind"],
                self.config["channel"]["kind"],
                *sorted((name, value) for name, value in self.options.items()
                        if isinstance(value, str)))


def _num(x: float) -> float:
    """Round generated parameters so configs stay short and readable."""
    return round(float(x), 6)


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _random_h(scale: float) -> dict:
    return {"kind": "random", "scale": _num(scale)}


def _diagonal(energies) -> dict:
    return {"kind": "diagonal", "energies": [_num(e) for e in energies]}


def _exact_unitary(rng: np.random.Generator, pool: int) -> list[Case]:
    scale = 1.0 / np.sqrt(UNITARY_DIM)
    return [Case("verify", {
        "name": f"unitary-{i}", "dim": UNITARY_DIM,
        "beta": _num(rng.uniform(0.5, 2.0)), "seed": _seed(rng),
        "initial": {"kind": "gibbs"},
        "first_hamiltonian": _random_h(scale),
        "channel": {"kind": "haar_random"},
        "second_hamiltonian": _random_h(scale),
    }) for i in range(pool)]


def _exact_kraus(rng: np.random.Generator, pool: int) -> list[Case]:
    cases = []
    for i in range(pool):
        levels = np.sort(rng.uniform(0.0, 2.0, KRAUS_LEVELS))
        energies = rng.permutation(
            np.repeat(levels, KRAUS_DIM // KRAUS_LEVELS))
        cases.append(Case("jarzynski", {
            "name": f"kraus-{i}", "dim": KRAUS_DIM,
            "beta": _num(rng.uniform(0.5, 2.0)), "seed": _seed(rng),
            "initial": {"kind": "gibbs"},
            "first_hamiltonian": _random_h(1.0 / np.sqrt(KRAUS_DIM)),
            "channel": {"kind": "depolarizing", "p": DEPOLARIZING_P},
            "second_hamiltonian": _diagonal(energies),
        }))
    return cases


def _sample_mc(rng: np.random.Generator, pool: int) -> list[Case]:
    scale = 1.0 / np.sqrt(SAMPLE_DIM)
    return [Case("sample", {
        "name": f"sample-{i}", "dim": SAMPLE_DIM,
        "beta": _num(rng.uniform(0.5, 2.0)), "seed": _seed(rng),
        "initial": {"kind": "gibbs"},
        "first_hamiltonian": _random_h(scale),
        "channel": {"kind": "haar_random"},
        "second_hamiltonian": _random_h(scale),
    }, {"count": SAMPLE_COUNT, "weight": ("mi", "work")[i % 2]})
        for i in range(pool)]


def _qubit_energies(rng: np.random.Generator) -> dict:
    return _diagonal([0.0, rng.uniform(0.5, 2.0)])


def _sweep_shape(shape: int, rng: np.random.Generator,
                 name: str) -> tuple[dict, str, np.ndarray]:
    """One of the four shipped scenario shapes, with its swept parameter.

    Parameter ranges keep every outcome probability far above the support
    epsilon, so no cell sits on the support boundary, and keep β times the
    spectral spread small enough that the smallest Gibbs weights still
    carry the report values to well within the checks' 1e-10.
    """
    base = {"name": name, "beta": _num(rng.uniform(0.5, 2.0)),
            "seed": _seed(rng)}
    betas = rng.uniform(0.1, 1.5, SWEEP_POINTS)
    if shape == 0:  # amplitude_damping.json: non-unital, swept in gamma
        return ({**base, "dim": 2, "initial": {"kind": "gibbs"},
                 "first_hamiltonian": _qubit_energies(rng),
                 "channel": {"kind": "amplitude_damping",
                             "gamma": _num(rng.uniform(0.01, 0.99))},
                 "second_hamiltonian": _qubit_energies(rng)},
                "channel_param", rng.uniform(0.01, 0.99, SWEEP_POINTS))
    if shape == 1:  # identity_same_basis.json: restricted support
        energies = _qubit_energies(rng)
        return ({**base, "dim": 2, "initial": {"kind": "maximally_mixed"},
                 "first_hamiltonian": energies, "channel": {"kind": "identity"},
                 "second_hamiltonian": energies}, "beta", betas)
    if shape == 2:  # qubit_hadamard.json: an explicit real reflection
        # s is derived from the rounded c, so the operator stays unitary
        # to rounding.
        c = _num(np.cos(rng.uniform(0.2, 1.3)))
        s = float(np.sqrt(1.0 - c * c))
        return ({**base, "dim": 2, "initial": {"kind": "gibbs"},
                 "first_hamiltonian": _qubit_energies(rng),
                 "channel": {"kind": "kraus",
                             "operators": [{"re": [[c, s], [s, -c]]}]},
                 "second_hamiltonian": _qubit_energies(rng)}, "beta", betas)
    # random_full_support.json: random Hamiltonians and a Haar channel
    return ({**base, "dim": 3, "initial": {"kind": "gibbs"},
             "first_hamiltonian": _random_h(1.0),
             "channel": {"kind": "haar_random"},
             "second_hamiltonian": _random_h(1.0)}, "beta", betas)


def _sweep_small(rng: np.random.Generator, pool: int) -> list[Case]:
    cases = []
    for i in range(pool):
        config, param, values = _sweep_shape(i % 4, rng, f"sweep-{i}")
        cases.append(Case("sweep", config, {
            "param": param, "values": [_num(v) for v in values],
            "seed": _seed(rng), "format": ("csv", "json")[(i // 4) % 2]}))
    return cases


# name → (case generator, pool size). Pools are large enough that a run
# sees several distinct configs, and small enough that the reference
# values for all of them cost far less than the timed loop.
WORKLOADS = {
    "exact-unitary": (_exact_unitary, 8),
    "exact-kraus": (_exact_kraus, 8),
    "sample-mc": (_sample_mc, 4),
    "sweep-small": (_sweep_small, 8),
}


def make_cases(workload: str, seed: int) -> list[Case]:
    """The case pool of a workload; identical for identical seeds.

    Any integer is a valid seed; negative ones wrap to 64 bits.
    """
    generate, pool = WORKLOADS[workload]
    return generate(np.random.default_rng(seed % 2**64), pool)


def input_sizes(workload: str) -> dict:
    """Input sizes recorded in the run metadata."""
    if workload == "exact-unitary":
        return {"d": UNITARY_DIM, "K": 1, "N": UNITARY_DIM, "M": UNITARY_DIM}
    if workload == "exact-kraus":
        return {"d": KRAUS_DIM, "K": 1 + KRAUS_DIM**2, "N": KRAUS_DIM,
                "M": KRAUS_LEVELS}
    if workload == "sample-mc":
        return {"d": SAMPLE_DIM, "K": 1, "N": SAMPLE_DIM, "M": SAMPLE_DIM,
                "samples": SAMPLE_COUNT}
    return {"d": [2, 3], "K": [1, 2], "N": [2, 3], "M": [2, 3],
            "sweep_points": SWEEP_POINTS}
