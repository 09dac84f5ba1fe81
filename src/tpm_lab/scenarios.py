"""Declarative scenario configs: JSON schema, validation, experiment building.

A scenario file describes one TPM experiment: dimension, inverse
temperature, initial state, the two Hamiltonians, the channel, and the two
measurements. Complex matrices are serialized as separate ``re`` and
``im`` row-major arrays of arrays; ``im`` may be omitted for real
matrices.

All randomness (random Hamiltonians, Haar channels, sampling) is derived
from the scenario's 64-bit ``seed`` mixed with a fixed role index, so a
config plus a seed pins every number in the run.
"""

from __future__ import annotations

import json
import math
import sys
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple, get_type_hints

import numpy as np

from .errors import ConfigError
from .quantum import (
    DensityMatrix,
    GibbsEnsemble,
    KrausChannel,
    ProjectorFamily,
    channel_from_unitary,
    eigen_measurement,
    gibbs_ensemble,
    maximally_mixed,
    standard_channel,
    unitary_from_hamiltonian,
)
from .linalg import haar_random_unitary, random_hermitian
from .tpm import DEFAULT_SUPPORT_EPSILON, TpmExperiment

__all__ = [
    "ScenarioConfig",
    "BuiltScenario",
    "load_scenario",
    "scenario_from_dict",
    "build_scenario",
    "derive_seed",
    "MAX_DIM",
]

# Fixed role indices mixed into the seed so each random ingredient gets an
# independent, reproducible stream.
ROLE_FIRST_HAMILTONIAN = 0
ROLE_SECOND_HAMILTONIAN = 1
ROLE_CHANNEL = 2
ROLE_SAMPLER = 3
ROLE_SWEEP = 4

_CHANNEL_PARAM_KEYS = {
    "dephasing": "p",
    "depolarizing": "p",
    "amplitude_damping": "gamma",
    "unitary_from_hamiltonian": "time",
}
# The largest dimension whose d×d complex128 matrices are addressable.
MAX_DIM = math.isqrt(np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize)
# Range (interval notation) and integrality of each top-level number;
# sweeps re-read beta and dim through the same rules.
_TOP_LEVEL_NUMBERS = {"dim": (f"[1, {MAX_DIM}]", True),
                      "beta": ("(0, inf)", False),
                      "seed": ("[0, inf)", True)}


@cache
def _bounds(interval: str) -> tuple:
    """The ends of ``interval``, each an int if written as one, and
    whether each is closed; parsed once per distinct interval text, of
    which the package writes a fixed few."""
    lo, hi = (int(end) if end.strip().lstrip("-").isdigit() else float(end)
              for end in interval[1:-1].split(","))
    return lo, hi, interval[0] == "[", interval[-1] == "]"


def _number(value, field: str, interval: str = "(-inf, inf)",
            integer: bool = False):
    """The float (or, if ``integer``, whole-valued int) ``value``, or a
    ConfigError naming ``field`` for a non-number, bool or null, or a value
    outside ``interval``, e.g. "[0, 1)". Infinite ends are written open, so
    NaN and ±inf never pass, nor does an integer beyond double range
    where a float is asked for. Integer ends compare exactly, also
    beyond 2⁵³."""
    lo, hi, lo_closed, hi_closed = _bounds(interval)
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (integer or abs(value) <= sys.float_info.max)
            and (lo < value or (lo_closed and value == lo))
            and (value < hi or (hi_closed and value == hi))
            and not (integer and value % 1)):
        return int(value) if integer else float(value)
    raise ConfigError(
        f"{field!r} must be {'an integer' if integer else 'a number'} in "
        f"{interval}, got {value!r}", field=field)


def derive_seed(base_seed: int, *key: int) -> int:
    """Mix a base seed with integer role/indices into a fresh 64-bit seed."""
    ss = np.random.SeedSequence(entropy=int(base_seed),
                                spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


class ScenarioConfig(NamedTuple):
    """Validated scenario description (specs still in raw dict form), an
    immutable ``NamedTuple``: derive a variant with ``_replace``.

    Its ``_fields`` are the config schema: a field without a default is
    required, and a ``dict`` field is a spec that must be a JSON object.
    The default specs are read-only mappings, so no config can change
    another's.
    """

    name: str
    dim: int
    beta: float
    initial: dict
    first_hamiltonian: dict
    channel: dict
    second_hamiltonian: dict
    first_measurement: dict = MappingProxyType({"kind": "eigenbasis"})
    second_measurement: dict = MappingProxyType({"kind": "eigenbasis"})
    tolerances: dict = MappingProxyType({})
    seed: int = 0


# The spec fields of the schema, the ones annotated ``dict``.
_SPEC_FIELDS = tuple(name for name, kind
                     in get_type_hints(ScenarioConfig).items() if kind is dict)


class BuiltScenario(NamedTuple):
    """A ScenarioConfig turned into live objects, ready to evaluate, as an
    immutable ``NamedTuple``."""

    config: ScenarioConfig
    experiment: TpmExperiment
    first_ensemble: GibbsEnsemble
    second_ensemble: GibbsEnsemble
    support_epsilon: float


def load_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:  # an integer literal over the digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(raw, source=str(path))


def scenario_from_dict(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate a raw config dict into a :class:`ScenarioConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    schema = ScenarioConfig._fields
    for name in schema:
        if name not in raw and name not in ScenarioConfig._field_defaults:
            raise ConfigError(f"{source}: missing required field {name!r}",
                              field=name)
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(
            f"{source}: unknown fields {sorted(unknown)}",
            field=sorted(unknown)[0])

    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{source}: 'name' must be a nonempty string",
                          field="name")
    numbers = {key: _number(raw[key], key, *rule)
               for key, rule in _TOP_LEVEL_NUMBERS.items() if key in raw}
    specs = {name: raw[name] for name in _SPEC_FIELDS if name in raw}
    for spec_name, spec in specs.items():
        if not isinstance(spec, dict):
            raise ConfigError(f"{source}: {spec_name!r} must be an object",
                              field=spec_name)
    unknown_tol = set(specs.get("tolerances", {})) - {"support_epsilon"}
    if unknown_tol:
        raise ConfigError(
            f"{source}: unknown tolerance overrides {sorted(unknown_tol)}",
            field="tolerances")
    return ScenarioConfig(name=name, **numbers,
                          **{key: dict(spec) for key, spec in specs.items()})


def _parse_matrix(spec, dim: int, field_name: str) -> np.ndarray:
    if not isinstance(spec, dict) or "re" not in spec:
        raise ConfigError(
            f"matrix spec for {field_name!r} must be an object with 're' "
            "(and optionally 'im') arrays", field=field_name)
    try:
        re_part = np.array(spec["re"], dtype=float)
        im_part = (np.array(spec["im"], dtype=float) if "im" in spec
                   else np.zeros_like(re_part))
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"matrix entries for {field_name!r} are not numeric: {exc}",
            field=field_name) from exc
    if re_part.shape != (dim, dim) or im_part.shape != (dim, dim):
        raise ConfigError(
            f"matrix for {field_name!r} must be {dim}x{dim}, got "
            f"re {re_part.shape}, im {im_part.shape}", field=field_name)
    return re_part + 1j * im_part


def _kind_of(spec: dict, field_name: str, allowed: tuple[str, ...]) -> str:
    kind = spec.get("kind")
    if kind not in allowed:
        raise ConfigError(
            f"{field_name!r} kind must be one of {allowed}, got {kind!r}",
            field=field_name)
    return kind


def _build_hamiltonian(spec: dict, dim: int, seed: int, role: int,
                       field_name: str) -> np.ndarray:
    kind = _kind_of(spec, field_name, ("diagonal", "explicit", "random"))
    if kind == "diagonal":
        energies = spec.get("energies")
        if not isinstance(energies, list) or len(energies) != dim:
            raise ConfigError(
                f"{field_name!r} diagonal spec needs an 'energies' list of "
                f"length {dim}", field=f"{field_name}.energies")
        return np.diag([_number(e, f"{field_name}.energies[{k}]")
                        for k, e in enumerate(energies)]).astype(np.complex128)
    if kind == "explicit":
        return _parse_matrix(spec.get("matrix"), dim, field_name)
    rng = np.random.default_rng(derive_seed(seed, role))
    return random_hermitian(dim, rng, scale=_number(
        spec.get("scale", 1.0), f"{field_name}.scale"))


def _build_measurement(spec: dict, ensemble: GibbsEnsemble,
                       field_name: str) -> ProjectorFamily:
    kind = _kind_of(spec, field_name, ("eigenbasis", "projectors"))
    if kind == "eigenbasis":
        gap = (_number(spec["degeneracy_gap"], f"{field_name}.degeneracy_gap",
                       "[0, inf)") if "degeneracy_gap" in spec else None)
        return eigen_measurement(ensemble.energies, ensemble.basis, gap)
    mats = spec.get("projectors")
    if not isinstance(mats, list) or not mats:
        raise ConfigError(
            f"{field_name!r} needs a nonempty 'projectors' list",
            field=f"{field_name}.projectors")
    energies = spec.get("energies")
    if not isinstance(energies, list) or len(energies) != len(mats):
        raise ConfigError(
            f"{field_name!r} explicit projector lists must carry an "
            "'energies' list of the same length (needed for the work "
            "statistics columns)", field=f"{field_name}.energies")
    dim = len(ensemble.energies)
    parsed = [_parse_matrix(m, dim, f"{field_name}.projectors[{k}]")
              for k, m in enumerate(mats)]
    return ProjectorFamily(parsed, [_number(e, f"{field_name}.energies[{k}]")
                                    for k, e in enumerate(energies)])


def _build_channel(config: ScenarioConfig,
                   second_ensemble: GibbsEnsemble) -> KrausChannel:
    spec = config.channel
    kind = _kind_of(spec, "channel",
                    ("identity", "dephasing", "depolarizing",
                     "amplitude_damping", "haar_random",
                     "unitary_from_hamiltonian", "kraus"))
    dim = config.dim
    if kind == "identity":
        return standard_channel("identity", dim)
    if kind in ("dephasing", "depolarizing", "amplitude_damping"):
        key = _CHANNEL_PARAM_KEYS[kind]
        param = _number(spec.get(key), f"channel.{key}", "[0, 1]")
        if kind == "amplitude_damping" and dim != 2:
            raise ConfigError(
                f"amplitude damping is defined for dim = 2, got dim = {dim}",
                field="dim")
        return standard_channel(kind, dim, param)
    if kind == "haar_random":
        rng = np.random.default_rng(derive_seed(config.seed, ROLE_CHANNEL))
        return channel_from_unitary(haar_random_unitary(dim, rng))
    if kind == "unitary_from_hamiltonian":
        t = _number(spec.get("time", 1.0), "channel.time")
        return channel_from_unitary(unitary_from_hamiltonian(
            second_ensemble.energies, second_ensemble.basis, t))
    mats = spec.get("operators")
    if not isinstance(mats, list) or not mats:
        raise ConfigError("kraus channel needs a nonempty 'operators' list",
                          field="channel.operators")
    parsed = [_parse_matrix(m, dim, f"channel.operators[{k}]")
              for k, m in enumerate(mats)]
    return KrausChannel(parsed)


def _build_initial(config: ScenarioConfig,
                   first_ensemble: GibbsEnsemble) -> DensityMatrix:
    kind = _kind_of(config.initial, "initial",
                    ("gibbs", "maximally_mixed", "explicit"))
    if kind == "gibbs":
        return first_ensemble.state
    if kind == "maximally_mixed":
        return maximally_mixed(config.dim)
    return DensityMatrix(_parse_matrix(config.initial.get("matrix"),
                                       config.dim, "initial"))


def _unchanged(config: ScenarioConfig, previous: BuiltScenario | None,
               spec_name: str, *rebuilt_kinds: str) -> bool:
    """Whether ``previous`` was built at ``config``'s dim from the very same
    ``spec_name`` spec object, of a kind not in ``rebuilt_kinds``."""
    spec = getattr(config, spec_name)
    return (previous is not None and previous.config.dim == config.dim
            and getattr(previous.config, spec_name) is spec
            and spec.get("kind") not in rebuilt_kinds)


def build_scenario(config: ScenarioConfig, *,
                   previous: BuiltScenario | None = None) -> BuiltScenario:
    """Turn a validated config into live objects.

    ``previous``, the scenario built for the point before in a sweep,
    lends every ingredient whose inputs ``config`` leaves unchanged: the
    same dim, the same spec object (:func:`sweep_configs` passes an
    unchanged spec through as it is) and no dependence on the seed.

    - A Hamiltonian's eigenpair, unless its kind is ``random``, and then
      also its measurement family if that spec is unchanged too. At an
      unchanged β the whole :class:`GibbsEnsemble` is lent; at a new β,
      Z and the exponent guards are recomputed from the eigenpair
      (:meth:`GibbsEnsemble.at_beta`).
    - The channel, unless its kind is ``haar_random``, or is
      ``unitary_from_hamiltonian`` and the second eigenpair was rebuilt.
    - A ``maximally_mixed`` or ``explicit`` initial state, and a
      ``gibbs`` one when the first ensemble itself was lent: the Gibbs
      weights are recomputed only when β or the first Hamiltonian changes.

    Every builder is deterministic, so the result, and any error raised,
    equals that of a build without ``previous``.

    Raises :class:`ConfigError` for schema-level problems and
    :class:`~tpm_lab.errors.ValidationError` when a constructed object
    violates its invariants (e.g. an explicit state that is not PSD).
    """
    first_kept = _unchanged(config, previous, "first_hamiltonian", "random")
    second_kept = _unchanged(config, previous, "second_hamiltonian", "random")
    h_first = None if first_kept else _build_hamiltonian(
        config.first_hamiltonian, config.dim, config.seed,
        ROLE_FIRST_HAMILTONIAN, "first_hamiltonian")
    h_second = None if second_kept else _build_hamiltonian(
        config.second_hamiltonian, config.dim, config.seed,
        ROLE_SECOND_HAMILTONIAN, "second_hamiltonian")
    first_ensemble = (previous.first_ensemble.at_beta(config.beta)
                      if first_kept else gibbs_ensemble(h_first, config.beta))
    second_ensemble = (previous.second_ensemble.at_beta(config.beta)
                       if second_kept
                       else gibbs_ensemble(h_second, config.beta))
    first_meas = (previous.experiment.first_measurement
                  if first_kept and _unchanged(config, previous,
                                               "first_measurement")
                  else _build_measurement(config.first_measurement,
                                          first_ensemble, "first_measurement"))
    second_meas = (previous.experiment.second_measurement
                   if second_kept and _unchanged(config, previous,
                                                 "second_measurement")
                   else _build_measurement(config.second_measurement,
                                           second_ensemble,
                                           "second_measurement"))
    channel = (previous.experiment.channel
               if _unchanged(config, previous, "channel", "haar_random")
               and (second_kept or config.channel.get("kind")
                    != "unitary_from_hamiltonian")
               else _build_channel(config, second_ensemble))
    initial = (previous.experiment.initial_state
               if _unchanged(config, previous, "initial")
               and (config.initial.get("kind") != "gibbs"
                    or first_ensemble is previous.first_ensemble)
               else _build_initial(config, first_ensemble))
    experiment = TpmExperiment(initial_state=initial,
                               first_measurement=first_meas,
                               channel=channel,
                               second_measurement=second_meas)
    support_epsilon = _number(
        config.tolerances.get("support_epsilon", DEFAULT_SUPPORT_EPSILON),
        "tolerances.support_epsilon", "[0, 1)")
    return BuiltScenario(
        config=config, experiment=experiment,
        first_ensemble=first_ensemble, second_ensemble=second_ensemble,
        support_epsilon=support_epsilon)


def sweep_configs(config: ScenarioConfig, parameter: str,
                  values) -> list[ScenarioConfig]:
    """Expand a config into one variant per sweep value.

    Each variant gets a deterministic seed derived from the base seed and
    its position in the value list, and a name suffixed with the swept
    parameter so report rows stay distinguishable. Every spec the sweep
    does not change is the base config's own object, which is how
    :func:`build_scenario` recognises it as unchanged.
    """
    if parameter not in ("beta", "channel_param", "dim"):
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; "
            "expected 'beta', 'channel_param' or 'dim'")
    variants = []
    for k, value in enumerate(values):
        if parameter == "channel_param":
            kind = config.channel.get("kind")
            key = _CHANNEL_PARAM_KEYS.get(kind)
            if key is None:
                raise ConfigError(
                    f"channel kind {kind!r} has no sweepable parameter",
                    field="channel.kind")
            change = {"channel": {**config.channel, key: float(value)}}
        else:
            change = {parameter: _number(value, parameter,
                                         *_TOP_LEVEL_NUMBERS[parameter])}
        variants.append(config._replace(
            name=f"{config.name}[{parameter}={value:g}]",
            seed=derive_seed(config.seed, ROLE_SWEEP, k), **change))
    return variants
