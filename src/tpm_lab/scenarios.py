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
import operator
import sys
from functools import cache
from itertools import chain
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
# The spec kinds whose builders read the seed (a builder that calls
# derive_seed must list its kind here), and the spec fields that hold them.
SEEDED_KINDS = ("random", "haar_random")
_SEEDED_FIELDS = ("first_hamiltonian", "second_hamiltonian", "channel")

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
# Each spec field's kinds, by the end of its name, with the keys besides
# "kind" that their builders read: a spec holding any other key is an error.
_SPEC_KINDS = {field: {kind: frozenset(f"kind {keys}".split()) for kind, keys
                       in kinds.items()} for suffix, kinds in {
    "initial": {"gibbs": "", "maximally_mixed": "", "explicit": "matrix"},
    "hamiltonian": {"diagonal": "energies", "explicit": "matrix",
                    "random": "scale"},
    "channel": {"identity": "", "haar_random": "", "kraus": "operators",
                **_CHANNEL_PARAM_KEYS},
    "measurement": {"eigenbasis": "degeneracy_gap",
                    "projectors": "projectors energies"},
}.items() for field in _SPEC_FIELDS if field.endswith(suffix)}


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
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigError:
        raise
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"invalid JSON in {path} at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:  # an integer literal over the digit limit
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return scenario_from_dict(raw, source=str(path))


def _unique_keys(pairs: list) -> dict:
    """One JSON object's dict; a key it gives twice, of which ``json``
    would keep the last, is a ConfigError naming the key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = sorted(key for key, _ in pairs)
        key = next(a for a, b in zip(keys, keys[1:]) if a == b)
        raise ConfigError(f"key {key!r} is given twice", field=key)
    return obj


def _only_keys(obj, allowed, field: str) -> None:
    """Raise a ConfigError if ``obj`` holds a key outside the set
    ``allowed``, naming ``field`` with ``{}`` as the first such key."""
    if not allowed.issuperset(obj):
        unknown = sorted(set(obj) - allowed, key=str)
        raise ConfigError(f"unknown keys {unknown}, expected only "
                          f"{sorted(allowed)}", field=field.format(unknown[0]))


def scenario_from_dict(raw: dict, source: str = "<dict>") -> ScenarioConfig:
    """Validate a raw config dict into a :class:`ScenarioConfig`."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{source}: config must be a JSON object")
    for name in ScenarioConfig._fields:
        if name not in raw and name not in ScenarioConfig._field_defaults:
            raise ConfigError(f"{source}: missing required field {name!r}",
                              field=name)
    _only_keys(raw, set(ScenarioConfig._fields), "{}")

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
    _only_keys(specs.get("tolerances", {}), {"support_epsilon"}, "tolerances")
    return ScenarioConfig(name=name, **numbers,
                          **{key: dict(spec) for key, spec in specs.items()})


def _parse_matrix(spec, field_name: str, dim: int) -> np.ndarray:
    """The dim × dim matrix of a ``{"re": …, "im": …}`` spec, whose entries
    follow :func:`_number`'s rule, or a ConfigError naming ``field_name``."""
    if not isinstance(spec, dict) or "re" not in spec:
        raise ConfigError(
            f"matrix spec for {field_name!r} must be an object with 're' "
            "(and optionally 'im') arrays", field=field_name)
    _only_keys(spec, {"re", "im"}, field_name)
    try:
        re_part = np.array(spec["re"], dtype=float)
        im_part = (np.array(spec["im"], dtype=float) if "im" in spec
                   else np.zeros_like(re_part))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(
            f"matrix entries for {field_name!r} are not numeric: {exc}",
            field=field_name) from exc
    if re_part.shape != (dim, dim) or im_part.shape != (dim, dim):
        raise ConfigError(
            f"matrix for {field_name!r} must be {dim}x{dim}, got "
            f"re {re_part.shape}, im {im_part.shape}", field=field_name)
    # True and None convert to 1.0 and NaN, so the entry types are read too.
    entries = chain.from_iterable(chain(spec["re"], spec.get("im", ())))
    if not (np.isfinite(re_part).all() and np.isfinite(im_part).all()
            and all(issubclass(t, (int, float)) and not issubclass(t, bool)
                    for t in set(map(type, entries)))):
        raise ConfigError(f"matrix entries for {field_name!r} must be finite "
                          "numbers, not bools or null", field=field_name)
    return re_part + 1j * im_part


def _kind_of(spec: dict, field_name: str) -> str:
    """The spec's kind, if :data:`_SPEC_KINDS` lists it and all its keys."""
    kind = spec.get("kind")
    keys = _SPEC_KINDS[field_name].get(kind) if isinstance(kind, str) else None
    if keys is None:
        raise ConfigError(f"{field_name!r} kind must be one of "
                          f"{tuple(_SPEC_KINDS[field_name])}, got {kind!r}",
                          field=field_name)
    _only_keys(spec, keys, field_name + ".{}")
    return kind


def _items(spec: dict, key: str, field_name: str, read, *args, length=None):
    """``read(item, field, *args)`` of each item of the list ``spec[key]``."""
    seq, field = spec.get(key), f"{field_name}.{key}"
    if not (isinstance(seq, list) and seq and length in (None, len(seq))):
        raise ConfigError(f"{field!r} must be a nonempty list" + (
            f" of length {length}" if length else ""), field=field)
    return [read(item, f"{field}[{k}]", *args) for k, item in enumerate(seq)]


def _build_hamiltonian(spec: dict, dim: int, seed: int, role: int,
                       field_name: str) -> np.ndarray:
    kind = _kind_of(spec, field_name)
    if kind == "diagonal":
        return np.diag(_items(spec, "energies", field_name, _number,
                              length=dim)).astype(np.complex128)
    if kind == "explicit":
        return _parse_matrix(spec.get("matrix"), field_name, dim)
    rng = np.random.default_rng(derive_seed(seed, role))
    return random_hermitian(dim, rng, scale=_number(
        spec.get("scale", 1.0), f"{field_name}.scale"))


def _build_measurement(spec: dict, ensemble: GibbsEnsemble,
                       field_name: str) -> ProjectorFamily:
    kind = _kind_of(spec, field_name)
    if kind == "eigenbasis":
        gap = (_number(spec["degeneracy_gap"], f"{field_name}.degeneracy_gap",
                       "[0, inf)") if "degeneracy_gap" in spec else None)
        return eigen_measurement(ensemble.energies, ensemble.basis, gap)
    parsed = _items(spec, "projectors", field_name, _parse_matrix,
                    len(ensemble.energies))
    # One energy per projector, for the work statistics columns.
    return ProjectorFamily(parsed, _items(spec, "energies", field_name,
                                          _number, length=len(parsed)))


def _build_channel(config: ScenarioConfig,
                   second_ensemble: GibbsEnsemble) -> KrausChannel:
    spec = config.channel
    kind = _kind_of(spec, "channel")
    dim = config.dim
    if kind == "identity":
        return standard_channel("identity", dim)
    if kind == "haar_random":
        rng = np.random.default_rng(derive_seed(config.seed, ROLE_CHANNEL))
        return channel_from_unitary(haar_random_unitary(dim, rng))
    if kind == "unitary_from_hamiltonian":
        t = _number(spec.get("time", 1.0), "channel.time")
        return channel_from_unitary(unitary_from_hamiltonian(
            second_ensemble.energies, second_ensemble.basis, t))
    if kind == "kraus":
        return KrausChannel(_items(spec, "operators", "channel",
                                   _parse_matrix, dim))
    key = _CHANNEL_PARAM_KEYS[kind]
    param = _number(spec.get(key), f"channel.{key}", "[0, 1]")
    if kind == "amplitude_damping" and dim != 2:
        raise ConfigError(
            f"amplitude damping is defined for dim = 2, got dim = {dim}",
            field="dim")
    return standard_channel(kind, dim, param)


def _build_initial(config: ScenarioConfig,
                   first_ensemble: GibbsEnsemble) -> DensityMatrix:
    kind = _kind_of(config.initial, "initial")
    if kind == "gibbs":
        return first_ensemble.state
    if kind == "maximally_mixed":
        return maximally_mixed(config.dim)
    return DensityMatrix(_parse_matrix(config.initial.get("matrix"),
                                       "initial", config.dim))


def build_scenario(config: ScenarioConfig, *,
                   previous: BuiltScenario | None = None) -> BuiltScenario:
    """Turn a validated config into live objects.

    ``previous``, the scenario built for the point before in a sweep, is
    retuned (:func:`_retune`) when ``config`` differs from its config only
    in the name, β or the channel spec; any other point is rebuilt. Every
    other field must be the very same object, as :func:`sweep_configs`
    passes it through, so a point with a derived seed is rebuilt, and so
    is one whose spec is equal but not identical (``0 == False``). Every
    builder is deterministic, so the result, and any error raised, equals
    that of a build without ``previous``.

    Raises :class:`ConfigError` for schema-level problems and
    :class:`~tpm_lab.errors.ValidationError` when a constructed object
    violates its invariants (e.g. an explicit state that is not PSD).
    """
    if previous is not None and all(map(
            operator.is_, config, previous.config._replace(
                name=config.name, beta=config.beta, channel=config.channel))):
        return _retune(previous, config)
    h_first = _build_hamiltonian(config.first_hamiltonian, config.dim,
                                 config.seed, ROLE_FIRST_HAMILTONIAN,
                                 "first_hamiltonian")
    h_second = _build_hamiltonian(config.second_hamiltonian, config.dim,
                                  config.seed, ROLE_SECOND_HAMILTONIAN,
                                  "second_hamiltonian")
    first_ensemble = gibbs_ensemble(h_first, config.beta)
    second_ensemble = gibbs_ensemble(h_second, config.beta)
    experiment = TpmExperiment(
        first_measurement=_build_measurement(
            config.first_measurement, first_ensemble, "first_measurement"),
        second_measurement=_build_measurement(
            config.second_measurement, second_ensemble, "second_measurement"),
        channel=_build_channel(config, second_ensemble),
        initial_state=_build_initial(config, first_ensemble))
    support_epsilon = _number(
        config.tolerances.get("support_epsilon", DEFAULT_SUPPORT_EPSILON),
        "tolerances.support_epsilon", "[0, 1)")
    return BuiltScenario(
        config=config, experiment=experiment,
        first_ensemble=first_ensemble, second_ensemble=second_ensemble,
        support_epsilon=support_epsilon)


def _retune(previous: BuiltScenario, config: ScenarioConfig) -> BuiltScenario:
    """``previous`` at ``config``'s β and channel: each ensemble ``at_beta``,
    the channel rebuilt if its spec is a new object, and a Gibbs initial
    state if the first ensemble changed; all else is kept."""
    first = previous.first_ensemble.at_beta(config.beta)
    second = previous.second_ensemble.at_beta(config.beta)
    experiment = previous.experiment
    if config.channel is not previous.config.channel:
        experiment = experiment._replace(
            channel=_build_channel(config, second))
    if (first is not previous.first_ensemble
            and config.initial.get("kind") == "gibbs"):
        experiment = experiment._replace(initial_state=first.state)
    return previous._replace(config=config, experiment=experiment,
                             first_ensemble=first, second_ensemble=second)


def sweep_configs(config: ScenarioConfig, parameter: str,
                  values) -> list[ScenarioConfig]:
    """Expand a config into one variant per sweep value.

    A variant's name is suffixed with the swept value. Its seed is derived
    from the base seed and its index if a spec's kind is in
    :data:`SEEDED_KINDS`, else it is the base seed. An unchanged spec is
    the base config's own object, as :func:`build_scenario` expects.
    """
    if parameter not in ("beta", "channel_param", "dim"):
        raise ValueError(
            f"unknown sweep parameter {parameter!r}; "
            "expected 'beta', 'channel_param' or 'dim'")
    if parameter == "channel_param":
        kind = config.channel.get("kind")
        key = _CHANNEL_PARAM_KEYS.get(kind) if isinstance(kind, str) else None
        if key is None:
            raise ConfigError(
                f"channel kind {kind!r} has no sweepable parameter",
                field="channel.kind")
    seeded = any(getattr(config, name).get("kind") in SEEDED_KINDS
                 for name in _SEEDED_FIELDS)
    variants = []
    for k, value in enumerate(values):
        if parameter == "channel_param":
            change = {"channel": {**config.channel, key: float(value)}}
        else:
            change = {parameter: _number(value, parameter,
                                         *_TOP_LEVEL_NUMBERS[parameter])}
        variants.append(config._replace(
            name=f"{config.name}[{parameter}={value:g}]",
            seed=derive_seed(config.seed, ROLE_SWEEP, k) if seeded
            else config.seed, **change))
    return variants
