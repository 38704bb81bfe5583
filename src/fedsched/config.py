"""Experiment configuration: dataclasses, their rule table, JSON loading.

`RULES` gives each field of the config and its sections a kind and, where one
applies, a bound.  `validate()` walks it over a typed config, built in Python
or loaded from JSON, then checks the rules that tie fields together.  Loading
JSON checks keys and converts what JSON cannot spell (vectors, constraint-id
keys, demand and duration specs); anything else reaches `validate()` as given.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable

from .core import DEFAULT_CONSTRAINT_COUNT, ResourceVector
from .engine import MESSAGE_KINDS, CostModel, DelayModel
from .errors import ConfigurationError
from .workload import (ARRIVALS, ClusterProfile, _check_demand, _check_duration, _finite,
                       _number, _show)

@dataclass
class UserSpec:
    user_id: str
    share: float
    gm_index: int | None = None  # explicit queue placement; default deals round-robin


@dataclass
class WorkloadSpec:
    """Either a trace file or synthetic-generation parameters."""

    kind: str = "synthetic"  # "trace" | "synthetic"
    # trace
    path: str | None = None
    cpu_divisor: float = 400
    mem_divisor: float = 50
    # synthetic
    count: int = 1000
    rate: float = 100.0
    duration: object = 5.0
    demand: object = None  # ResourceVector or [(vector, weight), ...]
    arrival: str = "poisson"
    # applied to both kinds
    constraint_probabilities: dict[int, float] = field(default_factory=dict)
    load_factor: float = 1.0  # >1 compresses arrivals (higher load)


@dataclass
class ExperimentConfig:
    scheduler: str = "megha"
    gm_count: int = 2
    lm_count: int = 2
    workers_per_lm: int = 50
    worker_capacity: ResourceVector = field(default_factory=lambda: ResourceVector.of(64, 16384))
    heartbeat_period: float = 10.0
    delays: DelayModel = field(default_factory=DelayModel)
    costs: CostModel = field(default_factory=CostModel)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    users: list[UserSpec] = field(default_factory=list)
    machine_profiles: list[ClusterProfile] = field(default_factory=list)
    seed: int = 0
    constraint_count: int = DEFAULT_CONSTRAINT_COUNT
    retry_limit: int = 5
    event_cap: int = 2_000_000
    violation_metric: str = "cpu"  # "cpu" | "max"
    # baseline-only knobs
    probe_count: int = 2
    sparrow_scheduler_count: int = 2
    slot_demand: ResourceVector | None = None

    def validate(self) -> None:
        """Every field against `RULES`, then the rules that tie fields together."""
        _check("config", self)
        spec = self.workload
        if self.scheduler == "centralized" and (self.gm_count != 1 or self.lm_count != 1):
            raise ConfigurationError(
                "centralized means exactly one GM and one LM "
                f"(got gm_count={self.gm_count}, lm_count={self.lm_count})")
        if spec.kind == "trace" and not spec.path:
            raise ConfigurationError("trace workload needs a path")
        _check_duration(spec.duration)
        vectors = [] if spec.demand is None else _check_demand(spec.demand, "workload.demand")
        if self.slot_demand is not None:
            vectors.append(self.slot_demand)
        for vector in vectors:
            if vector.dimension != self.worker_capacity.dimension:
                raise ConfigurationError(
                    f"resource vector {tuple(vector)} does not have the "
                    f"{self.worker_capacity.dimension} dimensions of worker_capacity")
        if self.worker_slots() < 1:
            raise ConfigurationError("slot_demand leaves workers with zero slots")
        ids = [cid for p in self.machine_profiles for cid in p.probabilities]
        for cid in ids + list(spec.constraint_probabilities):
            if not 0 <= cid < self.constraint_count:
                raise ConfigurationError(
                    f"constraint id {cid} outside [0, {self.constraint_count})")
        seen = set()
        for user in self.users:
            if user.user_id in seen:
                raise ConfigurationError(f"duplicate user {user.user_id!r}")
            seen.add(user.user_id)
            if user.gm_index is not None and not 0 <= user.gm_index < self.gm_count:
                raise ConfigurationError(
                    f"user {user.user_id}: gm_index {user.gm_index} out of range")
        total_share = sum(user.share for user in self.users)
        if total_share > 1.0 + 1e-9:
            raise ConfigurationError(f"user shares sum to {total_share}, exceeding the cluster")

    def worker_slots(self) -> int:
        """Probe-baseline slots per worker: how many slot demands fit at once in
        every dimension with a positive demand (0 if none has one); 1 without."""
        if self.slot_demand is None:
            return 1
        return min((cap // d for cap, d in zip(self.worker_capacity, self.slot_demand)
                    if d > 0), default=0)


# -- the rule table --------------------------------------------------------------

# A rule is a tuple of the allowed strings, a section class, [class] for a list
# of sections, or "kind[?] [bound]": a kind of `_KINDS`, "?" to allow None, and
# a bound of `_BOUNDS`.
RULES: dict[type, dict[str, object]] = {
    ExperimentConfig: {
        "scheduler": ("megha", "sparrow", "centralized"), "gm_count": "int >= 1",
        "lm_count": "int >= 1", "workers_per_lm": "int >= 1", "worker_capacity": "vector",
        "heartbeat_period": "number > 0", "delays": DelayModel, "costs": CostModel,
        "workload": WorkloadSpec, "users": [UserSpec], "machine_profiles": [ClusterProfile],
        "seed": "int", "constraint_count": "int >= 1", "retry_limit": "int >= 1",
        "event_cap": "int >= 1", "violation_metric": ("cpu", "max"),
        "probe_count": "int >= 1", "sparrow_scheduler_count": "int >= 1",
        "slot_demand": "vector?"},
    WorkloadSpec: {
        "kind": ("trace", "synthetic"), "path": "str?", "cpu_divisor": "number > 0",
        "mem_divisor": "number > 0", "count": "int >= 1", "rate": "number > 0",
        "duration": "duration", "demand": "demand?", "arrival": ARRIVALS,
        "constraint_probabilities": "probabilities", "load_factor": "number > 0"},
    # the shares' sum <= 1 and gm_index < gm_count are checked in validate()
    UserSpec: {"user_id": "str", "share": "number >= 0", "gm_index": "int?"},
    ClusterProfile: {"profile_id": "str", "probabilities": "probabilities"},
    DelayModel: {"network_delay": "number >= 0", "overrides": "delays"},
    CostModel: {f.name: "number >= 0" for f in fields(CostModel)},
}

MAX_QUANTITY = 2 ** 53  # exact when fairness arithmetic scales it by a float share


def _int(value) -> bool:
    """An int, not a bool, that a float can hold, so a message can print it."""
    return isinstance(value, int) and _finite(value)


def _vector(value) -> bool:
    return (isinstance(value, ResourceVector) and len(value) > 0
            and all(_int(q) and 0 <= q <= MAX_QUANTITY for q in value))


# What a value of each kind must be, and its test.  A bool is never a number.
_KINDS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "int": ("an integer within the float range", _int),
    "number": ("a finite number", _finite),
    "str": ("a string", lambda v: isinstance(v, str)),
    "vector": (f"a list of integers in [0, {MAX_QUANTITY}]", _vector),
    "probabilities": ("an object mapping constraint ids to probabilities in [0, 1]",
                      lambda v: isinstance(v, dict) and all(
                          _int(k) and _finite(p) and 0 <= p <= 1 for k, p in v.items())),
    "delays": ("an object mapping message kinds to finite numbers >= 0",
               lambda v: isinstance(v, dict) and all(
                   k in MESSAGE_KINDS and _finite(d) and d >= 0 for k, d in v.items())),
    "duration": ('a number, ["exp", mean] or ["choice", values, weights]',
                 lambda v: _number(v) or isinstance(v, (list, tuple))),
    "demand": ("a vector or a list of [vector, weight] pairs",
               lambda v: _vector(v) or isinstance(v, list) and all(
                   isinstance(e, (list, tuple)) and len(e) == 2 and _vector(e[0]) for e in v)),
}
_BOUNDS: dict[str, Callable[[object], bool]] = {
    ">= 0": lambda v: v >= 0, "> 0": lambda v: v > 0, ">= 1": lambda v: v >= 1}


# -- converting JSON -------------------------------------------------------------


def _as_vector(what: str, value):
    return ResourceVector(value) if isinstance(value, list) else value


def _probabilities(what: str, value):
    """Constraint-id keys as ints.  Each must be written as a canonical
    decimal, so no two keys name one id."""
    if not isinstance(value, dict):
        return value
    try:
        if all(str(int(k)) == k for k in value):
            return {int(k): p for k, p in value.items()}
    except ValueError:  # not a decimal, or too long to read as one
        pass
    raise ConfigurationError(
        f"{what} must map constraint ids, written as plain decimal integers, "
        f"to probabilities, got {_show(value)}")


def _parse_demand(what: str, value):
    """A vector, or a [[vector, weight], ...] mixture as (vector, weight) pairs."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return [(_as_vector(what, e[0]), e[1]) if isinstance(e, list) and len(e) == 2 else e
                for e in value]
    return _as_vector(what, value)


def _parse_duration(what: str, value):
    """A list spec as the tuple `generate_synthetic` takes."""
    return (tuple(value[0:1] + [tuple(v) if isinstance(v, list) else v for v in value[1:]])
            if isinstance(value, list) else value)


def _keep(what: str, value):
    return value


# By kind: the JSON values it takes only once converted.  Whatever does not
# convert is left as it is, for `validate` to name.
_CONVERSIONS = {"vector": _as_vector, "demand": _parse_demand, "duration": _parse_duration,
                "probabilities": _probabilities}


# -- reading the table -----------------------------------------------------------


def _compile(rule):
    """What `rule` asks for, in words, its test, and how a JSON value converts."""
    if isinstance(rule, tuple):
        return f"one of {', '.join(rule)}", rule.__contains__, _keep
    if isinstance(rule, list):
        cls = rule[0]
        return (f"a list of {cls.__name__}",
                lambda v: isinstance(v, list) and all(type(x) is cls for x in v),
                lambda what, v: [_build(f"{what}[{i}]", cls, x) for i, x in enumerate(v)]
                if isinstance(v, list) else v)
    if isinstance(rule, type):
        return (f"a {rule.__name__}", lambda v: type(v) is rule,
                lambda what, v: _build(what, rule, v))
    kind, _, bound = rule.partition(" ")
    kind, optional = kind.rstrip("?"), kind.endswith("?")
    text, test = _KINDS[kind]
    if bound:
        text, test = f"{text} {bound}", lambda v, t=test, b=_BOUNDS[bound]: t(v) and b(v)
    if optional:
        text, test = f"{text} or null", lambda v, t=test: v is None or t(v)
    return text, test, _CONVERSIONS.get(kind, _keep)


# By class, then field name: the rule, its words, its test and its conversion
_COMPILED = {cls: {name: (rule, *_compile(rule)) for name, rule in rules.items()}
             for cls, rules in RULES.items()}


def _check(what: str, obj) -> None:
    """Check each field of `obj` against its rule, then each section it holds."""
    for name, (rule, text, test, _) in _COMPILED[type(obj)].items():
        value = getattr(obj, name)
        if not test(value):
            raise ConfigurationError(f"{what}.{name} must be {text}, got {_show(value)}")
        if isinstance(rule, type):
            _check(f"{what}.{name}", value)
        elif isinstance(rule, list):
            for i, item in enumerate(value):
                _check(f"{what}.{name}[{i}]", item)


def _build(what: str, cls, data):
    """A `cls` from a JSON object: no unknown or missing keys, each value converted."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be an object, got {_show(data)}")
    rules = _COMPILED[cls]
    unknown = sorted(set(data) - set(rules))
    if unknown:
        raise ConfigurationError(f"{what}: unknown keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"{what}: missing keys {missing}")
    return cls(**{name: rules[name][3](f"{what}.{name}", value)
                  for name, value in data.items()})


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from plain JSON data, applying defaults for absent keys."""
    config = _build("config", ExperimentConfig, data)
    config.validate()
    return config


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except ValueError as exc:  # bad JSON, text that is not UTF-8, an int too long to read
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(data)
