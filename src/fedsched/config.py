"""Experiment configuration: dataclasses, JSON loading, and validation."""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields

from .core import DEFAULT_CONSTRAINT_COUNT, ResourceVector
from .engine import CostModel, DelayModel
from .errors import ConfigurationError
from .workload import (ARRIVALS, ClusterProfile, _check_demand, _check_duration, _finite,
                       _number)

SCHEDULER_KINDS = ("megha", "sparrow", "centralized")


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
        if self.scheduler not in SCHEDULER_KINDS:
            raise ConfigurationError(f"unknown scheduler kind {self.scheduler!r}")
        if self.scheduler == "centralized" and (self.gm_count != 1 or self.lm_count != 1):
            raise ConfigurationError(
                "centralized means exactly one GM and one LM "
                f"(got gm_count={self.gm_count}, lm_count={self.lm_count})"
            )
        if self.gm_count < 1 or self.lm_count < 1 or self.workers_per_lm < 1:
            raise ConfigurationError("gm_count, lm_count, workers_per_lm must be >= 1")
        if self.heartbeat_period <= 0:
            raise ConfigurationError("heartbeat_period must be positive")
        if self.retry_limit < 1:
            raise ConfigurationError("retry_limit must be >= 1")
        if self.constraint_count < 1:
            raise ConfigurationError("constraint_count must be >= 1")
        if self.violation_metric not in ("cpu", "max"):
            raise ConfigurationError(f"unknown violation metric {self.violation_metric!r}")
        if self.workload.kind not in ("trace", "synthetic"):
            raise ConfigurationError(f"unknown workload kind {self.workload.kind!r}")
        if self.workload.kind == "trace" and not self.workload.path:
            raise ConfigurationError("trace workload needs a path")
        if self.workload.kind == "synthetic":
            if self.workload.count < 1 or self.workload.rate <= 0:
                raise ConfigurationError("workload count and rate must be positive")
            if self.workload.arrival not in ARRIVALS:
                raise ConfigurationError(
                    f"unknown arrival process {self.workload.arrival!r} (want one of {ARRIVALS})")
        if self.workload.cpu_divisor <= 0 or self.workload.mem_divisor <= 0:
            raise ConfigurationError("workload cpu_divisor and mem_divisor must be positive")
        if self.workload.load_factor <= 0:
            raise ConfigurationError("load_factor must be positive")
        for cid, p in self.workload.constraint_probabilities.items():
            if not 0.0 <= p <= 1.0:  # also rejects NaN
                raise ConfigurationError(
                    f"workload constraint {cid}: probability {p} outside [0, 1]")
        if self.event_cap < 1:
            raise ConfigurationError("event_cap must be >= 1")
        if self.scheduler == "sparrow":
            if self.probe_count < 1 or self.sparrow_scheduler_count < 1:
                raise ConfigurationError("probe_count and scheduler count must be >= 1")
        _check_duration(self.workload.duration)
        demand = self.workload.demand
        vectors = [] if demand is None else _check_demand(demand, "workload.demand")
        if self.slot_demand is not None:
            vectors.append(self.slot_demand)
        for vector in vectors:
            if vector.dimension != self.worker_capacity.dimension:
                raise ConfigurationError(
                    f"resource vector {tuple(vector)} does not have the "
                    f"{self.worker_capacity.dimension} dimensions of worker_capacity"
                )
        if self.worker_slots() < 1:
            raise ConfigurationError("slot_demand leaves workers with zero slots")
        ids = [cid for p in self.machine_profiles for cid in p.probabilities]
        for cid in ids + list(self.workload.constraint_probabilities):
            if not 0 <= cid < self.constraint_count:
                raise ConfigurationError(
                    f"constraint id {cid} outside [0, {self.constraint_count})"
                )
        seen = set()
        total_share = 0.0
        for user in self.users:
            if user.user_id in seen:
                raise ConfigurationError(f"duplicate user {user.user_id!r}")
            seen.add(user.user_id)
            if not 0.0 <= user.share <= 1.0:
                raise ConfigurationError(
                    f"user {user.user_id}: share {user.share} outside [0, 1]"
                )
            if user.gm_index is not None and not 0 <= user.gm_index < self.gm_count:
                raise ConfigurationError(
                    f"user {user.user_id}: gm_index {user.gm_index} out of range"
                )
            total_share += user.share
        if total_share > 1.0 + 1e-9:
            raise ConfigurationError(
                f"user shares sum to {total_share}, exceeding the cluster"
            )

    def worker_slots(self) -> int:
        """Probe-baseline slots per worker: how many slot demands fit in every
        dimension with a positive demand at once, 0 when some such dimension
        cannot hold one or none has a positive demand; 1 without a slot
        demand."""
        if self.slot_demand is None:
            return 1
        return min((cap // d for cap, d in zip(self.worker_capacity, self.slot_demand)
                    if d > 0), default=0)


# What a JSON value must be for each field annotation checked here; bools are
# never numbers and a float is finite.  Other fields (nested sections,
# probability maps, demand and duration specs) are checked where they are parsed.
_TYPES = {
    "int": ("an integer", lambda v: _number(v) and isinstance(v, int)),
    "float": ("a finite number", _finite),
    "str": ("a string", lambda v: isinstance(v, str)),
    "ResourceVector": ("a list of integers", lambda v: isinstance(v, list)),
    "dict[str, float]": ("an object of finite numbers",
                         lambda v: isinstance(v, dict) and all(map(_finite, v.values()))),
}


def _section(what: str, cls, data) -> dict:
    """A copy of one config object, its keys and scalar types checked against `cls`."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be an object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigurationError(f"{what}: unknown keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"{what}: missing keys {missing}")
    for f in fields(cls):
        kind = f.type.removesuffix(" | None")
        if f.name not in data or kind not in _TYPES:
            continue
        value = data[f.name]
        name, ok = _TYPES[kind]
        if not (ok(value) or (value is None and kind != f.type)):
            raise ConfigurationError(f"{what}.{f.name} must be {name}, got {value!r}")
    return dict(data)


def _list(what: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigurationError(f"{what} must be a list, got {value!r}")
    return value


def _probabilities(what: str, value) -> dict[int, float]:
    """Constraint ids mapped to numbers; a bool or a string is not a number.

    Each id must be a canonical decimal string, so no two keys name one id.
    """
    try:
        if all(map(_number, value.values())) and all(str(int(k)) == k for k in value):
            return {int(k): float(v) for k, v in value.items()}
    except (AttributeError, TypeError, ValueError):
        pass
    raise ConfigurationError(
        f"{what} must map constraint ids, written as plain decimal integers, "
        f"to probabilities, got {value!r}")


def _parse_demand(value):
    if value is None:
        return None
    if not isinstance(value, list):
        raise ConfigurationError(f"workload.demand must be a list, got {value!r}")
    if not (value and isinstance(value[0], list)):
        return ResourceVector.of(*value)
    for entry in value:  # a mixture: every entry a [vector, weight] pair
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], list)):
            raise ConfigurationError(
                f"workload.demand mixture entries must be [vector, weight] pairs, got {entry!r}")
    return [(ResourceVector.of(*v), w) for v, w in value]


def _parse_duration(value):
    if _number(value):
        return float(value)
    if isinstance(value, list):
        return tuple(value[0:1] + [tuple(v) if isinstance(v, list) else v for v in value[1:]])
    raise ConfigurationError(f"bad duration spec {value!r}")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config from plain JSON data, applying defaults for absent keys."""
    data = _section("config", ExperimentConfig, data)
    config = ExperimentConfig()
    for key in ("scheduler", "gm_count", "lm_count", "workers_per_lm",
                "heartbeat_period", "seed", "constraint_count", "retry_limit",
                "event_cap", "violation_metric", "probe_count",
                "sparrow_scheduler_count"):
        if key in data:
            setattr(config, key, data[key])
    if "worker_capacity" in data:
        config.worker_capacity = ResourceVector.of(*data["worker_capacity"])
    if "slot_demand" in data and data["slot_demand"] is not None:
        config.slot_demand = ResourceVector.of(*data["slot_demand"])
    if "delays" in data:
        config.delays = DelayModel(**_section("delays", DelayModel, data["delays"]))
    if "costs" in data:
        config.costs = CostModel(**_section("costs", CostModel, data["costs"]))
    if "users" in data:
        config.users = [UserSpec(**_section(f"users[{i}]", UserSpec, u))
                        for i, u in enumerate(_list("users", data["users"]))]
    if "machine_profiles" in data:
        config.machine_profiles = []
        for i, p in enumerate(_list("machine_profiles", data["machine_profiles"])):
            what = f"machine_profiles[{i}]"
            p = _section(what, ClusterProfile, p)
            p["probabilities"] = _probabilities(f"{what}.probabilities",
                                                p["probabilities"])
            config.machine_profiles.append(ClusterProfile(**p))
    if "workload" in data:
        w = _section("workload", WorkloadSpec, data["workload"])
        if "constraint_probabilities" in w:
            w["constraint_probabilities"] = _probabilities(
                "workload.constraint_probabilities", w["constraint_probabilities"])
        if "demand" in w:
            w["demand"] = _parse_demand(w["demand"])
        if "duration" in w:
            w["duration"] = _parse_duration(w["duration"])
        config.workload = WorkloadSpec(**w)
    config.validate()
    return config


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: invalid JSON ({exc})") from None
    try:
        return config_from_dict(data)
    except TypeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
