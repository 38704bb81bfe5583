"""Workload ingestion: trace files, synthetic generation, constraint assignment.

The normalized trace format is header-bearing CSV with columns
(arrival_s, job_id, task_id, cpu, mem_mb, duration_s, constraints), where
constraints is a semicolon-joined list of integer ids (may be empty).  An
optional trailing user_id column pins tasks to users.  Raw traces record
demands at data-center scale, so loading divides cpu and mem_mb by configured
divisors (defaults 400 and 50) and clamps anything that lands at zero up to
one unit, keeping demands exact integers.

A config's fields are checked by `config.RULES`.  The exported entries here
check their own arguments: `load_trace` each row (UTF-8 text, finite numbers
and scaled demands, constraint ids in range, duration > 0, arrival >= 0),
`generate_synthetic` its specs (durations > 0, non-zero demands, a load factor
that leaves the last arrival finite), and it and `augment_constraints` their
constraint ids.  Each synthetic task is built once, its constraints drawn as
`augment_constraints` draws them and its job dealt as `assign_users` deals it.
"""

from __future__ import annotations

import csv
import math
import random
import sys
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .core import (DEFAULT_CONSTRAINT_COUNT, NO_CONSTRAINTS, ResourceVector, TaskRequest,
                   WorkerNode)
from .errors import ConfigurationError, TraceFormatError


def _number(value) -> bool:
    """An int or a float; a bool is not a number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value) -> bool:
    """A number a float can hold: not NaN, infinite or an int past the largest float."""
    return _number(value) and abs(value) <= sys.float_info.max


def _show(value) -> str:
    """`value` for an error message, even holding an int too long for `str`."""
    try:
        return repr(value)
    except ValueError:  # past Python's limit on the digits of an int
        return f"a {type(value).__name__} too long to print"


def _check_weights(weights: list, what: str) -> None:
    """Weights a random draw can use: finite, none negative, a positive finite total."""
    if not (all(_finite(w) and w >= 0 for w in weights)
            and 0 < sum(map(float, weights)) < math.inf):
        raise ConfigurationError(f"{what} weights {_show(list(weights))} must be finite "
                                 "and >= 0 with a positive finite total")


def _check_duration(spec) -> None:
    """A constant, ("exp", mean) or ("choice", values, weights), all positive."""
    shape = (spec[0], len(spec)) if isinstance(spec, (list, tuple)) and spec else None
    if _finite(spec):
        values = [spec]
    elif shape == ("exp", 2):
        values = [spec[1]]
    elif (shape == ("choice", 3) and all(isinstance(p, (list, tuple)) for p in spec[1:])
          and len(spec[1]) == len(spec[2])):  # an empty choice fails the weight total
        values = spec[1]
        _check_weights(spec[2], "duration choice")
    else:
        raise ConfigurationError(f"bad duration spec {_show(spec)}")
    if not all(_finite(v) and v > 0 for v in values):
        raise ConfigurationError(f"duration spec {_show(spec)} needs positive finite values")
    if shape == ("exp", 2) and spec[1] > sys.float_info.max / 64:  # a draw is <= 37 means
        raise ConfigurationError(f"exp mean {spec[1]!r} can draw an infinite duration")


def _check_demand(spec, what: str = "demand") -> list[ResourceVector]:
    """The vectors of a constant demand or a [(vector, weight), ...] mixture,
    each non-zero, the mixture's weights usable by a draw."""
    if isinstance(spec, ResourceVector):
        vectors = [spec]
    else:
        vectors = [v for v, _ in spec]
        _check_weights([w for _, w in spec], f"{what} mixture")
    for vector in vectors:
        if vector.is_zero():
            raise ConfigurationError(f"{what} vector {tuple(vector)} must be non-zero")
    return vectors


def _check_span(last_arrival: float, load_factor: float) -> None:
    """Arrivals up to `last_arrival`, divided by `load_factor`, must stay finite."""
    if not (_finite(load_factor) and load_factor > 0
            and math.isfinite(last_arrival / load_factor)):
        raise ConfigurationError(f"arrivals up to {last_arrival} over load_factor "
                                 f"{_show(load_factor)} are not finite times")


TRACE_COLUMNS = ("arrival_s", "job_id", "task_id", "cpu", "mem_mb", "duration_s",
                 "constraints")

ARRIVALS = ("poisson", "uniform")


def _utf8_lines(handle, path: str):
    """The lines of a trace opened as UTF-8 text; any other bytes are an error."""
    try:
        yield from handle
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: not valid UTF-8 text ({exc.reason})") from None


def load_trace(
    path: str,
    *,
    cpu_divisor: float = 400,
    mem_divisor: float = 50,
    constraint_count: int = DEFAULT_CONSTRAINT_COUNT,
) -> list[TaskRequest]:
    """Parse a normalized trace into task requests ordered by arrival."""
    if cpu_divisor <= 0 or mem_divisor <= 0:
        raise ConfigurationError("scaling divisors must be positive")
    tasks: list[TaskRequest] = []
    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise TraceFormatError(f"cannot read trace {path}: {exc.strerror}") from None
    except ValueError as exc:  # a NUL in the path
        raise TraceFormatError(f"cannot read trace {path!r}: {exc}") from None
    with handle:
        reader = csv.reader(_utf8_lines(handle, path))
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError(f"{path}: empty trace file") from None
        header = [h.strip() for h in header]
        if tuple(header[:7]) != TRACE_COLUMNS:
            raise TraceFormatError(
                f"{path}:1: expected header {','.join(TRACE_COLUMNS)}, got {','.join(header)}"
            )
        has_user = len(header) > 7 and header[7] == "user_id"
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                arrival = float(row[0])
                job_id = row[1].strip()
                task_id = row[2].strip()
                cpu = float(row[3])
                mem = float(row[4])
                duration = float(row[5])
                raw = row[6].strip()
                ids = [int(c) for c in raw.split(";") if c.strip() != ""]
                user_id = row[7].strip() if has_user and len(row) > 7 else ""
            except (ValueError, IndexError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: malformed row ({exc})") from None
            cpu, mem = cpu / cpu_divisor, mem / mem_divisor
            if not all(map(math.isfinite, (arrival, cpu, mem, duration))):
                raise TraceFormatError(f"{path}:{lineno}: numbers must be finite, and so "
                                       "must cpu and mem_mb over their divisors")
            if any(cid < 0 or cid >= constraint_count for cid in ids):
                raise TraceFormatError(
                    f"{path}:{lineno}: constraint id outside [0, {constraint_count})"
                )
            if duration <= 0:
                raise TraceFormatError(f"{path}:{lineno}: duration must be > 0")
            if arrival < 0:
                raise TraceFormatError(f"{path}:{lineno}: arrival must be >= 0")
            tasks.append(TaskRequest(
                task_id, job_id, user_id,
                ResourceVector.of(max(int(cpu), 1), max(int(mem), 1)),
                frozenset(ids), arrival, duration,
            ))
    tasks.sort(key=lambda t: (t.arrival_time, t.task_id))
    return tasks


def _draw_constraints(bases: list[frozenset[int]], probabilities: dict[int, float],
                      seed: int) -> list[frozenset[int]]:
    """Each base set plus each id drawn with its probability: one draw per id,
    in id order, task after task, from the `{seed}/task-constraints` stream."""
    for cid, p in probabilities.items():
        if not isinstance(cid, int) or isinstance(cid, bool) or cid < 0:
            raise ConfigurationError(f"constraint ids must be non-negative ints, got {cid!r}")
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"constraint {cid}: probability {p} outside [0, 1]")
    pairs = sorted(probabilities.items())
    if not pairs:
        return bases
    draw = random.Random(f"{seed}/task-constraints").random
    out = []
    for base in bases:
        drawn = [cid for cid, p in pairs if draw() < p]
        out.append(base.union(drawn) if drawn else base)
    return out


def augment_constraints(
    tasks: list[TaskRequest],
    probabilities: dict[int, float],
    seed: int,
) -> list[TaskRequest]:
    """Independently add each constraint id to each task with its probability.

    Arrival times, durations, demands, and any constraints already present are
    preserved; the same seed always produces the same assignment.
    """
    drawn = _draw_constraints([task.constraints for task in tasks], probabilities, seed)
    return [task._replace(constraints=ids) for task, ids in zip(tasks, drawn)]


@dataclass(frozen=True)
class ClusterProfile:
    """Per-constraint probabilities applied to every machine of one cluster."""

    profile_id: str
    probabilities: dict[int, float]


def assign_machine_constraints(
    nodes: list[WorkerNode],
    profiles: list[ClusterProfile],
    seed: int,
) -> dict[str, str]:
    """Pick a profile per cluster (LM) at random; draw each machine's constraints.

    Returns the profile chosen for each LM id.  With no profiles every machine
    keeps an empty constraint set.
    """
    chosen: dict[str, str] = {}
    if not profiles:
        return chosen
    rng = random.Random(f"{seed}/machine-constraints")
    by_lm: dict[str, list[WorkerNode]] = {}
    for node in nodes:
        by_lm.setdefault(node.lm_id, []).append(node)
    profile_by_lm: dict[str, ClusterProfile] = {}
    for lm_id in sorted(by_lm):
        profile_by_lm[lm_id] = profiles[rng.randrange(len(profiles))]
        chosen[lm_id] = profile_by_lm[lm_id].profile_id
    for lm_id in sorted(by_lm):
        profile = profile_by_lm[lm_id]
        for node in by_lm[lm_id]:
            ids = {cid for cid in sorted(profile.probabilities)
                   if rng.random() < profile.probabilities[cid]}
            node.machine_constraints = frozenset(ids) if ids else NO_CONSTRAINTS
    return chosen


def generate_synthetic(
    *,
    count: int,
    rate: float,
    duration: float | tuple,
    demand: ResourceVector | list,
    seed: int,
    arrival: str = "poisson",
    constraint_probabilities: dict[int, float] | None = None,
    user_ids: Sequence[str] = ("",),
    load_factor: float = 1.0,
) -> list[TaskRequest]:
    """Generate `count` tasks at a mean arrival rate of `rate` tasks/second.

    Arrivals are either evenly spaced ("uniform") or exponential inter-arrival
    times ("poisson") rescaled so the overall span is exactly count/rate --
    the realized mean rate matches the target.  `duration` is a constant or
    ("exp", mean) or ("choice", [values], [weights]); `demand` is a constant
    vector or a [(vector, weight), ...] mixture.  Constraints are drawn as
    `augment_constraints` draws them, jobs (ten tasks each) are dealt to
    `user_ids` as `assign_users` deals them, and each arrival is divided by
    `load_factor`.  By default every task has user id "".
    """
    if not user_ids:
        raise ConfigurationError("synthetic generation needs at least one user id")
    if count <= 0:
        raise ConfigurationError("synthetic count must be positive")
    if rate <= 0:
        raise ConfigurationError("synthetic rate must be positive")
    _check_duration(duration)
    vectors = _check_demand(demand)
    constraints = _draw_constraints([NO_CONSTRAINTS] * count, constraint_probabilities or {},
                                    seed)
    rng = random.Random(f"{seed}/synthetic")

    if arrival == "uniform":
        arrivals = [(i + 1) / rate for i in range(count)]
    elif arrival == "poisson":
        gaps = [rng.expovariate(rate) for _ in range(count)]
        total = math.fsum(gaps)
        scale = (count / rate) / total
        arrivals, acc = [], 0.0
        for gap in gaps:
            acc += gap * scale
            arrivals.append(acc)
    else:
        raise ConfigurationError(f"unknown arrival process {arrival!r}")
    _check_span(arrivals[-1], load_factor)

    def draw_duration() -> float:
        if isinstance(duration, (int, float)):
            return float(duration)
        if duration[0] == "exp":
            return max(rng.expovariate(1.0 / duration[1]), 1e-6)
        return rng.choices(duration[1], weights=duration[2])[0]

    cum_weights = (None if isinstance(demand, ResourceVector)
                   else list(accumulate(w for _, w in demand)))

    def draw_demand() -> ResourceVector:
        if cum_weights is None:
            return demand
        return rng.choices(vectors, cum_weights=cum_weights)[0]

    users = len(user_ids)
    job_ids = [f"j{j:05d}" for j in range((count + 9) // 10)]  # ten tasks per job
    # demand is drawn before duration for each task, as the seed's stream expects
    return [TaskRequest(f"t{i:06d}", job_ids[i // 10], user_ids[i // 10 % users],
                        draw_demand(), constraints[i], arrivals[i] / load_factor,
                        draw_duration())
            for i in range(count)]


def assign_users(tasks: list[TaskRequest], user_ids: list[str]) -> list[TaskRequest]:
    """Deal jobs to users round-robin; tasks of one job stay with one user.

    Tasks that already carry a user id keep it.
    """
    if not user_ids:
        raise ConfigurationError("assign_users needs at least one user id")
    job_user: dict[str, str] = {}
    out = []
    for task in tasks:
        if task.user_id:
            out.append(task)
            continue
        task_id, job_id, _, demand, constraints, arrival, duration = task
        user = job_user.get(job_id)
        if user is None:
            user = job_user[job_id] = user_ids[len(job_user) % len(user_ids)]
        out.append(TaskRequest(task_id, job_id, user, demand, constraints, arrival, duration))
    return out
