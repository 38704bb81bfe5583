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

Set-up cost follows the task count, so tasks are built from columns rather
than field by field: each request is filled positionally with `tuple.__new__`
from zipped columns, a constant demand or duration is repeated rather than
drawn, job ids and users are made once per job, and constraint and machine
draws are taken in one pass each, every item sharing the set of ids it drew.
Every random draw is still the standard library's call, made in the same
order, so a seed gives the same tasks and machines as drawing one by one.
"""

from __future__ import annotations

import csv
import functools
import math
import random
import sys
from dataclasses import dataclass
from itertools import accumulate, chain, compress, cycle, islice, repeat
from operator import add, lt, mul, truediv
from typing import Iterator, Sequence

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
        first_line: dict[str, int] = {}  # task id -> the line that named it
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
            first = first_line.setdefault(task_id, lineno)
            if first != lineno:
                raise TraceFormatError(
                    f"{path}:{lineno}: task id {task_id!r} repeats line {first}")
            tasks.append(TaskRequest(
                task_id, job_id, user_id,
                ResourceVector.of(max(int(cpu), 1), max(int(mem), 1)),
                frozenset(ids), arrival, duration,
            ))
    tasks.sort(key=lambda t: (t.arrival_time, t.task_id))
    return tasks


def _draw_sets(pairs: list[tuple[int, float]], count: int, draw) -> list[frozenset[int]]:
    """The ids each of `count` items draws from the (id, probability) `pairs`:
    one `draw()` per pair, in pair order, item after item, an id taken iff its
    draw falls below its probability.  Items that draw the same ids share one
    set, NO_CONSTRAINTS for none."""
    if not pairs:
        return [NO_CONSTRAINTS] * count
    ids, probabilities = zip(*pairs)
    hits = map(lt, iter(draw, None), cycle(probabilities))  # draw() never returns None
    shared = functools.cache(lambda hit: frozenset(compress(ids, hit)) or NO_CONSTRAINTS)
    return list(map(shared, islice(zip(*[hits] * len(ids)), count)))  # a tuple of hits per item


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
    drawn = _draw_sets(pairs, len(bases), random.Random(f"{seed}/task-constraints").random)
    return [base | ids if base else ids for base, ids in zip(bases, drawn)]


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
        pairs = sorted(profile_by_lm[lm_id].probabilities.items())
        lm_nodes = by_lm[lm_id]
        for node, ids in zip(lm_nodes, _draw_sets(pairs, len(lm_nodes), rng.random)):
            node.machine_constraints = ids
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

    The draw order is part of the output, so a seed always gives the same
    tasks.  Constraints come from their own `{seed}/task-constraints` stream
    (see `_draw_constraints`).  The `{seed}/synthetic` stream first gives
    every Poisson gap, one `expovariate(rate)` per task, then, task after
    task, the task's demand (one `choices` draw, for a mixture only) and then
    its duration (one `expovariate` or `choices` draw, for a non-constant
    spec only).  A constant draws nothing, and when only one of the two is
    drawn its draws run back to back.
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
        arrivals = list(map(truediv, range(1, count + 1), repeat(rate)))
    elif arrival == "poisson":
        gaps = list(map(rng.expovariate, repeat(rate, count)))
        scale = (count / rate) / math.fsum(gaps)
        arrivals = list(accumulate(map(mul, gaps, repeat(scale))))
    else:
        raise ConfigurationError(f"unknown arrival process {arrival!r}")
    _check_span(arrivals[-1], load_factor)
    if load_factor != 1:
        arrivals = map(truediv, arrivals, repeat(load_factor))

    choices = rng.choices
    cum_weights = (None if isinstance(demand, ResourceVector)
                   else list(accumulate(w for _, w in demand)))
    if isinstance(duration, (int, float)):
        durations = repeat(float(duration))
        demands = (repeat(demand) if cum_weights is None
                   else choices(vectors, cum_weights=cum_weights, k=count))
    else:
        if duration[0] == "exp":
            expovariate, lambd = rng.expovariate, 1.0 / duration[1]

            def draw_duration() -> float:
                return max(expovariate(lambd), 1e-6)
        else:
            values, weights = duration[1], duration[2]

            def draw_duration() -> float:
                return choices(values, weights=weights)[0]
        if cum_weights is None:
            demands, durations = repeat(demand), [draw_duration() for _ in range(count)]
        else:  # demand, then duration, task after task
            demands, durations = zip(*[(choices(vectors, cum_weights=cum_weights)[0],
                                        draw_duration()) for _ in range(count)])

    jobs = range((count + 9) // 10)  # ten tasks per job, one id and user each
    job_ids = chain.from_iterable(map(repeat, map("j{:05d}".format, jobs), repeat(10)))
    users = chain.from_iterable(map(repeat, islice(cycle(user_ids), len(jobs)), repeat(10)))
    # tuple.__new__ fills each request in C, past the generated Python __new__
    return list(map(tuple.__new__, repeat(TaskRequest), zip(
        _task_ids(count), job_ids, users, demands, constraints, arrivals, durations)))


def _task_ids(count: int) -> Iterator[str]:
    """f"t{i:06d}" for each i in range(count), built as the head f"t{i // 100:04d}"
    joined to the tail f"{i % 100:02d}": a format per hundred ids and a
    hundred tails formatted once, not a format per id."""
    tails = list(map("{:02d}".format, range(min(count, 100))))
    heads = map("t{:04d}".format, range((count + 99) // 100))
    return islice(map(add, chain.from_iterable(map(repeat, heads, repeat(len(tails)))),
                      cycle(tails)), count)


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
