"""Deterministic single-threaded discrete-event loop and message timing.

Events are (fire_time, seq, handler, arg) tuples on a heap, dispatched as
`handler(arg, fire_time)`: a bound method and its message, or a function and
its owner, so no closure is built per event.  seq is a monotonically
increasing counter so ties at the same timestamp dispatch in scheduling order.

Task arrivals are fed in from one list sorted stably by time (`feed`), and
only the next one waits on the heap, under seq -1: an arrival dispatches
ahead of every other event due at the same time, and arrivals with equal
times keep their list order.  Identical configuration and seed must produce
an identical event sequence, so nothing here consults wall-clock time or
unordered collections.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Optional

from .errors import LivelockError, SimulationError

log = logging.getLogger(__name__)

Handler = Callable[[Any, float], None]

# message kinds understood by the delay model
LAUNCH_REQUEST = "launch_request"
LAUNCH_RESPONSE = "launch_response"
REPARTITION_REQUEST = "repartition_request"
PREEMPT_REQUEST = "preempt_request"
PREEMPT_RESPONSE = "preempt_response"
HEARTBEAT = "heartbeat"
TASK_COMPLETION = "task_completion"
TASK_PREEMPTED = "task_preempted"
TASK_LAUNCH = "task_launch"
PROBE = "probe"
PROBE_REPLY = "probe_reply"
MESSAGE_KINDS = (LAUNCH_REQUEST, LAUNCH_RESPONSE, REPARTITION_REQUEST, PREEMPT_REQUEST,
                 PREEMPT_RESPONSE, HEARTBEAT, TASK_COMPLETION, TASK_PREEMPTED,
                 TASK_LAUNCH, PROBE, PROBE_REPLY)


@dataclass
class DelayModel:
    """Per-message-kind one-way delays, in seconds.

    `network_delay` covers every message kind; `overrides` maps a message
    kind (one of `MESSAGE_KINDS`) to a specific delay when a scenario needs
    one, e.g. `{"task_launch": 0.002}` for a slower launch payload hop.
    """

    network_delay: float = 0.0005
    overrides: dict[str, float] = field(default_factory=dict)

    def delay_for(self, kind: str) -> float:
        return self.overrides.get(kind, self.network_delay)


@dataclass
class CostModel:
    """Simulated processing costs (seconds) charged per operation.

    Merge and heartbeat costs scale with the number of nodes involved so
    larger clusters make the masters measurably busier.
    """

    gm_request_overhead: float = 5e-5
    gm_word_op: float = 1e-6
    gm_node_check: float = 5e-7
    gm_merge_per_node: float = 2e-7
    lm_validate: float = 2e-5
    lm_repartition: float = 3e-5
    lm_preempt_per_victim: float = 2e-5
    lm_heartbeat_per_node: float = 1e-7
    probe_handling: float = 2e-5


class EventLoop:
    """Orders and dispatches simulation events.

    A configurable cap on events dispatched without task progress aborts runs
    that would otherwise spin forever (e.g. a task no node can ever satisfy
    being rescheduled endlessly).  Arrivals count as events for the cap, for
    `events_dispatched` and for `post_event_hook`.  `run` reads the hook and
    the cap once, when it starts, so set the hook before calling `run`.  The
    heap and the sequence counter are made once; `Network` holds both.
    """

    def __init__(self, *, event_cap: int = 2_000_000) -> None:
        self._heap: list[tuple[float, int, Handler, Any]] = []
        self._seq = itertools.count()
        # arrivals not yet on the heap, latest first so the next one pops off the end
        self._arrivals: list[tuple[float, Handler, Any]] = []
        self._fed = False
        self._clock = 0.0
        self._event_cap = event_cap
        self._since_progress = 0
        self.events_dispatched = 0
        self.post_event_hook: Optional[Callable[[float], None]] = None

    def now(self) -> float:
        return self._clock

    def schedule(self, fire_time: float, handler: Handler, arg: Any) -> None:
        """Queue `handler(arg, fire_time)`; scheduling in the past is a fatal
        simulation error."""
        if fire_time < self._clock:
            raise SimulationError(
                f"event scheduled at {fire_time} before current time {self._clock}"
            )
        heappush(self._heap, (fire_time, next(self._seq), handler, arg))

    def feed(self, arrivals: list[tuple[float, Handler, Any]]) -> None:
        """Take the run's arrivals, each (time, handler, request), once.

        They dispatch as `handler(request, time)` in stable time order.
        """
        if self._fed:
            raise SimulationError("arrivals were already fed to this loop")
        self._fed = True
        pending = sorted(arrivals, key=itemgetter(0))
        if pending and pending[0][0] < self._clock:
            raise SimulationError(
                f"arrival at {pending[0][0]} before current time {self._clock}"
            )
        pending.reverse()
        self._arrivals = pending
        self._next_arrival()

    def _next_arrival(self) -> None:
        if self._arrivals:
            time, handler, request = self._arrivals.pop()
            heappush(self._heap, (time, -1, handler, request))

    def note_progress(self) -> None:
        """Reset the livelock budget; call when a task starts or completes."""
        self._since_progress = 0

    def run(self) -> None:
        """Dispatch events in (time, seq) order until the heap is empty."""
        heap = self._heap
        pop = heappop
        hook, cap = self.post_event_hook, self._event_cap
        while heap:
            fire_time, seq, handler, arg = pop(heap)
            self._clock = fire_time
            if seq < 0:
                self._next_arrival()
            handler(arg, fire_time)
            self.events_dispatched += 1
            self._since_progress += 1
            if self._since_progress > cap:
                raise LivelockError(
                    f"no task progress within {cap} events (clock="
                    f"{self._clock:.6f}, pending={len(heap) + len(self._arrivals)})"
                )
            if hook is not None:
                hook(fire_time)


class ActorClock:
    """Serializes a component's simulated work.

    A work item arriving at `arrival` starts at max(arrival, busy_until); the
    wait is the component-side queuing delay for whatever the work was for.
    """

    __slots__ = ("busy_until",)

    def __init__(self) -> None:
        self.busy_until = 0.0

    def begin(self, arrival: float) -> float:
        return arrival if arrival >= self.busy_until else self.busy_until

    def charge(self, start: float, cost: float) -> float:
        done = start + cost
        self.busy_until = done
        return done


class Network:
    """Schedules message deliveries and charges communication time to tasks.

    When a message lies on a task's path to starting (launch and repartition
    requests, failure responses, preemption round trips, the launch payload),
    pass the task's run so the hop is added to its communication sum.
    Off-path messages pass run=None.  Each kind's delay is read from the
    `DelayModel` once, into `delay`, and a delivery is pushed straight onto
    the loop's heap under its sequence counter, both held from construction.
    """

    def __init__(self, loop: EventLoop, delays: DelayModel) -> None:
        self.loop = loop
        self.delay = {kind: delays.delay_for(kind) for kind in MESSAGE_KINDS}
        self._heap, self._seq = loop._heap, loop._seq

    def send(self, send_time: float, kind: str, handler: Handler, arg: Any, *,
             run=None) -> float:
        """Deliver `handler(arg, deliver_at)` one `kind` hop after `send_time`;
        returns `deliver_at`."""
        now = self.loop._clock
        if send_time < now:
            raise SimulationError(f"message sent at {send_time} before now {now}")
        delay = self.delay[kind]
        if run is not None:
            run.communication += delay
        deliver_at = send_time + delay
        heappush(self._heap, (deliver_at, next(self._seq), handler, arg))
        return deliver_at
