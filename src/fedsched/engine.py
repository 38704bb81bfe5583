"""Deterministic single-threaded discrete-event loop and message timing.

Events are (fire_time, seq, handler, arg) tuples, dispatched as
`handler(arg, fire_time)`: a bound method and its message, or a function and
its owner, so no closure is built per event.  seq is a monotonically
increasing counter so ties at the same timestamp dispatch in scheduling order.

The entries wait on two heaps.  Task completions, pushed by
`worker.start_task` through `EventLoop.complete_at`, have one of their own;
message deliveries, `schedule`d events (GM ticks, LM heartbeats) and the
next arrival share the message heap.  A completion waits as long as its
task runs, so its heap is about the size of the running set, while the
message heap holds the few events in flight.  On the benchmark shapes the
two hold, on average, 2,250 completions against 2.4 messages (probe
baseline), 287 against 3.5 (centralized) and 555 against 9.4 (contended
federated); apart, a message no longer sifts through the completions.
Both heaps number their entries from the one counter, and only the
arrival, never a completion, carries seq -1, so no two entries compare
equal and `run` pops whichever head is the smaller tuple: the union
dispatches in exactly the (time, seq) order of one heap.

Task arrivals are fed in from one list sorted stably by time (`feed`), and
only the next one waits on the message heap, under seq -1: an arrival
dispatches ahead of every other event due at the same time, and arrivals
with equal times keep their list order.  Identical configuration and seed
must produce an identical event sequence, so nothing here consults
wall-clock time or unordered collections.

A task's simulated delays are charged here too: `Network.send(run=...)`
adds a hop on the task's path to its communication sum, and
`ActorClock.serve` takes a task's work item in turn on an actor's clock and
adds the wait to its framework queuing and the work to its processing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable, Optional

from .errors import LivelockError, SimulationError

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
    heaps and the sequence counter are made once; `Network` holds the
    message heap and the counter.  Task completions wait on `_completions`,
    everything else on `_heap`, and `run` merges the two heads in (time,
    seq) order.
    """

    def __init__(self, *, event_cap: int = 2_000_000) -> None:
        self._heap: list[tuple[float, int, Handler, Any]] = []
        self._completions: list[tuple[float, int, Handler, Any]] = []
        self._seq = itertools.count()
        # arrivals not yet on the message heap, latest first so the next one pops off the end
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

    def complete_at(self, end: float, handler: Handler, arg: Any) -> None:
        """Queue a task's completion `handler(arg, end)` on the completion
        heap; as with `schedule`, a time in the past is fatal."""
        if end < self._clock:
            raise SimulationError(
                f"task completion at {end} before current time {self._clock}"
            )
        heappush(self._completions, (end, next(self._seq), handler, arg))

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
        """Dispatch events in (time, seq) order until both heaps are empty."""
        heap, completions = self._heap, self._completions
        pop = heappop
        hook, cap = self.post_event_hook, self._event_cap
        while True:
            if heap:
                if completions and completions[0] < heap[0]:
                    fire_time, seq, handler, arg = pop(completions)
                else:
                    fire_time, seq, handler, arg = pop(heap)
            elif completions:
                fire_time, seq, handler, arg = pop(completions)
            else:
                break
            self._clock = fire_time
            if seq < 0:
                self._next_arrival()
            handler(arg, fire_time)
            self.events_dispatched += 1
            self._since_progress += 1
            if self._since_progress > cap:
                raise LivelockError(
                    f"no task progress within {cap} events (clock="
                    f"{self._clock:.6f}, pending="
                    f"{len(heap) + len(completions) + len(self._arrivals)})"
                )
            if hook is not None:
                hook(fire_time)


class ActorClock:
    """Serializes a component's simulated work.

    A work item arriving at `arrival` starts at max(arrival, busy_until); the
    wait is the component-side queuing delay for whatever the work was for.
    `serve` takes a task's work item in turn and charges the wait and the
    work to the task, as `Network.send(run=...)` charges it the hop.
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

    def serve(self, run, arrival: float, cost: float) -> tuple[float, float]:
        """Do `cost` of work for `run` arriving at `arrival`, charged to the
        task as framework queuing and processing; returns (start, done)."""
        start = arrival if arrival >= self.busy_until else self.busy_until
        run.framework_queuing += start - arrival
        run.processing += cost
        self.busy_until = done = start + cost
        return start, done


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
