"""Event loop ordering, actor clocks, and the message-delay model."""

import random

import pytest

from fedsched.engine import (HEARTBEAT, PROBE, TASK_LAUNCH, ActorClock, DelayModel,
                             EventLoop, Network)
from fedsched.errors import LivelockError, SimulationError
from fedsched.metrics import TaskRun
from fedsched.worker import start_task

from scenarios import task


def record(seen, now):
    """A handler that notes the time it fires at."""
    seen.append(now)


def ignore(_, now):
    """A handler that does nothing."""


def note(seen):
    """A handler that notes its argument and the time it fires at."""
    return lambda arg, t: seen.append((arg, t))


class TestEventLoop:
    def test_future_event_dispatched_at_its_time(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda _, t: loop.schedule(5.0, record, seen), None)
        loop.run()
        assert seen == [5.0]

    def test_same_time_events_keep_schedule_order(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda arg, t: seen.append(arg), "first")
        loop.schedule(5.0, lambda arg, t: seen.append(arg), "second")
        loop.run()
        assert seen == ["first", "second"]

    def test_past_dated_schedule_is_fatal(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda _, t: loop.schedule(0.5, ignore, None), None)
        with pytest.raises(SimulationError):
            loop.run()

    def test_clock_monotone_across_dispatches(self):
        loop = EventLoop()
        times = []
        for t in (3.0, 1.0, 2.0, 1.0):
            loop.schedule(t, record, times)
        loop.run()
        assert times == sorted(times)

    def test_livelock_guard_trips_without_progress(self):
        loop = EventLoop(event_cap=100)

        def spin(_, t):
            loop.schedule(t + 0.001, spin, None)

        loop.schedule(0.0, spin, None)
        with pytest.raises(LivelockError):
            loop.run()

    def test_progress_notes_reset_the_guard(self):
        loop = EventLoop(event_cap=100)
        count = [0]

        def stepper(_, t):
            count[0] += 1
            loop.note_progress()
            if count[0] < 500:
                loop.schedule(t + 0.001, stepper, None)

        loop.schedule(0.0, stepper, None)
        loop.run()
        assert count[0] == 500

    def test_empty_loop_runs_to_nothing(self):
        loop = EventLoop()
        loop.run()
        assert loop.events_dispatched == 0


class TestArrivalFeed:
    def test_arrival_dispatches_ahead_of_an_earlier_scheduled_event(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, note(seen), "event")
        loop.feed([(1.0, note(seen), "arrival")])
        loop.run()
        assert seen == [("arrival", 1.0), ("event", 1.0)]

    def test_arrival_dispatches_ahead_of_an_event_scheduled_while_running(self):
        loop = EventLoop()
        seen = []
        loop.schedule(0.5, lambda _, t: loop.schedule(2.0, note(seen), "event"), None)
        loop.feed([(1.0, note(seen), "a1"), (2.0, note(seen), "a2")])
        loop.run()
        assert seen == [("a1", 1.0), ("a2", 2.0), ("event", 2.0)]

    def test_equal_times_keep_list_order(self):
        loop = EventLoop()
        seen = []
        loop.feed([(1.0, note(seen), name) for name in ("a", "b", "c", "d")])
        loop.run()
        assert [name for name, _ in seen] == ["a", "b", "c", "d"]

    def test_unsorted_list_dispatches_in_stable_time_order(self):
        loop = EventLoop()
        seen = []
        noted = note(seen)
        loop.feed([(2.0, noted, "late"), (1.0, noted, "x"), (2.0, noted, "late2"),
                   (0.5, noted, "first"), (1.0, noted, "y")])
        loop.run()
        assert seen == [("first", 0.5), ("x", 1.0), ("y", 1.0), ("late", 2.0),
                        ("late2", 2.0)]

    def test_arrivals_are_events_for_the_count_and_the_hook(self):
        loop = EventLoop()
        hooked = []
        loop.post_event_hook = hooked.append
        loop.feed([(1.0, ignore, None), (2.0, ignore, None)])
        loop.schedule(1.5, ignore, None)
        loop.run()
        assert loop.events_dispatched == 3
        assert hooked == [1.0, 1.5, 2.0]

    def test_arrivals_count_toward_the_livelock_limit(self):
        loop = EventLoop(event_cap=3)
        loop.feed([(float(i), ignore, None) for i in range(10)])
        loop.schedule(100.0, ignore, None)
        # the fourth arrival trips the cap: one arrival waits on the heap
        # beside the scheduled event, five more are not on it yet
        with pytest.raises(LivelockError, match=r"pending=7\)"):
            loop.run()
        assert loop.events_dispatched == 4

    def test_progress_notes_in_arrivals_reset_the_guard(self):
        loop = EventLoop(event_cap=3)
        loop.feed([(float(i), lambda _, t: loop.note_progress(), None) for i in range(10)])
        loop.run()
        assert loop.events_dispatched == 10

    def test_arrivals_are_fed_once(self):
        loop = EventLoop()
        loop.feed([])
        with pytest.raises(SimulationError):
            loop.feed([(1.0, ignore, None)])

    def test_past_dated_arrival_is_fatal(self):
        loop = EventLoop()
        with pytest.raises(SimulationError):
            loop.feed([(1.0, ignore, None), (-1.0, ignore, None)])


def complete(loop, start, duration, handler, arg):
    """Start a task at `start` whose completion fires `handler(arg, end)`."""
    start_task(loop, TaskRun(task("c", duration=duration)), start, handler, arg)


class TestCompletionOrder:
    """Completions wait apart from other events yet dispatch in the one
    (time, seq) order, arrivals first."""

    @pytest.mark.parametrize("completion_first", [True, False])
    @pytest.mark.parametrize("other", ["schedule", "send"])
    def test_completion_and_another_event_at_one_time_keep_push_order(
            self, other, completion_first):
        loop = EventLoop()
        network = Network(loop, DelayModel(network_delay=0.0))
        seen = []
        pushes = {"completion": lambda: complete(loop, 0.5, 0.5, note(seen), "completion"),
                  "schedule": lambda: loop.schedule(1.0, note(seen), "schedule"),
                  "send": lambda: network.send(1.0, HEARTBEAT, note(seen), "send")}
        order = ["completion", other] if completion_first else [other, "completion"]
        for kind in order:
            pushes[kind]()
        loop.run()
        assert seen == [(kind, 1.0) for kind in order]

    def test_arrival_dispatches_ahead_of_a_completion_at_its_time(self):
        loop = EventLoop()
        seen = []
        complete(loop, 0.0, 1.0, note(seen), "completion")
        loop.feed([(1.0, note(seen), "arrival")])
        # a completion pushed at 1.0, after the arrival went on the heap
        loop.schedule(0.5, lambda _, t: complete(loop, t, 0.5, note(seen), "late"), None)
        loop.run()
        assert seen == [("arrival", 1.0), ("completion", 1.0), ("late", 1.0)]

    @pytest.mark.parametrize("seed", [1, 7, 42, 1988, 65537])
    def test_random_interleaving_follows_the_time_seq_order(self, seed):
        # every time is a multiple of 0.5, so sums are exact and collide often
        rng = random.Random(seed)
        loop = EventLoop()
        network = Network(loop, DelayModel(network_delay=0.0))
        pushed = []  # (time, seq, label): the loop numbers pushes as they come
        dispatched = []
        budget = [400]

        def fire(label, now):
            dispatched.append(label)
            for _ in range(rng.choice((0, 1, 2, 2, 3))):
                if budget[0] == 0:
                    return
                budget[0] -= 1
                kind = rng.choice(("completion", "tick", "send"))
                at = now + rng.choice((0.0, 0.5, 1.0))
                label = f"{kind}{len(pushed)}"
                pushed.append((at, len(pushed), label))
                if kind == "completion":
                    complete(loop, now, at - now, fire, label)
                elif kind == "tick":
                    loop.schedule(at, fire, label)
                else:
                    network.send(at, HEARTBEAT, fire, label)

        arrivals = [(0.5 * rng.randrange(8), fire, f"arrival{i}") for i in range(20)]
        loop.feed(arrivals)
        loop.run()
        assert budget[0] == 0
        reference = sorted([(at, -1, i, label) for i, (at, _, label) in enumerate(arrivals)]
                           + [(at, seq, 0, label) for at, seq, label in pushed])
        assert dispatched == [label for *_, label in reference]
        assert loop.events_dispatched == len(reference)

    def test_past_dated_completion_is_fatal(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda _, t: complete(loop, 0.5, 0.25, ignore, None), None)
        with pytest.raises(SimulationError):
            loop.run()

    def test_livelock_report_counts_pending_completions(self):
        loop = EventLoop(event_cap=3)
        for _ in range(4):
            complete(loop, 0.0, 100.0, ignore, None)

        def spin(_, t):
            loop.schedule(t + 0.001, spin, None)

        loop.schedule(0.0, spin, None)
        # four completions wait beside the next spin
        with pytest.raises(LivelockError, match=r"pending=5\)"):
            loop.run()


class TestActorClock:
    def test_idle_actor_starts_at_arrival(self):
        clock = ActorClock()
        assert clock.begin(3.0) == 3.0

    def test_busy_actor_queues_work(self):
        clock = ActorClock()
        start = clock.begin(1.0)
        done = clock.charge(start, 0.5)
        assert done == 1.5
        assert clock.begin(1.2) == 1.5

    def test_charge_accumulates(self):
        clock = ActorClock()
        done = clock.charge(clock.begin(0.0), 0.25)
        done = clock.charge(clock.begin(done), 0.25)
        assert done == 0.5


class TestDelayModel:
    def test_default_network_delay(self):
        assert DelayModel().delay_for(HEARTBEAT) == 0.0005

    def test_launch_delay_is_an_override_of_network_delay(self):
        assert DelayModel().delay_for(TASK_LAUNCH) == 0.0005
        model = DelayModel(overrides={TASK_LAUNCH: 0.002})
        assert model.delay_for(TASK_LAUNCH) == 0.002
        assert model.delay_for(HEARTBEAT) == 0.0005

    def test_per_kind_override(self):
        model = DelayModel(overrides={PROBE: 0.0001})
        assert model.delay_for(PROBE) == 0.0001
        assert model.delay_for(HEARTBEAT) == 0.0005


class TestNetwork:
    def test_delivery_time(self):
        loop = EventLoop()
        network = Network(loop, DelayModel())
        seen = []
        loop.schedule(10.0, lambda _, t: network.send(t, HEARTBEAT, record, seen), None)
        loop.run()
        assert seen == [10.0005]

    def test_send_accrues_communication_to_run(self):
        loop = EventLoop()
        network = Network(loop, DelayModel(network_delay=0.003))
        run = TaskRun(task("t1"))
        loop.schedule(0.0, lambda _, t: network.send(t, HEARTBEAT, ignore, None, run=run), None)
        loop.run()
        assert run.communication == 0.003

    def test_send_without_metrics_charges_nothing(self):
        loop = EventLoop()
        network = Network(loop, DelayModel(network_delay=0.003))
        live = TaskRun(task("t1"))
        seen = []
        # the live run is charged for its own send only, not for the later one
        loop.schedule(0.0, lambda _, t: network.send(t, HEARTBEAT, ignore, None, run=live),
                      None)
        loop.schedule(1.0, lambda _, t: network.send(t, HEARTBEAT, record, seen, run=None),
                      None)
        loop.run()
        assert seen == [1.003]
        assert live.communication == 0.003

    def test_zero_delay_orders_by_sequence(self):
        loop = EventLoop()
        network = Network(loop, DelayModel(network_delay=0.0))
        seen = []

        def fire(_, t):
            network.send(t, HEARTBEAT, lambda arg, t2: seen.append(arg), "a")
            network.send(t, HEARTBEAT, lambda arg, t2: seen.append(arg), "b")

        loop.schedule(1.0, fire, None)
        loop.run()
        assert seen == ["a", "b"]

    def test_send_in_the_past_is_fatal(self):
        loop = EventLoop()
        network = Network(loop, DelayModel())
        loop.schedule(1.0, lambda _, t: network.send(0.5, HEARTBEAT, ignore, None), None)
        with pytest.raises(SimulationError):
            loop.run()
