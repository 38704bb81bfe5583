"""Probe baseline: sampling, estimate-based choice, and FIFO worker queuing."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

from fedsched.config import ExperimentConfig, config_from_dict
from fedsched.engine import (PROBE, PROBE_REPLY, TASK_LAUNCH, DelayModel, EventLoop,
                             Network)
from fedsched.experiment import build_sparrow, run_experiment
from fedsched.metrics import MetricsCollector, TaskRun
from fedsched.sparrow import ProbeScheduler
from fedsched.worker import FifoWorker
from fedsched.workload import ClusterProfile

from scenarios import ZERO_COSTS, cs, task

HOP = 0.0005
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def setup(worker_specs, *, probe_count=2, seed=0, costs=ZERO_COSTS, delays=None):
    """worker_specs: (node_id, slots), any order.

    The tasks submitted here carry no constraints, so every worker is
    eligible for them.
    """
    loop = EventLoop()
    network = Network(loop, delays or DelayModel())
    collector = MetricsCollector()
    workers = [FifoWorker(node_id, slots, loop, collector)
               for node_id, slots in sorted(worker_specs)]
    sched = ProbeScheduler("s00", loop, network, {cs(): workers}, costs,
                           collector, probe_count=probe_count, seed=seed)
    return sched, {w.node_id: w for w in workers}, loop, collector


def submit(sched, loop, collector, request):
    """Arrive `request` at `sched` at its arrival time; its run is made then."""
    collector.admitted += 1
    loop.schedule(request.arrival_time, sched.on_task_arrival, request)


def record_of(collector, task_id):
    """The task's allocation record, or None if it never started."""
    return next((r for r in collector.records if r.task_id == task_id), None)


def test_idle_worker_starts_after_probe_round_trip_and_payload():
    sched, workers, loop, collector = setup([("a", 1), ("b", 1)])
    submit(sched, loop, collector, task("t0"))
    loop.run()
    record = record_of(collector, "t0")
    assert record is not None
    # probes fan out in parallel: one round trip, then the launch hop
    assert record.communication_delay == pytest.approx(3 * HOP, abs=1e-12)
    assert record.worker_queuing_delay == 0.0
    assert record.task_start == pytest.approx(3 * HOP, abs=1e-12)
    assert record.attempts == 1
    assert record.allocation_time == pytest.approx(
        record.framework_queuing_delay + record.processing_delay
        + record.worker_queuing_delay + record.communication_delay, abs=1e-9)


def test_single_slot_worker_queues_second_task_fifo():
    sched, workers, loop, collector = setup([("a", 1)])
    submit(sched, loop, collector, task("t1", duration=1.0))
    submit(sched, loop, collector, task("t2", duration=1.0))
    loop.run()
    assert record_of(collector, "t1").worker_queuing_delay == 0.0
    r2 = record_of(collector, "t2")
    assert r2.worker_queuing_delay == pytest.approx(1.0, abs=1e-9)
    assert r2.task_start == pytest.approx(1.0 + 3 * HOP, abs=1e-9)
    assert r2.allocation_time == pytest.approx(
        r2.framework_queuing_delay + r2.processing_delay
        + r2.worker_queuing_delay + r2.communication_delay, abs=1e-9)


def test_lowest_estimate_wins():
    sched, workers, loop, collector = setup([("a", 1), ("b", 1)])
    # preload worker a: one task running, one queued for 9 more seconds
    for tid in ("x1", "x2"):
        workers["a"].enqueue(TaskRun(task(tid, duration=9.0)), 0.0)
    assert workers["a"].estimated_wait() == pytest.approx(9.0)
    assert workers["b"].estimated_wait() == 0.0

    submit(sched, loop, collector, task("t0", duration=1.0))
    loop.run()
    # the probe pair saw estimates 9.0 and 0.0 and picked the idle worker
    assert record_of(collector, "t0").worker_queuing_delay == 0.0
    assert record_of(collector, "t0").task_start == pytest.approx(3 * HOP, abs=1e-9)


def test_equal_estimates_tie_break_on_lower_node_id():
    sched, workers, loop, collector = setup([("a", 1), ("b", 1)], seed=13)
    submit(sched, loop, collector, task("t0", duration=1.0))
    seen = {}
    loop.schedule(0.002, lambda _, t: seen.update(
        a=workers["a"].active, b=workers["b"].active), None)
    loop.run()
    assert seen == {"a": 1, "b": 0}


@pytest.mark.parametrize("load_at, chosen", [(HOP / 2, "b"), (3 * HOP / 2, "a")],
                         ids=["before the probes land", "before the replies land"])
def test_estimates_are_read_as_the_probes_land(load_at, chosen):
    # the probes land at one hop and the replies at two: worker a gets a
    # running and a queued task either before the probes land, so its
    # estimate is 9.0 when read, or after, so both read 0 and a wins the tie
    sched, workers, loop, collector = setup([("a", 1), ("b", 1)])

    def load_a(_, now):
        for tid in ("x1", "x2"):
            workers["a"].enqueue(TaskRun(task(tid, duration=9.0)), now)

    loop.schedule(load_at, load_a, None)
    submit(sched, loop, collector, task("t0", duration=1.0))
    seen = []
    loop.schedule(4 * HOP, lambda _, t: seen.append(
        "b" if workers["b"].active else
        "a" if [r.request.task_id for r, _ in workers["a"].queue] == ["x2", "t0"] else None),
        None)
    loop.run()
    assert seen == [chosen]


def test_sample_shrinks_to_eligible_pool():
    sched, workers, loop, collector = setup(
        [("a", 1), ("b", 1), ("c", 1)], probe_count=5)
    submit(sched, loop, collector, task("t0"))
    loop.run()
    assert record_of(collector, "t0") is not None  # three probes, no sampling error


@pytest.mark.parametrize("n", [2, 3, 20, 21, 22, 1000, 1024])
@pytest.mark.parametrize("k", [1, 2, 5, 6])
@pytest.mark.parametrize("seed", [0, 104729])
def test_probes_go_to_the_workers_random_sample_picks(n, k, seed, monkeypatch):
    sched, workers, loop, collector = setup([(f"w{i:04d}", 1) for i in range(n)],
                                            probe_count=k, seed=seed)
    pool = list(workers.values())
    reference = random.Random()
    reference.setstate(sched.rng.getstate())
    sent = []
    send = sched.network.send
    monkeypatch.setattr(sched.network, "send",
                        lambda t, kind, handler, arg, **kw: sent.append((kind, list(arg[1])))
                        or send(t, kind, handler, arg, **kw))
    for i in range(3):
        sent.clear()
        sched.on_task_arrival(task(f"t{i}"), 0.0)
        # one probe delivery per round, naming the sampled workers in sample
        # order; with k or fewer eligible workers every one is probed, and
        # nothing drawn
        assert sent == [(PROBE, reference.sample(pool, k) if n > k else pool)]
        assert sched.rng.getstate() == reference.getstate()


def test_constraint_filter_and_unschedulable_marking():
    # eligibility is worked out once, when the cluster is built: both
    # workers carry constraint 1, and a task needing 2 never reaches a
    # scheduler
    config = ExperimentConfig(scheduler="sparrow", lm_count=1, workers_per_lm=2,
                              machine_profiles=[ClusterProfile("p", {1: 1.0})],
                              costs=ZERO_COSTS)
    tasks = [task("t_ok", constraints=(1,)), task("t_bad", constraints=(2,))]
    loop, collector, workers, schedulers = build_sparrow(config, tasks)
    assert schedulers[0].eligible[cs(1)] == workers
    loop.run()
    assert [r.task_id for r in collector.records] == ["t_ok"]
    assert collector.unschedulable == ["t_bad"]


def test_probe_handling_cost_serializes_the_scheduler():
    costs = dataclasses.replace(ZERO_COSTS, probe_handling=0.01)
    sched, workers, loop, collector = setup([("a", 1), ("b", 1)], costs=costs)
    submit(sched, loop, collector, task("t1"))
    submit(sched, loop, collector, task("t2"))
    loop.run()
    r1, r2 = record_of(collector, "t1"), record_of(collector, "t2")
    assert r1.processing_delay == pytest.approx(0.01, abs=1e-12)
    assert r1.framework_queuing_delay == 0.0
    assert r2.processing_delay == pytest.approx(0.01, abs=1e-12)
    assert r2.framework_queuing_delay == pytest.approx(0.01, abs=1e-12)


def test_same_seed_reproduces_identical_records():
    def once():
        sched, workers, loop, collector = setup(
            [(f"w{i}", 1) for i in range(6)], seed=7)
        for i in range(20):
            submit(sched, loop, collector,
                   task(f"t{i:02d}", arrival=i * 0.1, duration=0.5))
        loop.run()
        return collector.records

    assert once() == once()


def test_estimated_wait_is_queued_durations_over_slots():
    loop = EventLoop()
    collector = MetricsCollector()
    worker = FifoWorker("w", 2, loop, collector)
    for tid in ("t1", "t2"):  # fill both slots
        worker.enqueue(TaskRun(task(tid, duration=5.0)), 0.0)
    assert worker.estimated_wait() == 0.0  # running work is not queued work
    assert type(worker.estimated_wait()) is float
    for tid in ("t3", "t4", "t5"):
        worker.enqueue(TaskRun(task(tid, duration=2.0)), 0.0)
    assert worker.estimated_wait() == pytest.approx(3.0)
    assert worker.active == 2 and len(worker.queue) == 3


def test_slots_run_concurrently():
    sched, workers, loop, collector = setup([("a", 2)])
    for i in range(3):
        submit(sched, loop, collector, task(f"t{i}", duration=1.0))
    loop.run()
    assert record_of(collector, "t0").worker_queuing_delay == 0.0
    assert record_of(collector, "t1").worker_queuing_delay == 0.0
    assert record_of(collector, "t2").worker_queuing_delay == pytest.approx(1.0, abs=1e-9)


def test_low_load_median_beats_federated_scheduler():
    # probing is one round-trip while the federated path pays GM and LM hops,
    # so with hop delays small enough that per-request processing dominates,
    # the baseline should win the median on a lightly loaded cluster
    from fedsched.config import ExperimentConfig, WorkloadSpec
    from fedsched.core import ResourceVector
    from fedsched.experiment import run_experiment

    workload = dict(count=2000, rate=100.0, duration=1.0,
                    demand=ResourceVector.of(16, 4096))
    delays = DelayModel(network_delay=1e-5)
    slots = 4 * 200  # 200 workers, 4 slots each; 100/s * 1s / 800 = 12.5% busy
    probe = run_experiment(ExperimentConfig(
        scheduler="sparrow", lm_count=2, workers_per_lm=100,
        slot_demand=ResourceVector.of(16, 4096), delays=delays,
        workload=WorkloadSpec(**workload), seed=42))
    megha = run_experiment(ExperimentConfig(
        gm_count=2, lm_count=2, workers_per_lm=100, delays=delays,
        workload=WorkloadSpec(**workload), seed=42))

    assert workload["rate"] * workload["duration"] / slots < 0.2
    p_median = probe.summary["allocation_time"]["median"]
    m_median = megha.summary["allocation_time"]["median"]
    assert p_median <= m_median
    # at this load probing itself is the only processing a task pays for
    handling = probe.config.costs.probe_handling
    assert all(r.processing_delay <= handling + 1e-12 for r in probe.records)


def sparrow_config(**overrides):
    """`configs/sparrow.json`, with top-level fields replaced."""
    data = json.loads((CONFIGS / "sparrow.json").read_text())
    return config_from_dict({**data, **overrides})


def test_distinct_probe_reply_and_launch_delays_close_every_record():
    hops = {PROBE: 0.001, PROBE_REPLY: 0.002, TASK_LAUNCH: 0.004}
    result = run_experiment(sparrow_config(delays={"overrides": hops}))
    assert len(result.records) == 2000
    for r in result.records:
        # each task pays one probe hop, one reply hop and the launch hop
        assert r.communication_delay == pytest.approx(sum(hops.values()), abs=1e-12)
        assert abs(r.allocation_time - (
            r.framework_queuing_delay + r.processing_delay
            + r.worker_queuing_delay + r.communication_delay)) <= 1e-9


def test_each_task_dispatches_five_events():
    # arrival, one probe delivery, one reply, the launch and the completion
    result = run_experiment(sparrow_config(workload={
        "kind": "synthetic", "count": 300, "rate": 250.0, "duration": 1.0,
        "demand": [16, 4096]}))
    placed = len(result.records)
    assert placed == 300 and not result.unschedulable
    assert result.events_dispatched == 5 * placed
