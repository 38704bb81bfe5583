"""Global master scenarios: decision flow, retries, and view-driven wakeups."""

import dataclasses

import pytest

from fedsched.config import config_from_dict
from fedsched.engine import DelayModel, EventLoop, Network
from fedsched.errors import ConfigurationError
from fedsched.experiment import build_megha, build_workload, effective_users
from fedsched.fairness import QueueSet
from fedsched.global_master import GlobalMaster
from fedsched.local_master import LocalMaster
from fedsched.messages import TaskPreempted
from fedsched.metrics import MetricsCollector, TaskRun
from fedsched.state import ClusterView, LMStateSnapshot

from scenarios import ZERO_COSTS, build_cluster, build_race_cluster, cs, rv, task

HOP = 0.0005


def one_node_cluster(**kwargs):
    return build_cluster(
        {"lm0": {"gm0": [("n0", rv(2, 4096), cs())]}},
        {"u0": ("gm0", 1.0)}, **kwargs)


def test_clean_launch_request_plus_payload_hops():
    cluster = one_node_cluster()
    cluster.submit(task("t0", demand=rv(2, 4096)), cluster.gms[0])

    seen = {}
    cluster.loop.schedule(0.5, lambda _, t: seen.setdefault(
        "consumed", cluster.gms[0].queues.by_user["u0"].consumed), None)
    cluster.run_all()

    record = cluster.record("t0")
    assert record.attempts == 1
    assert record.framework_queuing_delay == 0.0
    assert record.processing_delay == 0.0
    assert record.worker_queuing_delay == 0.0
    assert record.communication_delay == pytest.approx(2 * HOP, abs=1e-12)
    assert record.allocation_time == (
        record.framework_queuing_delay + record.processing_delay
        + record.worker_queuing_delay + record.communication_delay)

    # consumption is booked while the task runs and released at completion
    assert seen["consumed"] == rv(2, 4096)
    assert cluster.gms[0].queues.by_user["u0"].consumed == rv(0, 0)


def test_a_launch_request_reads_back_by_field_name():
    cluster = one_node_cluster()
    lm, sent = cluster.lms[0], []
    forward = lm.on_launch_request
    lm.on_launch_request = lambda req, now: (sent.append(req), forward(req, now))
    cluster.submit(task("t0", demand=rv(2, 4096), constraints=()), cluster.gms[0])
    cluster.run_all()
    req, = sent
    assert (req.gm_id, req.task_id, req.node_id, req.demand, req.constraints) == (
        "gm0", "t0", "n0", rv(2, 4096), cs())
    assert req.run.request.task_id == "t0"


def test_race_charges_both_decision_passes():
    costs = dataclasses.replace(ZERO_COSTS, gm_request_overhead=1e-4)
    cluster, t0, t1 = build_race_cluster(costs=costs)
    cluster.run_all()
    records = {r.task_id: r for r in cluster.collector.records}

    r0 = records["t0"]
    assert r0.attempts == 1
    assert r0.processing_delay == pytest.approx(1e-4, abs=1e-12)

    r1 = records["t1"]
    assert r1.attempts == 2
    assert r1.processing_delay == pytest.approx(2e-4, abs=1e-12)
    assert r1.communication_delay == pytest.approx(4 * HOP, abs=1e-9)
    for record in records.values():
        assert record.allocation_time == pytest.approx(
            record.framework_queuing_delay + record.processing_delay
            + record.worker_queuing_delay + record.communication_delay,
            abs=1e-12)


def test_internal_scan_start_rotates_round_robin():
    cluster = build_cluster(
        {"lm0": {"gm0": [("a0", rv(4, 8192), cs())]},
         "lm1": {"gm0": [("b0", rv(4, 8192), cs())]},
         "lm2": {"gm0": [("c0", rv(4, 8192), cs())]}},
        {"u0": ("gm0", 1.0)})
    for i in range(3):
        cluster.submit(task(f"t{i}", demand=rv(1, 256)), cluster.gms[0])
    cluster.run_all()
    placed = [e["node_id"] for e in cluster.collector.audit_launches
              if e["kind"] == "launch"]
    # each request starts its scan one partition later than the last
    assert placed == ["a0", "b0", "c0"]


def test_external_scan_rotates_over_lms():
    cluster = build_cluster(
        {"lm0": {"gm0": [("a0", rv(4, 8192), cs())], "gm1": []},
         "lm1": {"gm0": [("b0", rv(4, 8192), cs())], "gm1": []}},
        {"u0": ("gm0", 0.5), "u1": ("gm1", 0.5)})
    cluster.submit(task("t0", user="u1", demand=rv(1, 256)), cluster.gms[1])
    cluster.submit(task("t1", user="u1", demand=rv(1, 256)), cluster.gms[1])
    cluster.run_all()
    sources = [e["node_id"] for e in cluster.collector.audit_launches
               if e["kind"] == "repartition"]
    # the second carve-out starts its search on the next LM, though a0 still fits
    assert sources == ["a0", "b0"]


def test_search_starts_move_per_attempt_and_per_external_pass():
    # 3 LMs x 3 GMs: gm0's own nodes take only small requests, so a big one
    # misses internally and carves out of the other GMs' nodes, two per LM
    small, big = rv(1, 256), rv(4, 8192)
    mine, theirs = rv(2, 4096), rv(8, 16384)
    cluster = build_cluster(
        {lm: {"gm0": [(f"{lm}-own", mine, cs())],
              "gm1": [(f"{lm}-g1", theirs, cs())],
              "gm2": [(f"{lm}-g2", theirs, cs())]}
         for lm in ("lm0", "lm1", "lm2")},
        {"u0": ("gm0", 0.4), "u1": ("gm1", 0.3), "u2": ("gm2", 0.3)})
    gm = cluster.gms[0]
    for i, demand in enumerate([small, big, small, big, big, small, small]):
        cluster.submit(task(f"t{i}", demand=demand), gm)
    cluster.run_all()
    placed = [(e["kind"], e["node_id"]) for e in cluster.collector.audit_launches]
    # own start: lm0, lm1, ... one LM per attempt, big or small; others' start:
    # lm0, lm1, lm2 one LM (two partitions) per external pass, the first fit in
    # each LM being gm1's partition
    assert placed == [("launch", "lm0-own"), ("repartition", "lm0-g1"),
                      ("launch", "lm2-own"), ("repartition", "lm1-g1"),
                      ("repartition", "lm2-g1"), ("launch", "lm2-own"),
                      ("launch", "lm0-own")]


def test_each_gm_searches_every_view_partition_once_in_lm_order():
    config = config_from_dict({
        "scheduler": "megha", "gm_count": 4, "lm_count": 5, "workers_per_lm": 8,
        "workload": {"kind": "synthetic", "count": 1, "rate": 1.0, "duration": 0.1,
                     "demand": [1, 256]},
        "seed": 1})
    users = effective_users(config)
    _, _, lms, gms = build_megha(config, build_workload(config, users), users)
    lm_ids = [lm.lm_id for lm in lms]
    for gm in gms:
        assert [(p.lm_id, p.owner_gm_id) for p in gm.own] == [
            (lm_id, gm.gm_id) for lm_id in lm_ids]
        others = list(gm.others)
        assert len(others) == len(lm_ids) * (len(gms) - 1)
        assert len(set(map(id, others))) == len(others)
        assert all(p.owner_gm_id != gm.gm_id for p in others)
        assert [p.lm_id for p in others] == [
            lm_id for lm_id in lm_ids for _ in range(len(gms) - 1)]
        assert len(gm.own) + len(others) == len(gm.view.partitions) == 4 * 5


def test_view_partitions_in_key_order_past_100_lms():
    # LM-list order puts lm100 last; key order puts it between lm10 and lm11,
    # and the victim scan visits view.partitions in their insertion order
    config = config_from_dict({
        "scheduler": "megha", "gm_count": 1, "lm_count": 101, "workers_per_lm": 1,
        "workload": {"kind": "synthetic", "count": 3, "rate": 1.0, "duration": 0.1,
                     "demand": [1, 256]},
        "seed": 1})
    users = effective_users(config)
    _, _, lms, (gm,) = build_megha(config, build_workload(config, users), users)
    assert lms[-1].lm_id == "lm100"
    assert list(gm.view.partitions) == sorted(gm.view.partitions)


def test_full_view_parks_queue_until_merge_bumps_version():
    cluster = one_node_cluster()
    gm = cluster.gms[0]
    cluster.submit(task("tl", demand=rv(2, 4096), duration=2.0), gm)
    cluster.submit(task("tw", demand=rv(2, 4096), duration=1.0), gm)
    cluster.run_all()

    assert cluster.record("tl").task_start == pytest.approx(2 * HOP, abs=1e-9)
    r = cluster.record("tw")
    # pass 1 at arrival, pass 2 after the success-response merge, pass 3
    # after the completion merge finally shows the node free
    assert r.attempts == 3
    assert cluster.collector.counters["reschedules"] == 2
    assert r.task_start == pytest.approx(2.0 + 5 * HOP, abs=1e-6)
    assert r.communication_delay == pytest.approx(2 * HOP, abs=1e-9)
    assert r.allocation_time == pytest.approx(
        r.framework_queuing_delay + r.processing_delay
        + r.worker_queuing_delay + r.communication_delay, abs=1e-12)
    # parked, not spinning: the whole run is a few dozen events
    assert cluster.loop.events_dispatched < 60


def test_retry_limit_sends_task_back_to_queue_tail():
    cap = rv(2, 4096)
    cluster = build_cluster(
        {"lm0": {"gm0": [("n0", cap, cs()), ("n1", cap, cs())], "gm1": []}},
        {"u0": ("gm0", 0.5), "u1": ("gm1", 0.5)},
        retry_limit=1)
    cluster.submit(task("t0", user="u0", demand=cap, duration=2.0),
                   cluster.gms[0])
    cluster.submit(task("t1", user="u1", demand=cap, duration=2.0), cluster.gms[1])
    cluster.run_all()

    # one failure hits the limit immediately: no chained retry, requeue
    # instead, and the next heartbeat is what wakes the queue again
    assert cluster.collector.counters["inconsistency_failures"] == 1
    assert cluster.collector.counters["reschedules"] == 1
    r1 = cluster.record("t1")
    assert r1.attempts == 2
    assert r1.repartitioned
    assert r1.task_start == pytest.approx(10.0 + 3 * HOP, abs=1e-6)
    assert r1.allocation_time == pytest.approx(
        r1.framework_queuing_delay + r1.processing_delay
        + r1.worker_queuing_delay + r1.communication_delay, abs=1e-12)


def test_success_merge_cost_busies_clock_but_not_the_task():
    costs = dataclasses.replace(ZERO_COSTS, gm_merge_per_node=1e-3)
    cluster = build_cluster(
        {"lm0": {"gm0": [("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs())]}},
        {"u0": ("gm0", 1.0)}, costs=costs)
    cluster.submit(task("t0", demand=rv(1, 256)), cluster.gms[0])
    cluster.run_all()
    # the ok-response merge happens after the task started; its cost lands
    # on the GM clock only, never on the (already frozen) task record
    assert cluster.record("t0").processing_delay == 0.0
    assert cluster.gms[0].clock.busy_until > 2 * HOP


def test_task_preempted_note_requeues_and_refreshes_view():
    cluster = one_node_cluster()
    gm = cluster.gms[0]
    demand = rv(2, 4096)
    run = TaskRun(task("t0", demand=demand))
    run.tried_version = 3
    gm.queues.add_consumed("u0", demand)
    version = gm.view_version
    state = LMStateSnapshot(lm_id="lm0", timestamp=4.0, partitions=(),
                            user_consumed={"u0": rv(1, 100)}, node_count=0)
    gm.on_task_preempted(
        TaskPreempted(task_id="t0", user_id="u0", demand=demand, state=state, run=run),
        4.0)

    # a note with no partitions still refreshes the LM's time and consumption
    assert gm.view.last_update_time["lm0"] == 4.0
    assert gm.view.lm_user_consumed["lm0"] == {"u0": rv(1, 100)}
    assert gm.view_version == version + 1
    queue = gm.queues.by_user["u0"]
    assert queue.consumed == rv(0, 0)
    assert list(queue.pending) == [run]
    assert run.tried_version == -1


def test_seed_requires_exactly_one_partition_per_lm():
    loop = EventLoop()
    network = Network(loop, DelayModel())
    collector = MetricsCollector()
    lm = LocalMaster("lm0", loop, network, ZERO_COSTS, collector)
    for j in range(2):
        lm.add_partition(f"p{j}", "gm0", [], 21)
    with pytest.raises(ConfigurationError, match="exactly one partition on lm0, found 2"):
        GlobalMaster("gm0", loop, network, ZERO_COSTS, collector,
                     ClusterView([lm.snapshot(0.0)], 2), QueueSet([]), [lm], {})


@pytest.mark.parametrize("retry_limit, chosen", [(1, ["uB"]), (5, ["uB", None])])
def test_stale_preemption_below_and_at_the_retry_limit(retry_limit, chosen):
    """b1 finishes while a1's preempt request is on the wire, so the LM finds
    its victim stale.  At the limit the task is requeued at once; below it
    the GM plans again, finds no victim and requeues; either way the re-plan
    counts no attempt."""
    cluster = build_cluster(
        {"lm0": {"gm0": [("n0", rv(8, 8192), cs())]}},
        {"uA": ("gm0", 0.9), "uB": ("gm0", 0.1)}, retry_limit=retry_limit)
    gm = cluster.gms[0]
    cluster.submit(task("b1", user="uB", demand=rv(8, 8192), duration=1.0 - 1.5 * HOP), gm)
    cluster.submit(task("a1", user="uA", demand=rv(8, 8192), arrival=1.0), gm)
    cluster.run_all()

    audits = cluster.collector.audit_preemptions
    assert [a["chosen_user"] for a in audits] == chosen
    assert audits[0]["victim_ids"] == ("b1",)
    assert cluster.collector.counters["preempt_attempts"] == 1
    assert cluster.collector.counters["preemptions"] == 0
    assert cluster.collector.counters["reschedules"] == 1
    assert cluster.record("a1").attempts == 2
