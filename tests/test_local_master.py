"""Local master scenarios: validation, repartitioning, heartbeats, preemption."""

import dataclasses

import pytest

from fedsched.core import WorkerNode
from fedsched.engine import DelayModel, EventLoop, Network
from fedsched.errors import SimulationError
from fedsched.experiment import check_conservation, check_snapshot_cache
from fedsched.local_master import LocalMaster
from fedsched.messages import LaunchRequest, PreemptRequest
from fedsched.metrics import MetricsCollector, TaskRun

from scenarios import ZERO_COSTS, build_race_cluster, cs, rv, task

HOP = 0.0005


class FakeGM:
    """Records everything the LM sends without reacting to any of it."""

    def __init__(self, gm_id):
        self.gm_id = gm_id
        self.launch_responses = []
        self.heartbeats = []
        self.preempt_responses = []
        self.preempted = []
        self.completions = []

    def on_launch_response(self, resp, now):
        self.launch_responses.append((now, resp))

    def on_heartbeat(self, msg, now):
        self.heartbeats.append((now, msg))

    def on_preempt_response(self, resp, now):
        self.preempt_responses.append((now, resp))

    def on_task_preempted(self, note, now):
        self.preempted.append((now, note))

    def on_task_completion(self, msg, now):
        self.completions.append((now, msg))


def one_lm(spec, *, costs=ZERO_COSTS, heartbeat_period=10.0, constraint_count=21):
    """spec: gm_id -> [(node_id, capacity, machine_constraints)]."""
    loop = EventLoop()
    network = Network(loop, DelayModel())
    collector = MetricsCollector(audit=True)
    lm = LocalMaster("lm0", loop, network, costs, collector,
                     heartbeat_period=heartbeat_period)
    for j, gm_id in enumerate(sorted(spec)):
        partition_id = f"lm0-p{j}"
        lm.add_partition(partition_id, gm_id, [
            WorkerNode(node_id=node_id, lm_id="lm0", partition_id=partition_id,
                       capacity=capacity, machine_constraints=machine)
            for node_id, capacity, machine in spec[gm_id]], constraint_count)
    gms = {gm_id: FakeGM(gm_id) for gm_id in sorted(spec)}
    lm.wire_gms(list(gms.values()))
    return lm, gms, loop, collector


def admit(collector, request):
    """The task's run, counted as outstanding as the experiment builder counts it."""
    collector.admitted += 1
    return TaskRun(request)


def launch(lm, loop, collector, *, node_id, gm_id="gm0", demand=None,
           constraints=(), task_id="t0", at=0.0, duration=1.0, user="u0"):
    request = task(task_id, user=user, demand=demand, constraints=constraints,
                   arrival=at, duration=duration)
    run = admit(collector, request)
    req = LaunchRequest(gm_id=gm_id, task_id=task_id, node_id=node_id,
                        demand=request.demand, constraints=request.constraints,
                        run=run)
    loop.schedule(at, lm.on_launch_request, req)
    return run


def repartition(lm, loop, collector, *, source, gm_id="gm1", demand=None,
                constraints=(), task_id="t0", at=0.0, duration=1.0, user="u1"):
    request = task(task_id, user=user, demand=demand, constraints=constraints,
                   arrival=at, duration=duration)
    run = admit(collector, request)
    req = LaunchRequest(gm_id=gm_id, task_id=task_id, node_id=source,
                        demand=request.demand, constraints=request.constraints, run=run)
    loop.schedule(at, lm.on_repartition_request, req)
    return run


def preempt(lm, loop, collector, *, node_id, victim_ids, gm_id="gm0",
            demand=None, task_id="tp", at=1.0):
    request = task(task_id, demand=demand, arrival=at, duration=1.0)
    run = admit(collector, request)
    req = PreemptRequest(gm_id=gm_id, task_id=task_id, node_id=node_id,
                         victim_ids=tuple(victim_ids), demand=request.demand,
                         run=run)
    loop.schedule(at, lm.on_preempt_request, req)
    return run


# -- launch validation --------------------------------------------------------


def test_launch_deducts_and_starts():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    run = launch(lm, loop, collector, node_id="n0", demand=rv(2, 4096))
    loop.run()

    record = run.record
    assert record is not None
    assert record.task_start == pytest.approx(HOP, abs=1e-12)
    assert record.communication_delay == pytest.approx(HOP, abs=1e-12)
    assert record.framework_queuing_delay == 0.0
    assert record.processing_delay == 0.0
    assert record.worker_queuing_delay == 0.0
    # the success response hop is off the critical path and never charged
    assert record.allocation_time == record.communication_delay

    when, resp = gms["gm0"].launch_responses[0]
    assert resp.ok
    assert resp.node_id == "n0" and resp.kind == "launch"
    assert resp.run is run  # the request's run, carried back
    assert len(resp.state.partitions) == 1
    assert resp.state.partitions[0].partition_id == "lm0-p0"

    # after completion the node is whole again and the owner was told
    assert lm.available(lm.nodes["n0"]) == rv(4, 8192)
    assert lm.running == {}
    assert lm.consumed["u0"] == rv(0, 0)
    assert collector.completed == 1
    (when, msg), = gms["gm0"].completions
    assert msg.task_id == "t0" and msg.user_id == "u0"
    assert when == pytest.approx(1.0 + 2 * HOP, abs=1e-9)
    check_conservation(lm)


def test_launch_exact_fit_boundary():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    run = launch(lm, loop, collector, node_id="n0", demand=rv(4, 8192),
                 duration=5.0)
    probe = {}
    loop.schedule(1.0, lambda _, t: probe.setdefault(
        "avail", lm.available(lm.nodes["n0"])), None)
    loop.run()
    assert probe["avail"] == rv(0, 0)
    assert run.record is not None
    assert gms["gm0"].launch_responses[0][1].ok


def test_launch_wrong_owner_fails_full_state():
    lm, gms, loop, collector = one_lm({
        "gm0": [("n0", rv(4, 8192), cs())], "gm1": []})
    run = launch(lm, loop, collector, node_id="n0", gm_id="gm1")
    loop.run()

    when, resp = gms["gm1"].launch_responses[0]
    assert not resp.ok
    assert resp.node_id is None
    # the failure piggyback is the full state: every partition of the LM
    assert ({p.partition_id for p in resp.state.partitions} == set(lm.partitions)
            == {"lm0-p0", "lm0-p1"})
    assert collector.counters["inconsistency_failures"] == 1
    assert lm.available(lm.nodes["n0"]) == rv(4, 8192)
    assert run.record is None
    # the failure response is on the task's path and is charged to it
    assert run.communication == pytest.approx(HOP, abs=1e-12)


def test_launch_unknown_node_fails():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="nope")
    loop.run()
    assert not gms["gm0"].launch_responses[0][1].ok
    entry = collector.audit_launches[0]
    assert entry["ok"] is False
    assert entry["available_before"] is None
    assert entry["machine_constraints"] is None


def test_launch_constraint_mismatch_fails():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs(3))]})
    launch(lm, loop, collector, node_id="n0", constraints=(3, 9))
    loop.run()
    assert not gms["gm0"].launch_responses[0][1].ok
    assert collector.counters["inconsistency_failures"] == 1
    assert lm.available(lm.nodes["n0"]) == rv(4, 8192)


def test_launch_insufficient_resources_fails():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", demand=rv(8, 16384))
    loop.run()
    assert not gms["gm0"].launch_responses[0][1].ok
    assert lm.available(lm.nodes["n0"]) == rv(4, 8192)


def test_launch_audit_entry_shape():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs(2, 5))]})
    launch(lm, loop, collector, node_id="n0", demand=rv(2, 4096),
           constraints=(2,))
    loop.run()
    entry = collector.audit_launches[0]
    assert entry["kind"] == "launch" and entry["ok"] is True
    assert entry["available_before"] == (4, 8192)
    assert entry["demand"] == (2, 4096)
    assert entry["machine_constraints"] == (2, 5)
    assert entry["task_constraints"] == (2,)


def test_lm_clock_serializes_validations():
    costs = dataclasses.replace(ZERO_COSTS, lm_validate=0.002)
    lm, gms, loop, collector = one_lm(
        {"gm0": [("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs())]},
        costs=costs)
    r1 = launch(lm, loop, collector, node_id="n0", task_id="t1")
    r2 = launch(lm, loop, collector, node_id="n1", task_id="t2")
    loop.run()
    # both requests land at t=0; the second waits out the first validation
    assert r1.record.framework_queuing_delay == 0.0
    assert r1.record.processing_delay == pytest.approx(0.002, abs=1e-12)
    assert r2.record.framework_queuing_delay == pytest.approx(0.002, abs=1e-12)
    assert r2.record.processing_delay == pytest.approx(0.002, abs=1e-12)
    for record in (r1.record, r2.record):
        assert record.allocation_time == pytest.approx(
            record.framework_queuing_delay + record.processing_delay
            + record.worker_queuing_delay + record.communication_delay,
            abs=1e-12)


# -- the two-GM race ----------------------------------------------------------


def test_race_internal_launch_beats_external_repartition():
    cluster, t0, t1 = build_race_cluster()
    cluster.run_all()
    collector = cluster.collector
    records = {r.task_id: r for r in collector.records}

    assert set(records) == {"t0", "t1"}
    assert collector.counters["inconsistency_failures"] == 1
    assert collector.counters["repartitions"] == 1

    # winner goes straight through: request hop + payload hop
    r0 = records["t0"]
    assert r0.attempts == 1 and not r0.repartitioned
    assert r0.allocation_time == pytest.approx(2 * HOP, abs=1e-9)

    # loser pays request, failure response, retry request, payload
    r1 = records["t1"]
    assert r1.attempts == 2 and r1.repartitioned
    assert r1.allocation_time == pytest.approx(4 * HOP, abs=1e-9)
    assert r1.communication_delay == pytest.approx(4 * HOP, abs=1e-9)

    for record in records.values():
        assert record.allocation_time == (
            record.framework_queuing_delay + record.processing_delay
            + record.worker_queuing_delay + record.communication_delay)

    lm = cluster.lms[0]
    assert set(lm.nodes) == {"n0", "n1"}
    assert lm.available(lm.nodes["n0"]) == rv(2, 4096)
    assert lm.available(lm.nodes["n1"]) == rv(2, 4096)
    assert all(node.parent_node is None for node in lm.nodes.values())
    check_conservation(lm)


# -- repartitioning -----------------------------------------------------------


def test_repartition_carves_child_then_restores_parent():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs(3))], "gm1": []})
    run = repartition(lm, loop, collector, source="N", demand=rv(2, 4096),
                      constraints=(3,), duration=1.0)

    seen = {}

    def probe(_, t):
        seen["child"] = child = lm.nodes.get("N.l1")
        seen["child_avail"] = child and lm.available(child)
        seen["parent_avail"] = lm.available(lm.nodes["N"])
        seen["target_members"] = tuple(lm.partitions["lm0-p1"].node_ids)
        seen["children"] = [node_id for node_id, node in lm.nodes.items()
                            if node.parent_node == "N"]
        check_conservation(lm)

    loop.schedule(0.5, probe, None)
    loop.run()

    child = seen["child"]
    assert child is not None and child.is_logical
    assert child.parent_node == "N"
    assert child.capacity == rv(2, 4096)
    assert seen["child_avail"] == rv(0, 0)  # fully consumed by its one task
    assert child.machine_constraints == {3}
    assert child.partition_id == "lm0-p1"
    assert seen["parent_avail"] == rv(6, 12288)
    assert seen["target_members"] == ("N.l1",)
    assert seen["children"] == ["N.l1"]

    # completion destroys the logical node and returns capacity to the parent
    assert "N.l1" not in lm.nodes
    assert lm.available(lm.nodes["N"]) == rv(8, 16384)
    assert lm.partitions["lm0-p1"].node_ids == {}
    assert all(node.parent_node is None for node in lm.nodes.values())
    assert collector.counters["repartitions"] == 1
    assert run.record.repartitioned
    check_conservation(lm)

    when, resp = gms["gm1"].launch_responses[0]
    assert resp.ok and resp.kind == "repartition"
    assert resp.node_id == "N.l1"
    assert resp.run is run  # the request's run, carried back
    assert {p.partition_id for p in resp.state.partitions} == {"lm0-p0", "lm0-p1"}


def test_repartition_insufficient_resources_fails():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs())], "gm1": []})
    repartition(lm, loop, collector, source="N", demand=rv(16, 32768))
    loop.run()
    when, resp = gms["gm1"].launch_responses[0]
    assert not resp.ok and resp.kind == "repartition"
    assert {p.partition_id for p in resp.state.partitions} == set(lm.partitions)
    assert collector.counters["inconsistency_failures"] == 1
    assert lm.available(lm.nodes["N"]) == rv(8, 16384)


def test_repartition_constraint_mismatch_fails():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs())], "gm1": []})
    repartition(lm, loop, collector, source="N", constraints=(1,))
    loop.run()
    assert not gms["gm1"].launch_responses[0][1].ok


def test_repartition_unknown_source_fails():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs())], "gm1": []})
    repartition(lm, loop, collector, source="ghost")
    loop.run()
    assert not gms["gm1"].launch_responses[0][1].ok
    assert collector.audit_launches[0]["available_before"] is None


def test_repartition_never_carves_a_logical_node():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs())], "gm1": []})
    repartition(lm, loop, collector, source="N", demand=rv(4, 8192),
                task_id="first", duration=10.0)
    repartition(lm, loop, collector, source="N.l1", demand=rv(1, 1024),
                task_id="second", at=1.0, duration=1.0)
    loop.run()
    by_task = {r.task_id: r for _, r in gms["gm1"].launch_responses}
    assert by_task["first"].ok
    assert not by_task["second"].ok
    assert collector.counters["repartitions"] == 1


# -- heartbeats ---------------------------------------------------------------


def test_heartbeat_cadence_and_shutdown():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", demand=rv(2, 4096), duration=25.0)
    lm.start_heartbeats()
    loop.run()

    beats = gms["gm0"].heartbeats
    assert len(beats) == 3
    times = [when for when, _ in beats]
    assert times == [pytest.approx(10.0 + HOP, abs=1e-9),
                     pytest.approx(20.0 + HOP, abs=1e-9),
                     pytest.approx(30.0 + HOP, abs=1e-9)]
    stamps = [msg.timestamp for _, msg in beats]
    assert stamps == [10.0, 20.0, 30.0]
    assert collector.counters["heartbeats"] == 3

    # first beat sees the task running, last beat sees the node whole again
    first = beats[0][1].partitions[0].nodes[0]
    assert first.available == rv(2, 4096)
    assert len(first.running) == 1
    assert first.running[0].task_id == "t0"
    assert first.running[0].launch_time == pytest.approx(HOP, abs=1e-12)
    last = beats[-1][1].partitions[0].nodes[0]
    assert last.available == rv(4, 8192)
    assert last.running == ()


def test_heartbeat_timestamp_follows_processing_charge():
    costs = dataclasses.replace(ZERO_COSTS, lm_heartbeat_per_node=0.001)
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]},
                                      costs=costs)
    launch(lm, loop, collector, node_id="n0", duration=12.0)
    lm.start_heartbeats()
    loop.run()
    stamps = [msg.timestamp for _, msg in gms["gm0"].heartbeats]
    # snapshot taken after the per-node charge; cadence still period-aligned
    assert stamps[0] == pytest.approx(10.001, abs=1e-12)
    assert stamps[1] == pytest.approx(20.001, abs=1e-12)


def test_heartbeats_never_start_when_idle():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    lm.start_heartbeats()
    loop.run()
    assert gms["gm0"].heartbeats == []
    assert collector.counters["heartbeats"] == 0


# -- preemption ---------------------------------------------------------------


def test_preempt_verified_victim_is_killed():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    victim = launch(lm, loop, collector, node_id="n0", demand=rv(4, 8192),
                    task_id="tv", duration=100.0, user="uV")
    run = preempt(lm, loop, collector, node_id="n0", victim_ids=["tv"],
                  demand=rv(2, 4096), at=1.0)
    running = []
    loop.schedule(0.5, lambda _, t: running.append(lm.running["tv"]), None)
    loop.run()

    when, resp = gms["gm0"].preempt_responses[0]
    assert len(resp.statuses) == 1 and resp.statuses[0].verified
    assert resp.statuses[0].task_id == "tv"
    assert collector.counters["preemptions"] == 1
    assert run.preempted_caused == 1
    assert lm.available(lm.nodes["n0"]) == rv(4, 8192)
    assert lm.consumed["uV"] == rv(0, 0)
    assert "tv" not in lm.running

    (note_when, note), = gms["gm0"].preempted
    assert note.task_id == "tv" and note.user_id == "uV"
    assert note.demand == rv(4, 8192)
    assert note.run is victim  # the run the GM requeues
    # the victim's record is never rewritten by the kill
    assert victim.record is not None
    assert victim.record.task_start == pytest.approx(HOP, abs=1e-12)
    check_conservation(lm)

    # relaunched, the victim's run keeps summing its path, but the record
    # frozen at its first start stays the same object with the same fields
    record, fields = victim.record, tuple(victim.record)
    communication = victim.communication
    relaunch = LaunchRequest(gm_id="gm0", task_id="tv", node_id="n0",
                             demand=victim.request.demand,
                             constraints=victim.request.constraints, run=victim)
    loop.schedule(loop.now() + 1.0, lm.on_launch_request, relaunch)
    loop.schedule(loop.now() + 2.0, lambda _, t: running.append(lm.running["tv"]), None)
    loop.run()
    first, second = running
    assert second is not first and second.run is first.run is victim
    assert [msg.task_id for _, msg in gms["gm0"].completions] == ["tv"]
    assert victim.communication == communication + HOP
    assert victim.record is record
    assert len(fields) == 14 and tuple(victim.record) == fields
    assert collector.records.count(record) == 1
    check_conservation(lm)


def test_preempt_finished_victim_is_stale():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", task_id="tv", duration=0.5)
    preempt(lm, loop, collector, node_id="n0", victim_ids=["tv"], at=2.0)
    loop.run()
    when, resp = gms["gm0"].preempt_responses[0]
    assert not resp.statuses[0].verified
    assert collector.counters["preemptions"] == 0
    assert gms["gm0"].preempted == []
    assert len(resp.state.partitions) == 1  # still refreshes the named node's partition


def test_preempt_moved_victim_is_stale():
    lm, gms, loop, collector = one_lm({
        "gm0": [("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", task_id="tv", duration=50.0)
    preempt(lm, loop, collector, node_id="n1", victim_ids=["tv"], at=1.0)
    loop.run()
    when, resp = gms["gm0"].preempt_responses[0]
    assert not resp.statuses[0].verified
    assert collector.counters["preemptions"] == 0
    assert "tv" not in lm.running  # it ran to completion untouched
    assert collector.completed == 1


def test_preempt_before_payload_lands_is_stale():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(2, 4096), cs())]})
    victim = launch(lm, loop, collector, node_id="n0", demand=rv(2, 4096),
                    task_id="tv", duration=1.0)
    # decision made at t=0, payload lands at t=HOP; strike in between
    preempt(lm, loop, collector, node_id="n0", victim_ids=["tv"], at=0.0002)
    loop.run()
    when, resp = gms["gm0"].preempt_responses[0]
    assert not resp.statuses[0].verified
    assert collector.counters["preemptions"] == 0
    # untouched, the task starts when its payload arrives and runs to the end
    assert victim.record is not None
    assert victim.record.task_start == pytest.approx(HOP, abs=1e-12)
    assert collector.completed == 1
    assert lm.available(lm.nodes["n0"]) == rv(2, 4096)


def test_preempt_repartitioned_victim_destroys_logical_node():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs())], "gm1": []})
    victim = repartition(lm, loop, collector, source="N", demand=rv(2, 4096),
                         task_id="tv", duration=100.0)
    preempt(lm, loop, collector, node_id="N.l1", victim_ids=["tv"],
            gm_id="gm1", at=1.0)
    loop.run()

    when, resp = gms["gm1"].preempt_responses[0]
    assert resp.statuses[0].verified
    assert "N.l1" not in lm.nodes
    assert lm.available(lm.nodes["N"]) == rv(8, 16384)
    assert lm.partitions["lm0-p1"].node_ids == {}
    assert {p.partition_id for p in resp.state.partitions} == {"lm0-p0", "lm0-p1"}
    assert collector.counters["preemptions"] == 1
    (_, note), = gms["gm1"].preempted
    assert note.run is victim
    check_conservation(lm)


def test_payload_of_a_launch_killed_as_it_lands_is_dropped_after_relaunch():
    # kill and relaunch are both due at the instant the first payload lands,
    # and are dispatched before it: that payload then finds the relaunch's
    # RunningTask under the same task id and must not start the task
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    victim = launch(lm, loop, collector, node_id="n0", demand=rv(4, 8192),
                    task_id="tv", duration=10.0)
    preempt(lm, loop, collector, node_id="n0", victim_ids=["tv"], at=HOP)
    relaunch = LaunchRequest(gm_id="gm0", task_id="tv", node_id="n0",
                             demand=victim.request.demand,
                             constraints=victim.request.constraints, run=victim)
    loop.schedule(HOP, lm.on_launch_request, relaunch)
    loop.run()
    assert collector.counters["preemptions"] == 1
    assert victim.record.task_start == pytest.approx(2 * HOP, abs=1e-12)
    (when, msg), = gms["gm0"].completions
    assert when == pytest.approx(10.0 + 3 * HOP, abs=1e-9)
    check_conservation(lm)


def test_relaunch_before_the_killed_launch_ends_ignores_its_completion():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    victim = launch(lm, loop, collector, node_id="n0", demand=rv(4, 8192),
                    task_id="tv", duration=10.0)
    preempt(lm, loop, collector, node_id="n0", victim_ids=["tv"], at=1.0)
    relaunch = LaunchRequest(gm_id="gm0", task_id="tv", node_id="n0",
                             demand=victim.request.demand,
                             constraints=victim.request.constraints, run=victim)
    loop.schedule(2.0, lm.on_launch_request, relaunch)
    loop.run()
    # the killed launch's completion, due at 10 + HOP, finds the relaunch's
    # RunningTask under the same task id and is dropped
    (when, msg), = gms["gm0"].completions
    assert msg.task_id == "tv"
    assert when == pytest.approx(12.0 + 2 * HOP, abs=1e-9)
    assert collector.completed == 1
    assert "tv" not in lm.running
    assert lm.available(lm.nodes["n0"]) == rv(4, 8192)
    check_conservation(lm)


# -- snapshot cache -------------------------------------------------------------


def assert_snapshots_fresh(lm):
    """Snapshot every node, check the caches against a rebuild and the
    availability against conservation; nodes by id."""
    nodes = {n.node_id: n for p in lm.snapshot(0.0).partitions for n in p.nodes}
    check_snapshot_cache(lm)
    check_conservation(lm)
    return nodes


def snapshots_fresh_at(loop, at, lm, seen, key):
    """At time `at`, store `assert_snapshots_fresh(lm)` as `seen[key]`."""
    loop.schedule(at, lambda _, t: seen.setdefault(key, assert_snapshots_fresh(lm)), None)


def test_snapshot_cache_after_launch_and_completion():
    lm, gms, loop, collector = one_lm({"gm0": [
        ("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", demand=rv(2, 4096), task_id="t1")
    launch(lm, loop, collector, node_id="n0", demand=rv(1, 1024), task_id="t0",
           duration=2.0)
    before = assert_snapshots_fresh(lm)
    seen = {}
    snapshots_fresh_at(loop, 0.5, lm, seen, "running")
    snapshots_fresh_at(loop, 1.5, lm, seen, "one_done")
    loop.run()
    after = assert_snapshots_fresh(lm)

    running = seen["running"]
    assert [r.task_id for r in running["n0"].running] == ["t0", "t1"]  # by task id
    assert running["n0"] is not before["n0"]
    assert running["n1"] is before["n1"]  # untouched node: same object
    assert [r.task_id for r in seen["one_done"]["n0"].running] == ["t0"]
    assert after["n0"].running == () and after["n0"].available == rv(4, 8192)
    assert after["n1"] is before["n1"]
    assert lm.running == {}
    assert all(n.running == () for n in lm.partitions["lm0-p0"].nodes)


def test_snapshot_cache_across_repartition_and_logical_node_destruction():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs()), ("M", rv(8, 16384), cs())], "gm1": []})
    before = assert_snapshots_fresh(lm)
    repartition(lm, loop, collector, source="N", demand=rv(2, 4096), duration=1.0)
    seen = {}
    snapshots_fresh_at(loop, 0.5, lm, seen, "carved")
    loop.run()
    after = assert_snapshots_fresh(lm)

    carved = seen["carved"]
    assert carved["N"].available == rv(6, 12288)
    assert carved["N.l1"].is_logical and carved["N.l1"].parent_node == "N"
    assert [r.task_id for r in carved["N.l1"].running] == ["t0"]
    assert carved["M"] is before["M"]
    # the destroyed logical node is in no partition's snapshot list
    assert all(n.node_id != "N.l1" for p in lm.partitions.values() for n in p.nodes)
    assert after["N"].available == rv(8, 16384)
    assert after["M"] is before["M"]


def test_snapshot_cache_after_preemption():
    # two victims on one node publish that node twice before the response
    for victims in ({"tv": rv(4, 8192)}, {"tv": rv(2, 4096), "tw": rv(2, 4096)}):
        lm, gms, loop, collector = one_lm({"gm0": [
            ("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs())]})
        for task_id, demand in victims.items():
            launch(lm, loop, collector, node_id="n0", demand=demand, task_id=task_id,
                   duration=100.0, user="uV")
        launch(lm, loop, collector, node_id="n1", demand=rv(1, 1024), task_id="tk",
               duration=100.0)
        seen = {}
        snapshots_fresh_at(loop, 0.5, lm, seen, "before")
        preempt(lm, loop, collector, node_id="n0", victim_ids=sorted(victims), at=1.0)
        snapshots_fresh_at(loop, 1.5, lm, seen, "after")
        loop.run()

        assert collector.counters["preemptions"] == len(victims)
        assert [r.task_id for r in seen["before"]["n0"].running] == sorted(victims)
        after = seen["after"]
        assert after["n0"].running == () and after["n0"].available == rv(4, 8192)
        assert after["n1"] is seen["before"]["n1"]
        (when, resp), = gms["gm0"].preempt_responses
        assert resp.state.partitions[0].nodes[0] is after["n0"]


def test_repartition_of_a_physical_node_invalidates_its_snapshot():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs())], "gm1": []})
    launch(lm, loop, collector, node_id="N", demand=rv(1, 1024), task_id="a",
           duration=10.0)
    repartition(lm, loop, collector, source="N", demand=rv(2, 4096), task_id="b",
                at=1.0, duration=10.0)
    seen = {}
    snapshots_fresh_at(loop, 0.5, lm, seen, "one")
    snapshots_fresh_at(loop, 1.5, lm, seen, "two")
    loop.run()
    assert seen["two"]["N"].available == rv(5, 11264)
    assert seen["two"]["N"] is not seen["one"]["N"]
    assert_snapshots_fresh(lm)


def test_partition_list_keeps_untouched_entries_across_messages():
    lm, gms, loop, collector = one_lm({"gm0": [
        ("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs()), ("n2", rv(4, 8192), cs())]})
    before = lm.partition_snapshot("lm0-p0").nodes
    cached = lm.partitions["lm0-p0"].nodes
    launch(lm, loop, collector, node_id="n1", demand=rv(2, 4096), task_id="t1")
    loop.run()

    (_, resp), = gms["gm0"].launch_responses
    (_, done), = gms["gm0"].completions
    for message in (resp, done):
        nodes = message.state.partitions[0].nodes
        assert nodes[0] is before[0] and nodes[2] is before[2]
        assert nodes[1] is not before[1]
    assert resp.state.partitions[0].nodes[1].running[0].task_id == "t1"
    assert done.state.partitions[0].nodes[1].running == ()
    assert lm.partitions["lm0-p0"].nodes is cached  # patched in place
    assert tuple(cached) == done.state.partitions[0].nodes
    check_snapshot_cache(lm)


def test_carve_out_and_logical_node_destruction_patch_the_partition_list():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs()), ("M", rv(8, 16384), cs())],
        "gm1": [("K", rv(8, 16384), cs())]})
    lm.snapshot(0.0)
    lists = {pid: p.nodes for pid, p in lm.partitions.items()}
    k = lists["lm0-p1"][0]
    repartition(lm, loop, collector, source="N", demand=rv(2, 4096), duration=1.0)
    seen = {}

    def carved(_, t):
        seen["carved"] = [n.node_id for n in lm.partitions["lm0-p1"].nodes]
        check_snapshot_cache(lm)

    loop.schedule(0.5, carved, None)
    loop.run()

    (_, resp), = gms["gm1"].launch_responses
    source, target = resp.state.partitions
    assert [n.node_id for n in target.nodes] == ["K", "N.l1"]
    assert target.nodes[0] is k
    assert seen["carved"] == ["K", "N.l1"]  # the carve-out appended to the list
    assert lm.partitions["lm0-p0"].nodes is lists["lm0-p0"]  # the source was patched
    # the logical node's destruction deleted its entry from the same list
    assert lm.partitions["lm0-p1"].nodes is lists["lm0-p1"]
    assert lm.partitions["lm0-p1"].nodes == [k]
    (_, done), = gms["gm1"].completions
    assert [n.node_id for n in done.state.partitions[0].nodes] == ["K"]
    assert done.state.partitions[0].nodes[0] is k
    assert lm.partitions["lm0-p0"].nodes[0].available == rv(8, 16384)  # N got it back
    check_snapshot_cache(lm)


def test_physical_nodes_keep_their_ordinals_across_carve_outs_and_destruction():
    # a GM's preemption plan names a physical node by partition and ordinal
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs()), ("M", rv(8, 16384), cs())],
        "gm1": [("K", rv(8, 16384), cs()), ("J", rv(8, 16384), cs())]})
    repartition(lm, loop, collector, source="N", demand=rv(2, 4096), task_id="a",
                duration=1.0)
    repartition(lm, loop, collector, source="M", demand=rv(2, 4096), task_id="b",
                duration=2.0)
    seen = []

    def layout(_, t):
        seen.append({pid: list(part.node_ids) for pid, part in lm.partitions.items()})
        for pid, part in lm.partitions.items():
            assert [n.node_id for n in part.nodes] == list(part.node_ids)

    loop.schedule(0.5, layout, None)
    loop.schedule(1.5, layout, None)
    loop.run()
    layout(None, loop.now())

    both, one, none = seen
    assert both == {"lm0-p0": ["N", "M"], "lm0-p1": ["K", "J", "N.l1", "M.l2"]}
    assert one == {"lm0-p0": ["N", "M"], "lm0-p1": ["K", "J", "M.l2"]}
    assert none == {"lm0-p0": ["N", "M"], "lm0-p1": ["K", "J"]}
    # every message laid the partition out the same way
    for _, resp in gms["gm1"].launch_responses + gms["gm1"].completions:
        for part in resp.state.partitions:
            ids = [n.node_id for n in part.nodes]
            physical = [n.node_id for n in part.nodes if not n.is_logical]
            assert ids[:len(physical)] == physical == (
                ["N", "M"] if part.partition_id == "lm0-p0" else ["K", "J"])


# -- change log ---------------------------------------------------------------


def test_each_replaced_node_is_logged_until_the_log_would_reach_the_node_count():
    lm, gms, loop, collector = one_lm({"gm0": [
        ("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs()), ("n2", rv(4, 8192), cs())]})
    first = lm.partitions["lm0-p0"].log
    launch(lm, loop, collector, node_id="n2", demand=rv(2, 4096), task_id="a")
    launch(lm, loop, collector, node_id="n0", demand=rv(2, 4096), task_id="b", at=0.5)
    loop.run()

    (_, one), (_, two) = gms["gm0"].launch_responses
    (_, done_a), (_, done_b) = gms["gm0"].completions
    # every message ships the log itself, and its length when the nodes were taken
    assert one.state.partitions[0].log is first and one.state.partitions[0].version == 1
    assert two.state.partitions[0].log is first and two.state.partitions[0].version == 2
    assert first == [2, 0]  # a third entry would make it as long as the partition
    new = lm.partitions["lm0-p0"].log
    assert new is not first
    assert done_a.state.partitions[0].log is new and done_a.state.partitions[0].version == 0
    assert done_b.state.partitions[0].log is new and new == [0]
    check_snapshot_cache(lm)


def test_carve_out_and_destruction_start_new_logs():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs()), ("M", rv(8, 16384), cs())],
        "gm1": [("K", rv(8, 16384), cs()), ("J", rv(8, 16384), cs())]})

    def all_logs():
        return {pid: p.log for pid, p in lm.partitions.items()}

    logs = all_logs()
    repartition(lm, loop, collector, source="N", demand=rv(2, 4096), duration=1.0)
    seen = {}
    loop.schedule(0.5, lambda _, t: seen.update(all_logs()), None)
    loop.run()

    assert seen["lm0-p0"] is logs["lm0-p0"] and logs["lm0-p0"] == [0]  # N, carved from
    assert lm.partitions["lm0-p0"].log == []  # N's return would have filled the log
    carved = seen["lm0-p1"]
    assert carved is not logs["lm0-p1"] and carved == [2]  # the launch on N.l1
    assert lm.partitions["lm0-p1"].log is not carved and lm.partitions["lm0-p1"].log == []
    check_snapshot_cache(lm)


@pytest.mark.parametrize("log", [[0, 1], [2], [-1]])
def test_snapshot_cache_check_refuses_a_log_too_long_or_off_the_partition(log):
    lm, gms, loop, collector = one_lm({"gm0": [
        ("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs())]})
    check_snapshot_cache(lm)
    lm.partitions["lm0-p0"].log = log
    with pytest.raises(SimulationError, match="change log"):
        check_snapshot_cache(lm)


# -- the wire contract ----------------------------------------------------------


def lm_states_by_kind():
    """The state of every LM-to-GM message of two runs, by message kind.

    The first run sends a launch that succeeds, one that fails, a carve-out,
    a preemption with its note, and completions; the second, heartbeats."""
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs()), ("M", rv(8, 16384), cs())],
        "gm1": [("K", rv(8, 16384), cs())]})
    launch(lm, loop, collector, node_id="M", demand=rv(4, 8192), task_id="tv",
           duration=100.0, user="uV")
    launch(lm, loop, collector, node_id="M", gm_id="gm1", task_id="tf", at=0.5)
    repartition(lm, loop, collector, source="N", demand=rv(2, 4096), task_id="tc",
                at=1.0)
    preempt(lm, loop, collector, node_id="M", victim_ids=["tv"], at=3.0)
    loop.run()
    responses = [resp for gm in gms.values() for _, resp in gm.launch_responses]
    states = {
        "launch": [r.state for r in responses if r.ok and r.kind == "launch"],
        "failure": [r.state for r in responses if not r.ok],
        "carve-out": [r.state for r in responses if r.ok and r.kind == "repartition"],
        "completion": [m.state for gm in gms.values() for _, m in gm.completions],
        "preempt response": [r.state for gm in gms.values()
                             for _, r in gm.preempt_responses],
        "task preempted": [m.state for gm in gms.values() for _, m in gm.preempted],
    }
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())],
                                       "gm1": [("n1", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", duration=25.0)
    lm.start_heartbeats()
    loop.run()
    states["heartbeat"] = [m for gm in gms.values() for _, m in gm.heartbeats]
    return states


# partitions each kind carries in `lm_states_by_kind`; the one completion is
# the carved task's, which touches its logical node's partition and the parent's
PARTITIONS_CARRIED = {"launch": 1, "failure": 2, "carve-out": 2, "completion": 2,
                      "preempt response": 1, "task preempted": 0, "heartbeat": 2}


@pytest.mark.parametrize("kind", sorted(PARTITIONS_CARRIED))
def test_every_message_kind_carries_its_node_count(kind):
    states = lm_states_by_kind()[kind]
    assert states
    for state in states:
        assert len(state.partitions) == PARTITIONS_CARRIED[kind]
        assert state.node_count == sum(len(p.nodes) for p in state.partitions)


def test_a_sent_consumption_map_keeps_its_values():
    lm, gms, loop, collector = one_lm({"gm0": [
        ("n0", rv(4, 8192), cs()), ("n1", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", demand=rv(1, 1024), task_id="a", user="u0")
    launch(lm, loop, collector, node_id="n1", demand=rv(2, 2048), task_id="b", user="u1",
           at=0.5, duration=2.0)
    loop.run()

    (_, first), (_, second) = gms["gm0"].launch_responses
    (_, done_a), (_, done_b) = gms["gm0"].completions
    # each map reads as it was sent, after every later launch and release
    assert first.state.user_consumed == {"u0": rv(1, 1024)}
    assert second.state.user_consumed == {"u0": rv(1, 1024), "u1": rv(2, 2048)}
    assert done_a.state.user_consumed == {"u0": rv(0, 0), "u1": rv(2, 2048)}
    assert done_b.state.user_consumed == {"u0": rv(0, 0), "u1": rv(0, 0)}
    assert done_b.state.user_consumed is lm.consumed  # sent by reference
    check_conservation(lm)


def test_positionally_built_records_read_back_by_field_name():
    lm, gms, loop, collector = one_lm({
        "gm0": [("N", rv(8, 16384), cs()), ("M", rv(8, 16384), cs())],
        "gm1": [("K", rv(8, 16384), cs())]})
    victim = launch(lm, loop, collector, node_id="M", demand=rv(4, 8192), task_id="tv",
                    duration=100.0, user="uV")
    preempt(lm, loop, collector, node_id="M", victim_ids=["tv", "gone"], at=1.0)
    repartition(lm, loop, collector, source="N", demand=rv(2, 4096), task_id="tc",
                at=2.0, user="uC")
    loop.run()

    (_, launched), = gms["gm0"].launch_responses
    assert (launched.ok, launched.task_id, launched.kind, launched.node_id) == (
        True, "tv", "launch", "M")
    state = launched.state
    assert (state.lm_id, state.timestamp, state.node_count) == ("lm0", 0.0, 2)
    part, = state.partitions
    assert (part.partition_id, part.lm_id, part.owner_gm_id) == ("lm0-p0", "lm0", "gm0")
    assert part.bits is lm.partitions["lm0-p0"].bits
    assert (part.log, part.version) == ([1], 1)
    node = part.nodes[1]
    assert (node.node_id, node.available, node.is_logical, node.parent_node) == (
        "M", rv(4, 8192), False, None)
    info, = node.running
    assert (info.task_id, info.user_id, info.demand, info.launch_time) == (
        "tv", "uV", rv(4, 8192), HOP)

    (_, response), = gms["gm0"].preempt_responses
    assert (response.task_id, response.node_id) == ("tp", "M")
    assert [(s.task_id, s.verified) for s in response.statuses] == [
        ("tv", True), ("gone", False)]
    assert response.state.timestamp == 1.0
    (_, note), = gms["gm0"].preempted
    assert (note.task_id, note.user_id, note.demand, note.run) == (
        "tv", "uV", rv(4, 8192), victim)
    assert note.state.partitions == () and note.state.timestamp == 1.0

    (_, carved), = gms["gm1"].launch_responses
    assert (carved.ok, carved.task_id, carved.kind, carved.node_id) == (
        True, "tc", "repartition", "N.l1")
    logical = carved.state.partitions[1].nodes[1]
    assert (logical.node_id, logical.is_logical, logical.parent_node) == (
        "N.l1", True, "N")
    (_, done), = gms["gm1"].completions
    assert (done.task_id, done.user_id, done.demand) == ("tc", "uC", rv(2, 4096))
    assert done.run.request.task_id == "tc"
    assert done.state.timestamp == pytest.approx(3.0 + HOP, abs=1e-9)


def test_conservation_check_refuses_consumption_that_drifts_from_running_tasks():
    lm, gms, loop, collector = one_lm({"gm0": [("n0", rv(4, 8192), cs())]})
    launch(lm, loop, collector, node_id="n0", demand=rv(2, 4096), duration=2.0)
    seen = []

    def drift(_, t):
        check_conservation(lm)
        kept = lm.consumed
        for consumed in ({"u0": rv(1, 4096)}, {}, {**kept, "u1": rv(1, 1)}):
            lm.consumed = consumed
            with pytest.raises(SimulationError, match="consumption"):
                check_conservation(lm)
            seen.append(consumed)
        lm.consumed = kept

    loop.schedule(1.0, drift, None)
    loop.run()
    assert len(seen) == 3
    check_conservation(lm)


def test_notes_go_to_the_launching_gm_and_answers_to_the_requesting_gm():
    lm, gms, loop, collector = one_lm({"gm0": [("N", rv(8, 16384), cs())],
                                       "gm1": [("K", rv(8, 16384), cs())]})
    victim = launch(lm, loop, collector, node_id="K", gm_id="gm1", demand=rv(4, 8192),
                    task_id="tv", duration=100.0, user="uV")
    preempt(lm, loop, collector, node_id="K", victim_ids=["tv"], gm_id="gm0", at=1.0)
    repartition(lm, loop, collector, source="N", gm_id="gm1", demand=rv(2, 4096),
                task_id="tc", at=2.0, user="uC")
    loop.run()

    (_, response), = gms["gm0"].preempt_responses
    assert [(s.task_id, s.verified) for s in response.statuses] == [("tv", True)]
    assert gms["gm1"].preempt_responses == []
    (_, note), = gms["gm1"].preempted
    assert (note.task_id, note.run) == ("tv", victim)
    assert gms["gm0"].preempted == []

    # the carved task runs on gm0's node but was launched by gm1
    (_, carved), = gms["gm1"].launch_responses[1:]
    assert (carved.ok, carved.task_id, carved.node_id) == (True, "tc", "N.l1")
    (_, done), = gms["gm1"].completions
    assert done.task_id == "tc"
    assert gms["gm0"].completions == [] and gms["gm0"].launch_responses == []
