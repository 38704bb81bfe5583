"""Fair scheduling: queue service order, share guard, and victim selection."""

import pytest

from fedsched.core import constraint_bits
from fedsched.experiment import check_conservation
from fedsched.fairness import (QueueSet, UserQueue, metric_value, over_share,
                               plan_preemption)
from fedsched.metrics import TaskRun
from fedsched.state import (ClusterView, LMStateSnapshot, NodeSnapshot,
                            PartitionSnapshot, RunningTaskInfo)

from oracles import share_ratio
from scenarios import build_cluster, cs, rv, task

HOP = 0.0005


def queue(user, *, share=(100.0, 100000.0), consumed=None):
    return UserQueue(user_id=user, share=share, consumed=consumed)


def run_for(user, task_id, **kwargs):
    return TaskRun(task(task_id, user=user, **kwargs))


# -- round-robin queue service ------------------------------------------------


def test_round_robin_interleaves_owned_queues():
    qs = QueueSet([queue("uA"), queue("uB"), queue("uC")])
    for r in (run_for("uA", "a1"), run_for("uA", "a2"), run_for("uB", "b1"),
              run_for("uC", "c1"), run_for("uC", "c2")):
        qs.enqueue(r)
    order = []
    while True:
        nxt = qs.next_eligible(0)
        if nxt is None:
            break
        order.append(nxt.request.task_id)
    assert order == ["a1", "b1", "c1", "a2", "c2"]


def test_round_robin_skips_empty_queues():
    qs = QueueSet([queue("uA"), queue("uB"), queue("uC")])
    qs.enqueue(run_for("uB", "b1"))
    assert qs.next_eligible(0).request.task_id == "b1"
    assert qs.next_eligible(0) is None


def test_next_request_on_all_empty():
    assert QueueSet([queue("uA")]).next_eligible(0) is None


def test_next_eligible_skips_heads_tried_at_this_version():
    qs = QueueSet([queue("uA"), queue("uB")])
    a1, b1 = run_for("uA", "a1"), run_for("uB", "b1")
    a1.tried_version = 7
    qs.enqueue(a1)
    qs.enqueue(b1)
    # a1 was already tried against version 7, so only b1 comes out
    assert qs.next_eligible(7) is b1
    assert qs.next_eligible(7) is None
    # a new view version makes the skipped head eligible again
    assert qs.next_eligible(8) is a1


# -- share arithmetic -----------------------------------------------------------


def test_consumption_exactly_at_share_is_allowed():
    share = (10.0, 10000.0)
    assert not over_share(rv(10, 4000), share, "cpu")
    assert over_share(rv(11, 4000), share, "cpu")


def test_max_metric_takes_worst_dimension():
    share = (10.0, 100.0)
    assert metric_value((5, 200), share, "max") == pytest.approx(2.0)
    assert not over_share(rv(5, 200), share, "cpu")
    assert over_share(rv(5, 200), share, "max")


def test_zero_share_with_consumption_is_infinitely_over():
    assert metric_value((1, 0), (0.0, 0.0), "cpu") == float("inf")
    assert metric_value((0, 0), (0.0, 0.0), "cpu") == 0.0


# -- victim planning (unit level) ----------------------------------------------


def info(task_id, user, demand, launch_time):
    return RunningTaskInfo(task_id=task_id, user_id=user, demand=demand,
                           launch_time=launch_time)


def view_of(nodes, m=8):
    """nodes: (node_id, constraints, available[, running[, is_logical]])."""
    snaps = []
    for spec in nodes:
        node_id, _, available = spec[:3]
        running = tuple(spec[3]) if len(spec) > 3 else ()
        logical = spec[4] if len(spec) > 4 else False
        snaps.append(NodeSnapshot(node_id=node_id, available=available,
                                  is_logical=logical, parent_node=None,
                                  running=running))
    part = PartitionSnapshot(partition_id="p0", lm_id="lm0", owner_gm_id="gmX",
                             nodes=tuple(snaps),
                             bits=constraint_bits(m, [n[1] for n in nodes]),
                             log=[], version=0)
    snap = LMStateSnapshot(lm_id="lm0", timestamp=0.0, partitions=(part,),
                           user_consumed={}, node_count=len(snaps))
    return ClusterView([snap], 2)


def plan(view, *, requester="uA", req_consumed=None, req_share=(10.0, 10000.0),
         others=(), demand=None, constraints=(), metric="cpu"):
    """others: (user_id, consumed, share) triples, all homed at this GM.

    Returns (nodes_scanned, plan, audit entry); planning without an audit
    list must give the same (nodes_scanned, plan)."""
    queues = [queue(requester, share=req_share, consumed=req_consumed)]
    shares = {requester: req_share}
    for user_id, consumed, share in others:
        queues.append(queue(user_id, share=share, consumed=consumed))
        shares[user_id] = share
    run = run_for(requester, "tp", demand=demand, constraints=constraints)
    args = (view, run, QueueSet(queues), shares, metric, 0.0, "gm0")
    audits = []
    scanned, chosen = plan_preemption(*args, audit=audits)
    assert plan_preemption(*args) == (scanned, chosen)
    audit, = audits
    assert audit["nodes_scanned"] == scanned
    return scanned, chosen, audit


def test_guard_blocks_strictly_over_share_requester():
    # uB is over its share and its task's release would fit the request
    v = view_of([("x", cs(), rv(0, 0), [info("b1", "uB", rv(4, 4096), 1.0)])])
    scanned, chosen, audit = plan(v, req_consumed=rv(11, 0), req_share=(10.0, 10000.0),
                                  others=[("uB", rv(4, 4096), (2.0, 2048.0))],
                                  demand=rv(4, 4096))
    assert (scanned, chosen) == (0, None)
    assert audit["candidates"] == ()
    # the same request from a requester at its share gets uB's task
    scanned, chosen, audit = plan(v, req_consumed=rv(10, 0), req_share=(10.0, 10000.0),
                                  others=[("uB", rv(4, 4096), (2.0, 2048.0))],
                                  demand=rv(4, 4096))
    assert (scanned, chosen.victim_ids) == (1, ("b1",))


def test_no_over_share_users_means_no_plan():
    v = view_of([("x", cs(), rv(0, 0), [info("t1", "uB", rv(4, 4096), 1.0)])])
    scanned, chosen, audit = plan(v, others=[("uB", rv(4, 4096), (10.0, 10000.0))],
                                  demand=rv(4, 4096))
    assert scanned == 0 and chosen is None
    assert audit["candidates"] == ()


def test_victims_taken_most_recently_launched_first():
    v = view_of([("x", cs(), rv(0, 0), [
        info("v1", "uB", rv(4, 4096), 1.0),
        info("v2", "uB", rv(4, 4096), 2.0),
        info("v3", "uB", rv(4, 4096), 3.0),
    ])])
    scanned, chosen, audit = plan(v, others=[("uB", rv(12, 12288), (4.0, 4096.0))],
                                  demand=rv(8, 8192))
    assert scanned == 1
    assert chosen.victim_ids == ("v3", "v2")
    assert chosen.node_id == "x"


def test_victims_never_combined_across_nodes():
    v = view_of([
        ("x", cs(), rv(0, 0), [info("v1", "uB", rv(4, 4096), 1.0)]),
        ("y", cs(), rv(0, 0), [info("v2", "uB", rv(4, 4096), 2.0)]),
    ])
    scanned, chosen, audit = plan(v, others=[("uB", rv(8, 8192), (4.0, 4096.0))],
                                  demand=rv(8, 8192))
    assert chosen is None
    assert audit["candidates"][0]["yielded_victims"] is False
    assert audit["nodes_scanned"] == 2


def test_victim_scan_ignores_logical_nodes():
    v = view_of([
        ("x.l1", cs(), rv(0, 0), [info("v1", "uB", rv(4, 4096), 1.0)], True),
    ])
    scanned, chosen, audit = plan(v, others=[("uB", rv(4, 4096), (2.0, 2048.0))],
                                  demand=rv(4, 4096))
    assert chosen is None
    assert audit["nodes_scanned"] == 0


def test_victim_node_must_satisfy_task_constraints():
    v = view_of([
        ("x", cs(1), rv(0, 0), [info("v1", "uB", rv(4, 4096), 1.0)]),
        ("y", cs(1, 2), rv(0, 0), [info("v2", "uB", rv(4, 4096), 2.0)]),
    ])
    scanned, chosen, audit = plan(v, others=[("uB", rv(8, 8192), (4.0, 4096.0))],
                                  demand=rv(4, 4096), constraints=(2,))
    assert chosen.node_id == "y" and chosen.victim_ids == ("v2",)


def test_candidates_ranked_by_ratio_then_user_id():
    v = view_of([
        ("x", cs(), rv(0, 0), [info("b1", "uB", rv(4, 4096), 1.0)]),
        ("y", cs(), rv(0, 0), [info("c1", "uC", rv(4, 4096), 1.0)]),
    ])
    others = [("uB", rv(4, 4096), (2.0, 2048.0)),   # ratio 2.0
              ("uC", rv(4, 4096), (3.0, 3072.0))]   # ratio 1.33
    scanned, chosen, audit = plan(v, others=others, demand=rv(4, 4096))
    assert chosen.victim_user == "uB"
    assert audit["candidates"][0]["user_id"] == "uB"
    # equal ratios fall back to user id order
    others_tied = [("uC", rv(4, 4096), (2.0, 2048.0)),
                   ("uB", rv(4, 4096), (2.0, 2048.0))]
    scanned, chosen, audit = plan(v, others=others_tied, demand=rv(4, 4096))
    assert chosen.victim_user == "uB"


# -- the full preemption flow ----------------------------------------------------


def test_preemption_flow_end_to_end():
    # n1 is the only node satisfying the requester's constraints and it is
    # full of uC's work; uD is further over share but owns no eligible node
    cap = rv(16, 16384)
    cluster = build_cluster(
        {"lm0": {"gm0": [("n0", cap, cs(1)), ("n1", cap, cs(2, 9)),
                         ("n2", cap, cs(3)), ("n3", cap, cs(3)),
                         ("n4", cap, cs(2))]}},
        {"uA": ("gm0", 0.10), "uB": ("gm0", 0.16),
         "uC": ("gm0", 0.12), "uD": ("gm0", 0.20)})
    gm = cluster.gms[0]
    small = rv(8, 2048)
    for tid, user, constraint, at in (
            ("b1", "uB", 1, 0.0), ("b2", "uB", 1, 0.0),
            ("c1", "uC", 2, 0.0), ("c2", "uC", 2, 0.5),
            ("d1", "uD", 3, 0.0), ("d2", "uD", 3, 0.0),
            ("d3", "uD", 3, 0.0), ("d4", "uD", 3, 0.0)):
        cluster.submit(task(tid, user=user, demand=small, constraints=(constraint,),
                            arrival=at, duration=50.0), gm)
    cluster.submit(task("ta", user="uA", demand=rv(16, 4096),
                        constraints=(2, 9), arrival=1.0, duration=5.0), gm)
    lm, sent = cluster.lms[0], []
    forward = lm.on_preempt_request
    lm.on_preempt_request = lambda req, now: (sent.append(req), forward(req, now))
    cluster.run_all()
    collector = cluster.collector

    # the request the GM built positionally reads back by field name
    req, = sent
    assert (req.gm_id, req.task_id, req.node_id, req.victim_ids, req.demand) == (
        "gm0", "ta", "n1", ("c2", "c1"), rv(16, 4096))
    assert req.run.request.task_id == "ta"

    audit = collector.audit_preemptions[0]
    assert audit["requester_user"] == "uA"
    assert [c["user_id"] for c in audit["candidates"]] == ["uD", "uC"]
    assert [c["yielded_victims"] for c in audit["candidates"]] == [False, True]
    # ratios as the deciding GM saw them, rechecked from raw numbers
    for cand in audit["candidates"]:
        assert cand["ratio"] == pytest.approx(
            share_ratio(cand["viewed_consumed"], cand["share"], "cpu"))
    assert audit["candidates"][0]["ratio"] == pytest.approx(2.0)
    assert audit["candidates"][1]["ratio"] == pytest.approx(16 / 9.6)
    assert audit["chosen_user"] == "uC"
    assert audit["victim_ids"] == ("c2", "c1")  # most recent launch dies first
    assert audit["node_id"] == "n1"

    assert collector.counters["preempt_attempts"] == 1
    assert collector.counters["preemptions"] == 2
    assert collector.counters["inconsistency_failures"] == 0

    records = {r.task_id: r for r in collector.records}
    ra = records["ta"]
    assert ra.attempts == 2
    assert ra.preempted_count_caused == 2
    assert not ra.repartitioned
    # preempt round trip plus launch request plus payload
    assert ra.communication_delay == pytest.approx(4 * HOP, abs=1e-9)
    assert ra.task_start == pytest.approx(1.0 + 4 * HOP, abs=1e-9)

    # victims keep their original records; the kill costs them their work
    assert records["c1"].task_start == pytest.approx(2 * HOP, abs=1e-9)
    assert records["c2"].task_start == pytest.approx(0.5 + 2 * HOP, abs=1e-9)

    # displaced work lands on the other constraint-compatible node: each
    # victim, killed once, is requeued and launched a second time, no more
    relaunches = [e for e in collector.audit_launches
                  if e["task_id"] in ("c1", "c2") and e["ok"]]
    assert sorted(e["task_id"] for e in relaunches) == ["c1", "c1", "c2", "c2"]
    assert [e["node_id"] for e in relaunches[2:]] == ["n4", "n4"]

    assert collector.completed == 9
    assert gm.queues.by_user["uC"].consumed == rv(0, 0)
    check_conservation(cluster.lms[0])


def test_over_share_requester_is_parked_not_served():
    # one node, hogged by uB; uA's queue is guarded because uA is over share
    cluster = build_cluster(
        {"lm0": {"gm0": [("n0", rv(8, 8192), cs()), ("n1", rv(8, 8192), cs())]}},
        {"uA": ("gm0", 0.10), "uB": ("gm0", 0.50)})
    gm = cluster.gms[0]
    # uA's first task eats a full node: 8 cpu against a share of 1.6
    cluster.submit(task("a1", user="uA", demand=rv(8, 8192), duration=4.0), gm)
    cluster.submit(task("b1", user="uB", demand=rv(8, 8192), duration=50.0), gm)
    cluster.submit(task("a2", user="uA", demand=rv(8, 8192),
                        arrival=1.0, duration=1.0), gm)
    cluster.run_all()

    guard_audits = [a for a in cluster.collector.audit_preemptions
                    if a["task_id"] == "a2"]
    assert guard_audits and guard_audits[0]["requester_user"] == "uA"
    assert guard_audits[0]["candidates"] == ()
    # a2 only runs after a1 finishes and uA is back under its share
    r2 = {r.task_id: r for r in cluster.collector.records}["a2"]
    assert r2.task_start > 4.0
    assert cluster.collector.counters["preemptions"] == 0
