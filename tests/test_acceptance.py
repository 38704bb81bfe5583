"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
Expensive experiment runs are cached at module level and shared between
criteria; the component-closure criterion sweeps every cached run.
"""

import bisect
import random
import time

from fedsched.config import ExperimentConfig, UserSpec, WorkloadSpec
from fedsched.core import ResourceVector, constraint_bits
from fedsched.experiment import (InvariantChecker, build_megha, build_workload,
                                 check_structure, effective_users,
                                 run_experiment, sweep, write_reports)
from fedsched.state import NodeSnapshot, PartitionSnapshot, ViewPartition
from fedsched.workload import ClusterProfile

from oracles import brute_force_match, share_ratio
from scenarios import build_cluster, build_race_cluster, cs, rv, task

_CACHE: dict = {}
_ALL_RUNS: list = []


def _line(num: int, title: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {num:>2} {title}: {detail}")


def _cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _run(config, **kwargs):
    result = run_experiment(config, **kwargs)
    _ALL_RUNS.append(result)
    return result


def _config(**over) -> ExperimentConfig:
    config = ExperimentConfig(**over)
    config.validate()
    return config


def _median(result) -> float:
    return result.summary["allocation_time"]["median"]


def _p99(result) -> float:
    return result.summary["allocation_time"]["p99"]


def _worst_closure(results) -> float:
    worst = 0.0
    for result in results:
        for r in result.records:
            total = (r.framework_queuing_delay + r.processing_delay
                     + r.worker_queuing_delay + r.communication_delay)
            worst = max(worst, abs(r.allocation_time - total))
    return worst


# -- shared experiment runs ---------------------------------------------------------


def _conservation_runs():
    """Three invariant-checked runs: contended, fairness-heavy, centralized."""
    def build():
        contended = _run(_config(
            gm_count=2, lm_count=2, workers_per_lm=8,
            workload=WorkloadSpec(count=300, rate=200.0, duration=0.5,
                                  demand=ResourceVector.of(16, 4096)),
            seed=29), check_invariants=True, audit=True)
        fairness = _run(_config(
            gm_count=4, lm_count=2, workers_per_lm=6,
            users=[UserSpec("uA", 0.10, 0), UserSpec("uB", 0.25, 1),
                   UserSpec("uC", 0.15, 2), UserSpec("uD", 0.50, 3)],
            workload=WorkloadSpec(count=400, rate=400.0, duration=1.0,
                                  demand=ResourceVector.of(16, 4096)),
            seed=31), check_invariants=True, audit=True)
        central = _run(_config(
            scheduler="centralized", gm_count=1, lm_count=1, workers_per_lm=16,
            workload=WorkloadSpec(count=200, rate=100.0, duration=1.0,
                                  demand=ResourceVector.of(16, 4096)),
            seed=37), check_invariants=True, audit=True)
        return [contended, fairness, central]
    return _cached("conservation", build)


def _tail_pair():
    """1,000 workers at 80% steady utilization, 10,000 tasks, both schedulers."""
    def build():
        workload = dict(count=10_000, rate=640.0, duration=5.0,
                        demand=ResourceVector.of(16, 4096))
        started = time.monotonic()
        megha = _run(_config(
            gm_count=5, lm_count=5, workers_per_lm=200,
            workload=WorkloadSpec(**workload), seed=7))
        probe = _run(_config(
            scheduler="sparrow", lm_count=10, workers_per_lm=100,
            slot_demand=ResourceVector.of(16, 4096), probe_count=2,
            workload=WorkloadSpec(**workload), seed=7))
        return megha, probe, time.monotonic() - started
    return _cached("tail", build)


def _central_pair():
    """Same moderate-load workload on 1GM-1LM vs 5GM-5LM, 2,000 workers."""
    def build():
        workload = dict(count=4000, rate=1200.0, duration=2.0,
                        demand=ResourceVector.of(16, 4096))
        central = _run(_config(
            scheduler="centralized", gm_count=1, lm_count=1,
            workers_per_lm=2000, workload=WorkloadSpec(**workload), seed=11))
        spread = _run(_config(
            gm_count=5, lm_count=5, workers_per_lm=400,
            workload=WorkloadSpec(**workload), seed=11))
        return central, spread
    return _cached("central", build)


def _size_sweep():
    """Same workload on 10GM-10LM clusters of 1k, 5k, 10k workers."""
    def build():
        config = _config(
            gm_count=10, lm_count=10, workers_per_lm=100,
            machine_profiles=[ClusterProfile("base", {1: 1.0, 2: 1.0, 3: 1.0})],
            workload=WorkloadSpec(count=8000, rate=500.0, duration=1.0,
                                  demand=ResourceVector.of(16, 4096),
                                  constraint_probabilities={1: 1.0, 2: 1.0, 3: 1.0}),
            seed=5)
        results = sweep(config, "workers", [100, 500, 1000])
        _ALL_RUNS.extend(r for _, r in results)
        return results
    return _cached("sizes", build)


def _fairness_sweep():
    """Burst over four shared queues on growing clusters; smallest contends."""
    def build():
        results = []
        for workers in (50, 125, 250):
            config = _config(
                gm_count=4, lm_count=4, workers_per_lm=workers,
                users=[UserSpec("uA", 0.10, 0), UserSpec("uB", 0.25, 1),
                       UserSpec("uC", 0.15, 2), UserSpec("uD", 0.50, 3)],
                workload=WorkloadSpec(count=1000, rate=2000.0, duration=3.0,
                                      demand=ResourceVector.of(16, 4096)),
                seed=17)
            results.append((workers, run_experiment(config, audit=True)))
        _ALL_RUNS.extend(r for _, r in results)
        return results
    return _cached("fairness", build)


def _preemption_replay():
    """Steady-contention run on hand-built clusters with full state capture.

    Two 24-slot LM halves stay saturated by three long-task floods; a fourth,
    far-under-share user then needs one slot every second, so each of its
    arrivals forces a preemption decision.  A post-event hook snapshots the
    authoritative per-user consumption after every event for later replay.
    """
    def build():
        cap = rv(16, 16384)
        demand = rv(4, 2048)
        spec = {}
        for lm in ("lmA", "lmB"):
            spec[lm] = {
                "gm0": [(f"{lm}-g0n{i}", cap, cs()) for i in range(2)],
                "gm1": [(f"{lm}-g1n{i}", cap, cs()) for i in range(4)],
            }
        cluster = build_cluster(spec, {
            "uA": ("gm0", 0.15), "uB": ("gm0", 0.20),
            "uC": ("gm1", 0.15), "uD": ("gm1", 0.50),
        })
        tasks = []
        for k in range(20):
            tasks.append(task(f"d{k:02d}", user="uD", demand=demand,
                              arrival=k * 0.0031, duration=12.0))
        for k in range(12):
            tasks.append(task(f"c{k:02d}", user="uC", demand=demand,
                              arrival=0.08 + k * 0.0031, duration=12.0))
        for k in range(16):
            tasks.append(task(f"b{k:02d}", user="uB", demand=demand,
                              arrival=0.16 + k * 0.0031, duration=12.0))
        for k in range(6):
            tasks.append(task(f"a{k}", user="uA", demand=demand,
                              arrival=1.0003 + k * 1.0, duration=2.0))
        gm_of = {"uA": 0, "uB": 0, "uC": 1, "uD": 1}
        for t in tasks:
            cluster.submit(t, cluster.gms[gm_of[t.user_id]])

        timeline: list[tuple[float, dict]] = [(-1.0, {})]
        checker = InvariantChecker(cluster.lms, cluster.gms)

        def hook(now: float) -> None:
            checker(now)
            consumed: dict[str, tuple] = {}
            for lm in cluster.lms:
                for rt in lm.running.values():
                    info = rt.info
                    prev = consumed.get(info.user_id)
                    total = info.demand if prev is None else prev + info.demand
                    consumed[info.user_id] = total
            timeline.append((now, {u: v.quantities for u, v in consumed.items()}))

        cluster.loop.post_event_hook = hook
        cluster.run_all()
        return cluster, timeline, checker
    return _cached("replay", build)


# -- the criteria ----------------------------------------------------------------


def test_c01_bitmap_match_equals_exhaustive_scan():
    rng = random.Random("acceptance/match")
    m = 21
    trials = 10_000
    started = time.monotonic()
    mismatches = 0
    for _ in range(trials):
        n = rng.randint(1, 512) if rng.random() < 0.1 else rng.randint(1, 24)
        node_cons = [cs(*(c for c in range(m) if rng.random() < 0.35))
                     for _ in range(n)]
        avail = [rv(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(n)]
        want_cons = () if rng.random() < 0.25 else tuple(
            rng.randrange(m) for _ in range(rng.randint(1, 3)))
        demand = rv(rng.randint(0, 6), rng.randint(0, 6))

        snapshot = PartitionSnapshot(
            partition_id="p0", lm_id="lm0", owner_gm_id="gm0",
            nodes=tuple(NodeSnapshot(node_id=f"n{i}", available=avail[i],
                                     is_logical=False, parent_node=None,
                                     running=())
                        for i in range(n)),
            bits=constraint_bits(m, node_cons), log=[], version=0)
        got, _, _ = ViewPartition(snapshot).match(cs(*want_cons), demand)
        want = brute_force_match(node_cons, avail, cs(*want_cons), demand)
        if got != want:
            mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60.0
    _line(1, "bitmap match equals exhaustive scan", ok,
          f"{trials} instances, {mismatches} mismatches, {elapsed:.1f}s")
    assert ok


def test_c02_conservation_and_launch_safety():
    results = _conservation_runs()  # raises on any mid-run violation

    launches = 0
    bad = 0
    for result in results:
        for entry in result.audit_launches:
            if not entry["ok"]:
                continue
            launches += 1
            if not set(entry["machine_constraints"]) >= set(entry["task_constraints"]):
                bad += 1
            elif any(a < d for a, d in zip(entry["available_before"], entry["demand"])):
                bad += 1

    # a directly built twin proves the checker really runs at every event
    config = _config(gm_count=2, lm_count=2, workers_per_lm=8,
                     workload=WorkloadSpec(count=100, rate=100.0, duration=0.5,
                                           demand=ResourceVector.of(16, 4096)),
                     seed=29)
    users = effective_users(config)
    loop, collector, lms, gms = build_megha(
        config, build_workload(config, users), users)
    checker = InvariantChecker(lms, gms)
    loop.post_event_hook = checker
    loop.run()

    ok = bad == 0 and launches > 600 and checker.checks == loop.events_dispatched > 0
    _line(2, "conservation and launch-time safety", ok,
          f"{launches} validated launches replayed, {bad} violations, "
          f"{checker.checks} per-event state checks")
    assert ok


def test_c03_allocation_components_close():
    _conservation_runs()
    _tail_pair()
    _central_pair()
    _size_sweep()
    _fairness_sweep()
    worst = _worst_closure(_ALL_RUNS)
    tasks = sum(len(r.records) for r in _ALL_RUNS)
    ok = tasks > 50_000 and worst <= 1e-9
    _line(3, "delay components sum to allocation time", ok,
          f"{tasks} tasks across {len(_ALL_RUNS)} runs, worst residual {worst:.3g}s")
    assert ok


def test_c04_partition_structure_is_preserved():
    # one partition per (GM, LM) pair at init, for assorted shapes
    for gm_count, lm_count in ((1, 3), (3, 1), (4, 4), (2, 5)):
        config = _config(gm_count=gm_count, lm_count=lm_count, workers_per_lm=4,
                         workload=WorkloadSpec(count=1, rate=1.0, duration=0.1,
                                               demand=ResourceVector.of(1, 256)))
        users = effective_users(config)
        _, _, lms, gms = build_megha(config, build_workload(config, users), users)
        check_structure(lms, gms)

    # a run whose spillover forces carve-outs, re-checked after every event
    cap = rv(16, 16384)
    cluster = build_cluster(
        {"lmA": {"gm0": [("a0", cap, cs())], "gm1": [("a1", cap, cs())]},
         "lmB": {"gm0": [("b0", cap, cs())], "gm1": [("b1", cap, cs())]}},
        {"u0": ("gm0", 0.5), "u1": ("gm1", 0.5)})
    for k in range(6):
        cluster.submit(task(f"t{k}", user="u0", demand=rv(8, 4096),
                            arrival=k * 0.01, duration=5.0), cluster.gms[0])

    first_home: dict[str, str] = {}
    rehomed: list[str] = []
    checker = InvariantChecker(cluster.lms, cluster.gms)

    def hook(now: float) -> None:
        checker(now)
        for lm in cluster.lms:
            for part in lm.partitions.values():
                for node_id in part.node_ids:
                    if not lm.nodes[node_id].is_logical:
                        continue
                    home = first_home.setdefault(node_id, part.partition_id)
                    if home != part.partition_id:
                        rehomed.append(node_id)

    cluster.loop.post_event_hook = hook
    cluster.run_all()

    carved = cluster.collector.counters.get("repartitions", 0)
    ok = (carved == 2 and len(first_home) == 2 and not rehomed
          and checker.checks > 0)
    _line(4, "one partition per GM-LM pair, carve-outs never re-home", ok,
          f"{checker.checks} structural checks, {carved} carve-outs, "
          f"{len(rehomed)} re-homed logical nodes")
    assert ok


def test_c05_tail_latency_vs_probe_baseline():
    megha, probe, elapsed = _tail_pair()
    m_med, p_med = _median(megha), _median(probe)
    m_p99, p_p99 = _p99(megha), _p99(probe)
    median_ratio = max(m_med, p_med) / min(m_med, p_med)
    tail_ratio = p_p99 / m_p99
    ok = tail_ratio >= 10.0 and median_ratio <= 10.0 and elapsed < 300.0
    _line(5, "p99 at high load beats probe baseline 10x", ok,
          f"medians {m_med:.4f}s vs {p_med:.4f}s (ratio {median_ratio:.1f}), "
          f"p99 {m_p99:.4f}s vs {p_p99:.2f}s (ratio {tail_ratio:.0f}), "
          f"{elapsed:.0f}s runtime")
    assert ok


def test_c06_decentralized_beats_single_master():
    central, spread = _central_pair()
    ok = (_median(spread) < _median(central) and _p99(spread) < _p99(central))
    _line(6, "5GM-5LM beats 1GM-1LM on 2k workers", ok,
          f"median {_median(spread):.4f}s vs {_median(central):.4f}s, "
          f"p99 {_p99(spread):.4f}s vs {_p99(central):.4f}s")
    assert ok


def test_c07_allocation_grows_with_cluster_size():
    results = _size_sweep()
    medians = [_median(r) for _, r in results]
    sizes = [int(v) * 10 for v, _ in results]
    ok = (all(a <= b for a, b in zip(medians, medians[1:]))
          and medians[-1] > medians[0])
    _line(7, "median allocation non-decreasing in cluster size", ok,
          ", ".join(f"{s} workers: {m * 1e3:.4f}ms"
                    for s, m in zip(sizes, medians)))
    assert ok


def test_c08_contention_fades_as_cluster_grows():
    results = _fairness_sweep()
    preemptions = [r.counters.get("preemptions", 0) for _, r in results]
    medians = [_median(r) for _, r in results]
    sizes = [int(v) * 4 for v, _ in results]
    uncontended_checks = sum(len(r.audit_preemptions) for _, r in results[1:])
    ok = (all(a >= b for a, b in zip(preemptions, preemptions[1:]))
          and all(a >= b for a, b in zip(medians, medians[1:]))
          and preemptions[0] > 0 and preemptions[-1] == 0
          and uncontended_checks == 0)
    _line(8, "preemptions and medians shrink as workers grow", ok,
          ", ".join(f"{s}w: {p} preemptions, median {m:.4f}s"
                    for s, p, m in zip(sizes, preemptions, medians)))
    assert ok


def test_c09_preemptions_replay_as_fair():
    cluster, timeline, _ = _preemption_replay()
    audits = cluster.collector.audit_preemptions
    plans = [a for a in audits if a.chosen_user is not None]
    times = [t for t, _ in timeline]

    bad = []
    for audit in plans:
        cands = audit.candidates
        ratios = [share_ratio(c.viewed_consumed, c.share, audit.metric)
                  for c in cands]
        if any(abs(r - c.ratio) > 1e-12 for r, c in zip(ratios, cands)):
            bad.append((audit.task_id, "audited ratio drifts from raw state"))
        if any(r <= 1.0 for r in ratios):
            bad.append((audit.task_id, "candidate within its share"))
        if any(a < b for a, b in zip(ratios, ratios[1:])):
            bad.append((audit.task_id, "candidates not ranked by ratio"))
        if cands[-1].user_id != audit.chosen_user or not cands[-1].yielded_victims:
            bad.append((audit.task_id, "chosen user is not the last candidate"))
        if any(c.yielded_victims for c in cands[:-1]):
            bad.append((audit.task_id, "higher-ratio candidate could yield"))

        # the requester stayed within its share in the authoritative state
        # bracketing the decision instant, not merely in the GM's view
        idx = bisect.bisect_right(times, audit.time) - 1
        for _, consumed in (timeline[idx], timeline[min(idx + 1, len(timeline) - 1)]):
            held = consumed.get(audit.requester_user)
            if held is None:
                continue
            if share_ratio(held, audit.requester_share, audit.metric) > 1.0 + 1e-9:
                bad.append((audit.task_id, "requester over share in truth"))

    counters = cluster.collector.counters
    planned_kills = sum(len(a.victim_ids) for a in plans)
    ok = (len(plans) >= 5 and not bad
          and counters.get("preemptions", 0) == planned_kills
          and counters.get("preempt_attempts", 0) == len(plans))
    _line(9, "every preemption replays as maximal-ratio and in-share", ok,
          f"{len(plans)} decisions, {planned_kills} kills, "
          f"{len(bad)} replay violations")
    assert ok, bad


def test_c10_same_seed_same_bytes(tmp_path):
    configs = {
        "megha": lambda: _config(
            gm_count=2, lm_count=2, workers_per_lm=25,
            machine_profiles=[ClusterProfile("p", {2: 0.9})],
            workload=WorkloadSpec(count=400, rate=300.0, duration=1.0,
                                  demand=ResourceVector.of(16, 4096),
                                  constraint_probabilities={2: 0.3}),
            seed=23),
        "sparrow": lambda: _config(
            scheduler="sparrow", lm_count=2, workers_per_lm=25,
            slot_demand=ResourceVector.of(16, 4096),
            workload=WorkloadSpec(count=400, rate=300.0, duration=1.0,
                                  demand=ResourceVector.of(16, 4096)),
            seed=23),
    }
    identical = True
    for name, make in configs.items():
        blobs = []
        for attempt in ("a", "b"):
            out = tmp_path / f"{name}-{attempt}"
            paths = write_reports(_run(make()), str(out))
            blobs.append(tuple(open(p, "rb").read() for p in
                               (paths["tasks"], paths["summary"])))
        identical = identical and blobs[0] == blobs[1]
    ok = identical
    _line(10, "same seed gives byte-identical reports", ok,
          f"{len(configs)} schedulers, repeated runs compared byte for byte")
    assert ok


def test_c11_losing_racer_recovers_from_stale_state():
    cluster, t0, t1 = build_race_cluster()
    cluster.run_all()
    records = {r.task_id: r for r in cluster.collector.records}
    decisions = cluster.collector.audit_launches
    failures = [e for e in decisions if not e["ok"]]
    successes = [e for e in decisions if e["ok"]]
    counters = cluster.collector.counters
    ok = (len(failures) == 1
          and failures[0]["task_id"] == t1.task_id
          and failures[0]["node_id"] == successes[0]["node_id"]  # the contested node
          and counters.get("inconsistency_failures", 0) == len(failures)
          and set(records) == {t0.task_id, t1.task_id}
          and cluster.collector.completed == 2
          and records[t1.task_id].attempts == 2)
    _line(11, "two-GM race yields one failure-and-snapshot then recovery", ok,
          f"{len(failures)} failed decision of {len(decisions)}, "
          f"{counters.get('inconsistency_failures', 0)} inconsistencies, "
          f"both tasks placed")
    assert ok
