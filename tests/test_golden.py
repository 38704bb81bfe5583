"""Golden digests: refactors of host-side state must not change what is simulated.

Each config is small enough to run in well under a second.  The digests are
the sha256 of the `tasks.csv` and `summary.json` the run writes; they were
recorded once from the simulator before its LM snapshot cache and GM match
memo existed (the `sparrow` ones before the probe baseline computed worker
eligibility once per constraint set), and must never be re-recorded to
make a change pass.  The contended config's `tasks.jsonl` and audit files
have digests of their own, recorded the same way.  The `centralized_large`
ones were recorded before the LM kept a change log of its partitions.
"""

import hashlib

import pytest

from fedsched.config import config_from_dict
from fedsched.experiment import (build_megha, build_workload, effective_users,
                                 run_experiment, write_audits, write_reports)
from fedsched.local_master import LocalMaster

# 3 GMs x 2 LMs x 12 workers (96 slots) under a burst of 240 tasks of 2 s:
# GMs carve logical nodes out of each other's partitions, those nodes are
# destroyed again, and over-share users are preempted.
CONTENDED = {
    "scheduler": "megha", "gm_count": 3, "lm_count": 2, "workers_per_lm": 12,
    "worker_capacity": [64, 16384],
    "users": [{"user_id": "uA", "share": 0.2, "gm_index": 0},
              {"user_id": "uB", "share": 0.3, "gm_index": 1},
              {"user_id": "uC", "share": 0.5, "gm_index": 2}],
    "workload": {"kind": "synthetic", "count": 240, "rate": 800.0,
                 "duration": 2.0, "demand": [16, 4096]},
    "seed": 5,
}

# 1 GM x 1 LM x 25 workers (100 slots) at 400 tasks/s of 1 s: the single GM
# races its own in-flight requests, so validations fail and full snapshots
# travel on failure responses.
CENTRALIZED = {
    "scheduler": "centralized", "gm_count": 1, "lm_count": 1, "workers_per_lm": 25,
    "worker_capacity": [64, 16384],
    "workload": {"kind": "synthetic", "count": 400, "rate": 400.0,
                 "duration": 1.0, "demand": [16, 4096],
                 "constraint_probabilities": {"3": 0.3}},
    "seed": 3,
}

# 1 GM x 1 LM x 400 workers (1,600 slots) at 1,200 tasks/s of 1 s: the one
# partition is large, the GM races its own in-flight requests so full
# snapshots travel on failure responses, and its 2,400 launches and releases
# are several times its node count, so the LM's change log starts over.
CENTRALIZED_LARGE = {
    "scheduler": "centralized", "gm_count": 1, "lm_count": 1, "workers_per_lm": 400,
    "worker_capacity": [64, 16384],
    "workload": {"kind": "synthetic", "count": 1200, "rate": 1200.0,
                 "duration": 1.0, "demand": [16, 4096]},
    "seed": 7,
}

# Probe baseline over 10 LMs x 20 workers of 4 slots (800 slots) at 700
# tasks/s of 1 s: constraint 2 narrows the probes to part of the
# accelerated cluster, so tasks wait in worker queues, and no machine
# carries constraint 9, so a few tasks are unschedulable.
SPARROW = {
    "scheduler": "sparrow", "lm_count": 10, "workers_per_lm": 20,
    "worker_capacity": [64, 16384], "slot_demand": [16, 4096],
    "probe_count": 2, "sparrow_scheduler_count": 2,
    "machine_profiles": [
        {"profile_id": "accelerated", "probabilities": {"2": 0.5, "7": 0.9}},
        {"profile_id": "plain", "probabilities": {"7": 0.9}},
    ],
    "workload": {"kind": "synthetic", "count": 600, "rate": 700.0,
                 "duration": 1.0, "demand": [16, 4096],
                 "constraint_probabilities": {"2": 0.2, "9": 0.02}},
    "seed": 11,
}

GOLDEN = {
    "contended": (CONTENDED, {
        "tasks.csv": "f03ba68ecaf5c371a7555c3522162d002c348676cea387a1d1ea7020ff716141",
        "summary.json": "d70802c3646da567f3d3d4f4062a2a769701763b1a8cfdaef45442996969f738",
    }),
    "centralized": (CENTRALIZED, {
        "tasks.csv": "d06ed3bc2ef24d3bfbb7f50273ee429678947e6a5bf68180114e18a9137bc0d0",
        "summary.json": "64465d0907ca45f7050001ed35aa583fddb87152627345ec0b96ff4a7a7bc35b",
    }),
    "centralized_large": (CENTRALIZED_LARGE, {
        "tasks.csv": "1f137857988cbc8fad07917acd120418b4c0fff62391f3ea641453ef07c998a5",
        "summary.json": "a38c9b9afb6e31aa91b0d1434b8a5fc21656a53b31e42e975f31f987c90fb3ea",
    }),
    "sparrow": (SPARROW, {
        "tasks.csv": "4370aaf24c9d20683444f548e6767b581bc56f2e6744227713d5c1d0d122cc4f",
        "summary.json": "df583fdb2f4af0f4c51f74af8b82f57347193dcd61a32513adefc1ba85b5da01",
    }),
}


# The contended run's jsonl task records and its audit files, recorded from
# the simulator while each task still kept its sums in a separate
# accumulator object beside its run.
CONTENDED_JSONL_AUDITS = {
    "tasks.jsonl": "8ce9ca0f5750ea9622868abec7525dc1f9f6b1ca970db7b5898c6f032f01393e",
    "audit_launches.jsonl": "d1468e756be46e3285f8616a85b30cca8a5bc8dd986e0ade149635b970036ce5",
    "audit_preemptions.jsonl": "26cf41b8db55386ac7afa31231e34a3a10678439630eb17e9b44df177183529c",
}


def _digests(out_dir, names=("tasks.csv", "summary.json")) -> dict[str, str]:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reports_match_golden_digests(name, tmp_path):
    data, expected = GOLDEN[name]
    result = run_experiment(config_from_dict(data))
    write_reports(result, str(tmp_path))
    assert _digests(tmp_path) == expected


def test_contended_jsonl_and_audits_match_golden_digests(tmp_path):
    result = run_experiment(config_from_dict(CONTENDED), audit=True)
    write_reports(result, str(tmp_path), fmt="jsonl")
    write_audits(result, str(tmp_path))
    assert _digests(tmp_path, CONTENDED_JSONL_AUDITS) == CONTENDED_JSONL_AUDITS


def test_contended_config_takes_every_rare_path():
    counters = run_experiment(config_from_dict(CONTENDED)).counters
    assert counters["repartitions"] >= 1
    assert counters["preemptions"] >= 1
    assert counters["inconsistency_failures"] >= 1


def test_centralized_config_fails_validations():
    counters = run_experiment(config_from_dict(CENTRALIZED)).counters
    assert counters["inconsistency_failures"] >= 1


def test_centralized_large_config_fails_validations_and_restarts_its_log():
    config = config_from_dict(CENTRALIZED_LARGE)
    users = effective_users(config)
    loop, collector, (lm,), _ = build_megha(config, build_workload(config, users), users)
    first = lm.partition_logs["lm00-p00"]
    loop.run()
    assert collector.counters["inconsistency_failures"] >= 1
    assert lm.partition_logs["lm00-p00"] is not first


def test_sparrow_config_queues_at_workers_and_rejects_tasks():
    result = run_experiment(config_from_dict(SPARROW))
    assert result.unschedulable
    assert any(r.worker_queuing_delay > 0 for r in result.records)


def test_contended_views_hold_the_consumption_sent_at_their_update_time(monkeypatch):
    # the LM ships its consumption map by reference, so an LM that wrote to a
    # map it had sent would show GMs consumption from their future; the
    # invariant checker sees only the LM's own state, so compare every view
    # with copies of what was on the wire when it was sent
    sent: dict[tuple[str, float], list[dict]] = {}
    state = LocalMaster._state

    def logged_state(lm, timestamp, partition_ids):
        snapshot = state(lm, timestamp, partition_ids)
        sent.setdefault((lm.lm_id, timestamp), []).append(dict(snapshot.user_consumed))
        return snapshot

    monkeypatch.setattr(LocalMaster, "_state", logged_state)
    config = config_from_dict(CONTENDED)
    users = effective_users(config)
    loop, _, _, gms = build_megha(config, build_workload(config, users), users)
    checked = []

    def check(now):
        for gm in gms:
            view = gm.view
            for lm_id, consumed in view.lm_user_consumed.items():
                assert consumed in sent[lm_id, view.last_update_time[lm_id]], (gm.gm_id, now)
        checked.append(now)

    loop.post_event_hook = check
    loop.run()
    assert len(checked) == loop.events_dispatched
    assert any(len(maps) > 1 for maps in sent.values())  # same-time sends happen
    assert any(any(maps) for maps in sent.values())
