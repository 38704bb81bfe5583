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

import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fedsched.config import config_from_dict, load_config
from fedsched.engine import CostModel
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


# Each shipped config under configs/, run once with auditing, its reports
# written in both formats and its audits beside them.  These cover what the
# configs above do not: a trace workload, machine profiles, demand mixtures
# and exponential durations.  Recorded before the LM's partitions held their
# own node snapshots and change logs.
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
SHIPPED = {
    "centralized.json": {
        "tasks.csv": "f9c291bbf172e847fe837ec7461a070949b681bc14eccdd11e639e41b964d286",
        "tasks.jsonl": "97e060d56ab2d3b88bbe4866cb6bba83d073216ca19f8cb2e289ff88cc6f3ae4",
        "summary.json": "6305af21ed170da2803938ca6380df37b3620d681dab9df967117f7b59c2670a",
        "audit_launches.jsonl": "e1f0ef2a9d71e205e4e82193f520a3235b307a46e7f93be2ab31cb91e9cc04b4",
        "audit_preemptions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "fairness.json": {
        "tasks.csv": "753fcf4b10c623febb6979e8cf4ce98194095ec969be2716b199a9fe98ab97de",
        "tasks.jsonl": "9e4fd4ae610005d2f3a42d981f2b436e430f71b6a3a367ccdf882db755b18066",
        "summary.json": "8d4691693578f5aa5b948099fc8b362ebdf82bff293957ef7268d94d0746fa0f",
        "audit_launches.jsonl": "78f48a0947f6af000d1d013d2defe45e688e677f0b71c216d7a6331ae082dbfb",
        "audit_preemptions.jsonl": "39c38b18d523526e91f291aca717c44fde77954d0961868a0fb041fa2bd0e357",
    },
    "megha.json": {
        "tasks.csv": "7052583a6137aad611292e34477023a15e2ddc038ec12362ff5a1450146e478b",
        "tasks.jsonl": "7c62f148bdafcd8623df212ef148a492f179d98a4968c976759b30048aebf1fa",
        "summary.json": "d8632c376b907bd2769370a82fe4fbef264f56fc142c7bf28f167eb2b718ef76",
        "audit_launches.jsonl": "f33fe9dc9edc4451c84fafde99a27d7f55636126ad3484abc21ba266a22a5ff5",
        "audit_preemptions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "sparrow.json": {
        "tasks.csv": "a1d30b89544c641c904e7952a82ab5117cff1f87b65312b11beeef721e646e90",
        "tasks.jsonl": "9f6e27dd1c026863020e294b362f09abd98f652889c0b02df3ef04abfc7b7872",
        "summary.json": "11d93430ad149b3f29d2d536da16030df70d8daa873f3cd6cc232cc84ec2295d",
        "audit_launches.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "audit_preemptions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "trace.json": {
        "tasks.csv": "887f0832a4c6814179d746d6e05bb675bcc835a27c14b5b84cd693f398c1a5e7",
        "tasks.jsonl": "fd1a700edf79b11c4b646eced9f7b0506308a0f559fccde789f028cfc5c7a5e1",
        "summary.json": "63d54b80c8a45156e336d8a9376ae2d72b71831a839305e42414c10c9f11459e",
        "audit_launches.jsonl": "abfbade7ceba0db345768ce60b018b650ca019270c7331ea1a2bfdeee086640e",
        "audit_preemptions.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


# Zero network delay and zero costs, uniform arrivals 1/64 s apart and
# durations in half-seconds, with heartbeats every second: completions,
# arrivals, GM ticks, LM heartbeats and message deliveries land on exactly
# equal times, so these digests pin the event loop's tie order, which the
# continuous times of the configs above never exercise.  The megha run also
# carves out logical nodes, preempts and fails validations at those instants.
# Recorded while every pending event, task completions too, still shared one
# heap.
TIES_BASE = {
    "worker_capacity": [64, 16384], "heartbeat_period": 1.0, "seed": 3,
    "delays": {"network_delay": 0},
    "costs": {f.name: 0 for f in dataclasses.fields(CostModel)},
    "workload": {"kind": "synthetic", "arrival": "uniform", "count": 300, "rate": 64.0,
                 "duration": ["choice", [0.5, 1.0, 1.5], [1, 1, 1]],
                 "demand": [16, 4096]},
}
TIES = {
    "megha": (dict(TIES_BASE, scheduler="megha", gm_count=2, lm_count=2, workers_per_lm=4), {
        "tasks.csv": "9ab7d1d6d951ad17513ebd01e4de66919e3048a5c90b42643736fe928e3871c6",
        "summary.json": "eaef508c24d6588b194acc6e0383909e5eac6660152420f09c09bdfc79fed51b",
    }),
    "centralized": (dict(TIES_BASE, scheduler="centralized", gm_count=1, lm_count=1,
                         workers_per_lm=8), {
        "tasks.csv": "b821ff55967f56474456f94e6aad02e720303fc127f41ebd7f263a5b6d31ef87",
        "summary.json": "f98c51fb9231ebdfe180ccb2850ca84261285c51664305a9612abe36ef0a4be7",
    }),
    "sparrow": (dict(TIES_BASE, scheduler="sparrow", lm_count=2, workers_per_lm=4,
                     slot_demand=[16, 4096]), {
        "tasks.csv": "054620eca513c077f7cf128258d0287aeff831aed02a62aa299931badb08be49",
        "summary.json": "aae8f5b32dd37fe636e017e525217ecca31bd98f7244b4d9d74e96a1b97e40f8",
    }),
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


@pytest.mark.parametrize("name", sorted(TIES))
def test_tie_heavy_reports_match_golden_digests(name, tmp_path):
    data, expected = TIES[name]
    result = run_experiment(config_from_dict(data))
    write_reports(result, str(tmp_path))
    assert _digests(tmp_path) == expected


def test_tie_heavy_megha_config_takes_every_rare_path():
    counters = run_experiment(config_from_dict(TIES["megha"][0])).counters
    assert counters["repartitions"] >= 1
    assert counters["preemptions"] >= 1
    assert counters["inconsistency_failures"] >= 1


def test_contended_jsonl_and_audits_match_golden_digests(tmp_path):
    result = run_experiment(config_from_dict(CONTENDED), audit=True)
    write_reports(result, str(tmp_path), fmt="jsonl")
    write_audits(result, str(tmp_path))
    assert _digests(tmp_path, CONTENDED_JSONL_AUDITS) == CONTENDED_JSONL_AUDITS


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_config_reports_and_audits_match_digests(path, tmp_path, monkeypatch):
    root = path.parent.parent
    monkeypatch.chdir(root)  # a trace path is relative to the repo root
    result = run_experiment(load_config(str(path.relative_to(root))), audit=True)
    write_reports(result, str(tmp_path))
    write_reports(result, str(tmp_path), fmt="jsonl")
    write_audits(result, str(tmp_path))
    expected = SHIPPED[path.name]
    assert _digests(tmp_path, expected) == expected


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
@pytest.mark.parametrize("name", ["fairness.json", "centralized.json"])
def test_a_fresh_process_writes_the_shipped_digests(name, hash_seed, tmp_path):
    # process state (string hashing, the garbage collector) is no input: a
    # run in a new interpreter under either hash seed writes the same reports
    root = CONFIGS[0].parent.parent
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-m", "fedsched", "run", "--config", f"configs/{name}",
                    "--out-dir", str(tmp_path)], cwd=root, env=env, check=True,
                   capture_output=True, timeout=120)
    expected = {report: SHIPPED[name][report] for report in ("tasks.csv", "summary.json")}
    assert _digests(tmp_path) == expected


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
    first = lm.partitions["lm00-p00"].log
    loop.run()
    assert collector.counters["inconsistency_failures"] >= 1
    assert lm.partitions["lm00-p00"].log is not first


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
