"""Config-driven experiment runs, report files, sweeps, and the CLI."""

import csv
import json
import math
import re
from pathlib import Path

import pytest

from fedsched.cli import main
from fedsched.config import UserSpec, config_from_dict
from fedsched.core import ResourceVector
from fedsched.errors import ConfigurationError, SimulationError
from fedsched import experiment
from fedsched.experiment import (ExperimentResult, build_megha, build_workload,
                                 effective_users, run_experiment, sweep, write_reports)
from fedsched.metrics import RECORD_FIELDS, AllocationRecord

TRACE_HEADER = "arrival_s,job_id,task_id,cpu,mem_mb,duration_s,constraints"
SAMPLE_TRACE = str(Path(__file__).resolve().parent.parent / "configs" / "sample-trace.csv")


def base_data(**over):
    data = {
        "scheduler": "megha",
        "gm_count": 2,
        "lm_count": 2,
        "workers_per_lm": 10,
        "worker_capacity": [64, 16384],
        "workload": {"kind": "synthetic", "count": 120, "rate": 100.0,
                     "duration": 1.0, "demand": [4, 1024]},
        "seed": 3,
    }
    data.update(over)
    return data


def base_config(**over):
    return config_from_dict(base_data(**over))


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# -- running experiments ---------------------------------------------------------


def test_single_task_yields_single_record():
    cfg = base_config(gm_count=1, lm_count=1, workers_per_lm=2,
                      workload={"kind": "synthetic", "count": 1, "rate": 10.0,
                                "duration": 0.5, "demand": [4, 1024]})
    result = run_experiment(cfg)
    assert len(result.records) == 1
    record = result.records[0]
    assert record.scheduler == "megha"
    assert result.summary["allocation_time"]["median"] == record.allocation_time
    assert result.summary["config"]["workers_total"] == 2
    assert result.unschedulable == []


def test_empty_trace_runs_to_empty_summary(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text(TRACE_HEADER + "\n")
    cfg = base_config(workload={"kind": "trace", "path": str(trace)})
    result = run_experiment(cfg)
    assert result.records == []
    assert result.summary["tasks"] == 0
    assert "allocation_time" not in result.summary


def test_megha_tasks_never_wait_at_workers_and_components_close():
    result = run_experiment(base_config(), check_invariants=True)
    assert len(result.records) == 120
    for r in result.records:
        assert r.worker_queuing_delay == 0.0
        total = (r.framework_queuing_delay + r.processing_delay
                 + r.worker_queuing_delay + r.communication_delay)
        assert abs(r.allocation_time - total) <= 1e-9
    assert result.events_dispatched > 0


def test_constrained_carve_outs_and_preemptions_pass_the_checker():
    """Carve-outs and preemptions on partitions with constraint bits, checked
    after every event: each carve-out appends a logical node to a partition
    and each release removes one, so the bits must be spliced to match."""
    data = base_data(
        gm_count=4, lm_count=2, workers_per_lm=6,
        users=[{"user_id": "uA", "share": 0.10, "gm_index": 0},
               {"user_id": "uB", "share": 0.25, "gm_index": 1},
               {"user_id": "uC", "share": 0.15, "gm_index": 2},
               {"user_id": "uD", "share": 0.50, "gm_index": 3}],
        machine_profiles=[
            {"profile_id": "accelerated", "probabilities": {"2": 0.5, "7": 0.9}},
            {"profile_id": "plain", "probabilities": {"7": 0.9}}],
        workload={"kind": "synthetic", "count": 60, "rate": 400.0, "duration": 1.0,
                  "demand": [16, 4096], "constraint_probabilities": {"7": 0.2, "2": 0.1}},
        seed=31)
    result = run_experiment(config_from_dict(data), check_invariants=True)
    assert len(result.records) == 60
    assert result.counters["repartitions"] > 0
    assert result.counters["preemptions"] > 0


def test_view_check_refuses_a_version_past_the_log():
    config = base_config()
    users = effective_users(config)
    _, _, _, gms = build_megha(config, build_workload(config, users), users)
    experiment.check_view_index(gms[0])
    part = next(iter(gms[0].view.partitions.values()))
    part.seen = len(part.log) + 1
    with pytest.raises(SimulationError, match="past its log"):
        experiment.check_view_index(gms[0])


def test_view_check_sees_what_is_built_on_first_use(monkeypatch):
    config = base_config()
    users = effective_users(config)
    _, _, _, gms = build_megha(config, build_workload(config, users), users)
    view = gms[0].view.partitions
    part, other = list(view.values())[:2]
    part.match(frozenset(), ResourceVector.of(4, 1024))
    experiment.check_view_index(gms[0])  # one view searched, the others untouched
    part.columns[0][0] -= 1
    with pytest.raises(SimulationError, match="columns != viewed availability"):
        experiment.check_view_index(gms[0])
    part.columns[0][0] += 1
    monkeypatch.setattr(other, "fits", {ResourceVector.of(4, 1024): 1})
    with pytest.raises(SimulationError, match="fit masks without columns"):
        experiment.check_view_index(gms[0])
    monkeypatch.setattr(other, "fits", {})
    monkeypatch.setitem(experiment._EMPTY, 0, ResourceVector.of(1, 1))
    with pytest.raises(SimulationError, match="shared empty mapping was written"):
        experiment.check_view_index(gms[0])


def test_centralized_is_the_single_master_configuration():
    with pytest.raises(ConfigurationError):
        base_config(scheduler="centralized")  # gm_count=2 in the base
    cfg = base_config(scheduler="centralized", gm_count=1, lm_count=1)
    result = run_experiment(cfg)
    assert all(r.scheduler == "centralized" for r in result.records)

    # identical to the federated scheduler pinned at one GM and one LM
    twin = run_experiment(base_config(gm_count=1, lm_count=1))
    assert [r.allocation_time for r in result.records] == \
        [r.allocation_time for r in twin.records]


def test_unsatisfiable_constraints_are_marked_unschedulable():
    cfg = base_config()
    cfg.workload.constraint_probabilities = {5: 1.0}
    result = run_experiment(cfg)  # machines carry no constraints
    assert result.records == []
    assert len(result.unschedulable) == 120
    assert result.summary["unschedulable"] == 120
    assert result.events_dispatched == 0


@pytest.mark.parametrize("profiles", [[], [{"profile_id": "p", "probabilities": {"1": 0.5}}]],
                         ids=["no-profiles", "half-drawn"])
def test_unconstrained_nodes_share_one_empty_constraint_set(profiles):
    cfg = base_config(machine_profiles=profiles)
    users = effective_users(cfg)
    _, _, lms, _ = build_megha(cfg, build_workload(cfg, users), users)
    nodes = [node for lm in lms for node in lm.nodes.values()]
    empty = [node.machine_constraints for node in nodes if not node.machine_constraints]
    assert len(empty) > 1
    assert len({id(constraints) for constraints in empty}) == 1
    assert len(empty) < len(nodes) if profiles else len(empty) == len(nodes)


def test_oversized_demand_is_unschedulable():
    cfg = base_config(workload={"kind": "synthetic", "count": 5, "rate": 10.0,
                                "duration": 0.5, "demand": [128, 1024]})
    result = run_experiment(cfg)
    assert len(result.unschedulable) == 5


def test_same_seed_reports_are_byte_identical(tmp_path):
    for sub in ("one", "two"):
        write_reports(run_experiment(base_config(seed=11)),
                      str(tmp_path / sub))
    a = (tmp_path / "one" / "tasks.csv").read_bytes()
    b = (tmp_path / "two" / "tasks.csv").read_bytes()
    assert a == b
    sa = (tmp_path / "one" / "summary.json").read_bytes()
    sb = (tmp_path / "two" / "summary.json").read_bytes()
    assert sa == sb


def test_different_seed_changes_the_workload():
    a = run_experiment(base_config(seed=11))
    b = run_experiment(base_config(seed=12))
    assert [r.arrival for r in a.records] != [r.arrival for r in b.records]


def test_load_factor_compresses_arrivals():
    cfg1 = base_config()
    cfg2 = base_config()
    cfg2.workload.load_factor = 2.0
    t1 = build_workload(cfg1, effective_users(cfg1))
    t2 = build_workload(cfg2, effective_users(cfg2))
    assert [t.task_id for t in t1] == [t.task_id for t in t2]
    for a, b in zip(t1, t2):
        assert b.arrival_time == pytest.approx(a.arrival_time / 2.0)
        assert b.duration == a.duration


def test_trace_user_must_be_declared(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text(TRACE_HEADER + ",user_id\n"
                     "0.5,j1,t1,400,50,1.0,,mallory\n")
    cfg = base_config(workload={"kind": "trace", "path": str(trace)},
                      users=[{"user_id": "uA", "share": 0.5}])
    with pytest.raises(ConfigurationError):
        run_experiment(cfg)


# -- config validation -------------------------------------------------------------


# Each entry: (top-level keys, workload keys) that make a 1 x 1 x 10 config
# malformed.  None of these is caught by the resource or bitmap operations
# any more, so each must be rejected where the config enters.
MALFORMED = {
    "task constraint id": ({}, {"constraint_probabilities": {"30": 0.5}}),
    "machine constraint id": (
        {"machine_profiles": [{"profile_id": "p", "probabilities": {"40": 0.5}}]}, {}),
    "demand dimension": ({}, {"demand": [4, 1024, 1]}),
    "slot_demand dimension": ({"slot_demand": [4, 1024, 1]}, {}),
    "zero exp duration": ({}, {"duration": ["exp", 0]}),
    "negative exp duration": ({}, {"duration": ["exp", -1]}),
    "empty duration choice": ({}, {"duration": ["choice", [], []]}),
    "demand mixture weight total": (
        {}, {"demand": [[[4, 1024], 0.0], [[8, 2048], 0.0]]}),
    "zero workload demand": ({}, {"demand": [0, 0]}),
    "zero vector in demand mixture": ({}, {"demand": [[[4, 1024], 1.0], [[0, 0], 1.0]]}),
    "demand mixture entry of three": (
        {}, {"demand": [[[1, 256], 1.0], [[1, 256], 1.0, 3]]}),
    "demand mixture entry not a pair": ({}, {"demand": [[[1, 256], 1.0], 5]}),
    "delay override kind": ({"delays": {"overrides": {"launch-request": 5.0}}}, {}),
    "machine profile without probabilities": (
        {"machine_profiles": [{"profile_id": "p"}]}, {}),
    "unknown delays key": ({"delays": {"network_dealy": 0.001}}, {}),
    "launch_delay key": ({"delays": {"launch_delay": 0.001}}, {}),
    "unknown costs key": ({"costs": {"gm_word_opp": 1e-6}}, {}),
    "user without share": ({"users": [{"user_id": "a"}]}, {}),
    "string workload count": ({}, {"count": "x"}),
    "string gm_count": ({"gm_count": "2"}, {}),
    "bool gm_count": ({"gm_count": True}, {}),
    "delay overrides not an object": ({"delays": {"overrides": 5}}, {}),
    "scalar worker_capacity": ({"worker_capacity": 5}, {}),
    "scalar workload demand": ({}, {"demand": 5}),
    "zero workload count": ({}, {"count": 0}),
    "negative workload rate": ({}, {"rate": -1}),
    "unknown arrival process": ({}, {"arrival": "bursty"}),
    "zero event_cap": ({"event_cap": 0}, {}),
    "zero-slot slot_demand": ({"slot_demand": [0, 0]}, {}),
    "slot_demand over capacity in one dimension": (
        {"worker_capacity": [64, 16384], "slot_demand": [128, 4096]}, {}),
    "task constraint probability above one": (
        {}, {"constraint_probabilities": {"1": 2.0}}),
    "NaN task constraint probability": ({}, {"constraint_probabilities": {"1": "nan"}}),
    "zero trace cpu_divisor": (
        {}, {"kind": "trace", "path": SAMPLE_TRACE, "cpu_divisor": 0}),
    "NaN network delay": ({"delays": {"network_delay": float("nan")}}, {}),
    "infinite workload rate": ({}, {"rate": float("inf")}),
    "negative constraint id": ({}, {"constraint_probabilities": {"-1": 0.5}}),
    "bool workload duration": ({}, {"duration": True}),
    "bool exp mean": ({}, {"duration": ["exp", True]}),
    "bool demand mixture weight": ({}, {"demand": [[[4, 1024], True]]}),
    "bool task constraint probability": ({}, {"constraint_probabilities": {"1": True}}),
    "string task constraint probability": ({}, {"constraint_probabilities": {"1": "0.5"}}),
    "bool machine profile probability": (
        {"machine_profiles": [{"profile_id": "p", "probabilities": {"1": True}}]}, {}),
    "string machine profile probability": (
        {"machine_profiles": [{"profile_id": "p", "probabilities": {"1": "0.5"}}]}, {}),
    "NaN delay override": ({"delays": {"overrides": {"task_launch": float("nan")}}}, {}),
    "infinite delay override": ({"delays": {"overrides": {"task_launch": float("inf")}}}, {}),
    "zero-padded task constraint id": (
        {}, {"constraint_probabilities": {"1": 0.2, "01": 0.9}}),
    "underscored task constraint id": ({}, {"constraint_probabilities": {"1_0": 0.2}}),
    "space-padded machine profile constraint id": (
        {"machine_profiles": [{"profile_id": "p", "probabilities": {"3": 0.1, " 3": 1.0}}]},
        {}),
    "negative user share": ({"users": [{"user_id": "a", "share": -0.1}]}, {}),
    "user share above one": ({"users": [{"user_id": "a", "share": 1.5}]}, {}),
    "negative network delay": ({"delays": {"network_delay": -1.0}}, {}),
    "negative cost": ({"costs": {"lm_validate": -1e-6}}, {}),
    "machine profile probability above one": (
        {"machine_profiles": [{"profile_id": "p", "probabilities": {"1": 1.5}}]}, {}),
    "zero heartbeat_period": ({"heartbeat_period": 0}, {}),
    "NaN heartbeat_period": ({"heartbeat_period": float("nan")}, {}),
    "duration choice weights past the largest float": (
        {}, {"duration": ["choice", [1.0, 2.0], [1e308, 1e308]]}),
    "demand mixture weights past the largest float": (
        {}, {"demand": [[[4, 1024], 1e308], [[8, 2048], 1e308]]}),
    "worker_capacity past 2**53": ({"worker_capacity": [10 ** 400, 16384]}, {}),
    "int duration past the largest float": ({}, {"duration": 10 ** 400}),
    "exp mean that can draw an infinite duration": ({}, {"duration": ["exp", 1e308]}),
}

# Configs that load, but whose workload cannot be built: each is refused when
# `run` builds it, before any event.
MALFORMED_WORKLOAD = {
    "subnormal workload rate": {"rate": 1e-320},
    "subnormal synthetic load_factor": {"load_factor": 1e-320},
    "subnormal trace load_factor": {"kind": "trace", "path": SAMPLE_TRACE, "load_factor": 1e-320},
    "subnormal trace cpu_divisor": {"kind": "trace", "path": SAMPLE_TRACE, "cpu_divisor": 5e-324},
    "NUL in the trace path": {"kind": "trace", "path": "configs/\x00.csv"},
}


@pytest.mark.parametrize("scheduler", ["megha", "centralized", "sparrow"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_rejected_before_running(case, scheduler, tmp_path, capsys):
    top, workload = MALFORMED[case]
    data = base_data(**{"scheduler": scheduler, "gm_count": 1, "lm_count": 1,
                        "workers_per_lm": 10,
                        "workload": {"kind": "synthetic", "count": 20, "rate": 100.0,
                                     "duration": 1.0, "demand": [4, 1024], **workload},
                        **top})
    with pytest.raises(ConfigurationError):
        config_from_dict(data)  # no cluster, hence no event, exists yet
    assert main(["run", "--config", write_config(tmp_path, data),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scheduler", ["megha", "centralized", "sparrow"])
@pytest.mark.parametrize("case", sorted(MALFORMED_WORKLOAD))
def test_unbuildable_workload_rejected_before_running(case, scheduler, tmp_path, capsys):
    data = base_data(scheduler=scheduler, gm_count=1, lm_count=1, workers_per_lm=10,
                     workload={"kind": "synthetic", "count": 20, "rate": 100.0,
                               "duration": 1.0, "demand": [4, 1024],
                               **MALFORMED_WORKLOAD[case]})
    cfg = config_from_dict(data)
    with pytest.raises(ConfigurationError):
        build_workload(cfg, effective_users(cfg))
    assert main(["run", "--config", write_config(tmp_path, data),
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ['{"gm_count": ' + "1" * 5000 + "}", b"\xff\xfe{}"],
                         ids=["int past the digit limit", "not UTF-8"])
def test_unreadable_config_json_exits_2(text, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["validate-config", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "invalid JSON" in err and "Traceback" not in err


CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
def test_shipped_configs_validate(path, monkeypatch, capsys):
    root = path.parent.parent
    monkeypatch.chdir(root)  # a trace path is relative to the repo root
    assert main(["validate-config", "--config", str(path.relative_to(root))]) == 0
    assert "ok" in capsys.readouterr().out


def test_validate_config_names_the_malformed_section(tmp_path, capsys):
    for data, named in (({"machine_profiles": [{"profile_id": "p"}]},
                         ("machine_profiles[0]", "probabilities")),
                        ({"delays": {"launch_delay": 0.001}}, ("delays", "launch_delay")),
                        ({"workload": {"count": "x"}}, ("workload.count", "integer")),
                        ({"workload": {"demand": [0, 0]}}, ("workload.demand", "non-zero")),
                        ({"workload": {"demand": [[[1, 256], 1.0], [[1, 256], 1.0, 3]]}},
                         ("workload.demand", "pairs")),
                        ({"workload": {"demand": [[[1, 256], 1.0], 5]}},
                         ("workload.demand", "pairs")),
                        ({"delays": {"overrides": {"task_launch": float("nan")}}},
                         ("delays.overrides", "finite"))):
        path = write_config(tmp_path, data)
        assert main(["validate-config", "--config", path]) == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named), err
        assert "Traceback" not in err


def test_non_utf8_trace_exits_2_naming_the_file(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    trace.write_bytes(TRACE_HEADER.encode() + b"\n0.5,j1,t\xff,400,50,1.0,\n")
    data = base_data(workload={"kind": "trace", "path": str(trace)})
    assert main(["run", "--config", write_config(tmp_path, data),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{trace}: not valid UTF-8" in err and "Traceback" not in err, err


def test_missing_trace_file_exits_2_without_a_traceback(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    data = base_data(workload={"kind": "trace", "path": missing})
    assert main(["run", "--config", write_config(tmp_path, data),
                 "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and missing in err
    assert "Traceback" not in err


def test_trace_demand_dimension_must_match_workers(tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text(TRACE_HEADER + "\n0.5,j1,t1,400,50,1.0,\n")
    cfg = base_config(workload={"kind": "trace", "path": str(trace)},
                      worker_capacity=[64, 16384, 8])
    with pytest.raises(ConfigurationError, match="dimensions"):
        build_workload(cfg, effective_users(cfg))


def test_default_demand_dimension_must_match_workers():
    # no demand configured: every task takes the 2-dimensional default
    data = base_data(worker_capacity=[64, 16384, 8])
    data["workload"] = {"kind": "synthetic", "count": 3, "rate": 1.0, "duration": 1.0}
    with pytest.raises(ConfigurationError, match=re.escape(
            "task t000000: demand (1, 256) does not have the 3 dimensions of "
            "worker_capacity")):
        run_experiment(config_from_dict(data))


def test_shares_may_not_exceed_the_cluster():
    with pytest.raises(ConfigurationError):
        base_config(users=[{"user_id": "a", "share": 0.5},
                           {"user_id": "b", "share": 0.75}])


def test_duplicate_users_rejected():
    with pytest.raises(ConfigurationError):
        base_config(users=[{"user_id": "a", "share": 0.2},
                           {"user_id": "a", "share": 0.2}])


def test_user_gm_index_must_be_in_range():
    with pytest.raises(ConfigurationError):
        base_config(users=[{"user_id": "a", "share": 0.2, "gm_index": 7}])


def test_unknown_config_keys_rejected():
    with pytest.raises(ConfigurationError):
        config_from_dict(base_data(bogus=1))
    with pytest.raises(ConfigurationError):
        config_from_dict(base_data(workload={"kind": "synthetic", "typo": 3}))


def test_demand_and_duration_spec_parsing():
    cfg = base_config(workload={
        "kind": "synthetic", "count": 10, "rate": 10.0,
        "duration": ["choice", [1.0, 2.0], [0.5, 0.5]],
        "demand": [[[1, 256], 0.9], [[4, 1024], 0.1]],
    })
    assert cfg.workload.duration == ("choice", (1.0, 2.0), (0.5, 0.5))
    assert cfg.workload.demand == [(ResourceVector.of(1, 256), 0.9),
                                   (ResourceVector.of(4, 1024), 0.1)]
    with pytest.raises(ConfigurationError):
        base_config(workload={"kind": "synthetic", "duration": "fast"})


def test_default_users_are_one_equal_share_per_gm():
    users = effective_users(base_config(gm_count=4))
    assert [u.user_id for u in users] == ["u0", "u1", "u2", "u3"]
    assert all(u.share == pytest.approx(0.25) for u in users)
    explicit = base_config(users=[{"user_id": "x", "share": 1.0}])
    assert [u.user_id for u in effective_users(explicit)] == ["x"]
    assert isinstance(effective_users(explicit)[0], UserSpec)


def test_sparrow_knob_validation():
    with pytest.raises(ConfigurationError):
        base_config(scheduler="sparrow", probe_count=0)
    with pytest.raises(ConfigurationError):
        base_config(scheduler="sparrow", slot_demand=[128, 999999])  # zero slots


def test_sparrow_small_run():
    cfg = base_config(scheduler="sparrow",
                      workload={"kind": "synthetic", "count": 50, "rate": 50.0,
                                "duration": 0.2, "demand": [4, 1024]})
    result = run_experiment(cfg)
    assert len(result.records) == 50
    assert all(r.scheduler == "sparrow" for r in result.records)
    for r in result.records:
        total = (r.framework_queuing_delay + r.processing_delay
                 + r.worker_queuing_delay + r.communication_delay)
        assert abs(r.allocation_time - total) <= 1e-9


# -- reports and sweeps --------------------------------------------------------------


def test_csv_report_shape(tmp_path):
    result = run_experiment(base_config(workload={
        "kind": "synthetic", "count": 5, "rate": 10.0, "duration": 0.2,
        "demand": [4, 1024]}))
    paths = write_reports(result, str(tmp_path))
    lines = open(paths["tasks"]).read().splitlines()
    assert lines[0] == ",".join(RECORD_FIELDS)
    assert len(lines) == 6
    summary = json.load(open(paths["summary"]))
    assert summary["tasks"] == 5


def test_jsonl_report_shape(tmp_path):
    result = run_experiment(base_config(workload={
        "kind": "synthetic", "count": 5, "rate": 10.0, "duration": 0.2,
        "demand": [4, 1024]}))
    paths = write_reports(result, str(tmp_path), fmt="jsonl")
    lines = open(paths["tasks"]).read().splitlines()
    assert len(lines) == 5
    row = json.loads(lines[0])
    assert set(row) == set(RECORD_FIELDS)


PLAIN_IDS = ("", " ", "\t", "t\u00e2che-\u00e9", "a b", "x'y", "p%sq")
QUOTED_IDS = ("a,b", 'say "hi"', "cr\rhere", "nl\nhere")
ODD_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 0.1 + 0.2, 1 / 3,
              1234567.8901234567, 5e-324, 1e300, 7)


def odd_records(ids):
    """Records with each id in every id column, and many-digit, signed and
    infinite floats, an int, bools and counts in the other columns."""
    records = []
    for i, text in enumerate(ids):
        floats = [ODD_FLOATS[(i + k) % len(ODD_FLOATS)] for k in range(7)]
        records.append(AllocationRecord(text, f"j{i}", "u0", "sparrow", *floats,
                                        i + 1, i % 2 == 0, 3 * i))
        records.append(AllocationRecord(f"t{i}", text, text, text, *floats,
                                        True, False, 0))
    return records


@pytest.mark.parametrize("ids, writer_calls", [
    (PLAIN_IDS, 0),
    *(((*PLAIN_IDS, quoted), 1) for quoted in QUOTED_IDS),
])
def test_csv_report_is_what_csv_writer_writes(ids, writer_calls, tmp_path, monkeypatch):
    records = odd_records(ids)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RECORD_FIELDS)
        writer.writerows(map(experiment._csv_row, records))
    calls = []
    real_writer = csv.writer
    monkeypatch.setattr(experiment.csv, "writer",
                        lambda *a, **kw: calls.append(1) or real_writer(*a, **kw))
    result = ExperimentResult(config=base_config(), records=records, summary={},
                              counters={})
    paths = write_reports(result, str(tmp_path / "out"))
    assert Path(paths["tasks"]).read_bytes() == reference.read_bytes()
    assert len(calls) == writer_calls  # the fallback writes only ids that need quoting


def test_sweep_runs_one_experiment_per_value():
    cfg = base_config(workload={"kind": "synthetic", "count": 20, "rate": 50.0,
                                "duration": 0.2, "demand": [4, 1024]})
    results = sweep(cfg, "workers", [2, 4])
    assert [value for value, _ in results] == [2, 4]
    assert [r.summary["config"]["workers_total"] for _, r in results] == [4, 8]
    with pytest.raises(ConfigurationError):
        sweep(cfg, "bogus", [1])


@pytest.mark.parametrize("axis, value", [
    ("workers", 2.7), ("workers", math.inf), ("workers", math.nan), ("gm_count", 1.5),
    ("lm_count", -math.inf), ("load", math.nan), ("load", math.inf), ("load", 0.0)])
def test_sweep_refuses_a_bad_axis_value_before_running(axis, value, monkeypatch):
    runs = []
    monkeypatch.setattr(experiment, "run_experiment", lambda *a, **kw: runs.append(1))
    with pytest.raises(ConfigurationError, match="workers|gm_count|lm_count|load_factor"):
        sweep(base_config(gm_count=1, lm_count=1), axis, [2, value])
    assert runs == []


# -- the command line -----------------------------------------------------------------


def test_cli_validate_config(tmp_path, capsys):
    path = write_config(tmp_path, base_data())
    assert main(["validate-config", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok:") and "workers=20" in out


def test_cli_run_writes_reports(tmp_path, capsys):
    path = write_config(tmp_path, base_data(workload={
        "kind": "synthetic", "count": 30, "rate": 50.0, "duration": 0.2,
        "demand": [4, 1024]}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "tasks.csv").exists()
    assert (out_dir / "summary.json").exists()
    printed = capsys.readouterr().out
    assert "megha:" in printed and "median=" in printed and "wrote" in printed


def test_cli_seed_override(tmp_path):
    path = write_config(tmp_path, base_data(workload={
        "kind": "synthetic", "count": 5, "rate": 10.0, "duration": 0.2,
        "demand": [4, 1024]}))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", path, "--seed", "99",
                 "--out-dir", str(out_dir)]) == 0
    summary = json.load(open(out_dir / "summary.json"))
    assert summary["config"]["seed"] == 99


def test_cli_bad_config_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, base_data(bogus=1))
    assert main(["run", "--config", path]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_livelock_exits_3(tmp_path, capsys):
    data = base_data(
        gm_count=1, lm_count=1, workers_per_lm=1,
        heartbeat_period=0.001, event_cap=400,
        workload={"kind": "synthetic", "count": 1, "rate": 1.0,
                  "duration": 1e6, "demand": [4, 1024]})
    path = write_config(tmp_path, data)
    assert main(["run", "--config", path, "--out-dir", str(tmp_path / "o")]) == 3
    assert "livelock:" in capsys.readouterr().err


def test_cli_simulation_error_exits_4(tmp_path, capsys, monkeypatch):
    def never_completes(config, *, check_invariants=False, audit=False):
        raise SimulationError("3 tasks never completed")

    monkeypatch.setattr("fedsched.cli.run_experiment", never_completes)
    path = write_config(tmp_path, base_data())
    assert main(["run", "--config", path, "--out-dir", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err == "simulation error: 3 tasks never completed\n"


SWEEP_2_3 = ["sweep", "--axis", "workers", "--values", "2,3"]


@pytest.mark.parametrize("command, under_a_file",
                         [([], True), (SWEEP_2_3, True), ([], False), (SWEEP_2_3, False)],
                         ids=["run", "sweep", "run-empty", "sweep-empty"])
def test_cli_out_dir_under_a_file_exits_2_before_simulating(command, under_a_file, tmp_path,
                                                            capsys, monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("simulated despite an unusable --out-dir")

    monkeypatch.setattr("fedsched.cli.run_experiment", must_not_run)
    monkeypatch.setattr("fedsched.cli.sweep", must_not_run)
    blocker = tmp_path / "file"
    blocker.write_text("")
    # an empty path names the working directory to os.path.abspath
    out_dir, named = ((str(blocker / "out"), str(blocker)) if under_a_file
                      else ("", "--out-dir"))
    argv = command or ["run"]
    assert main([*argv, "--config", write_config(tmp_path, base_data()),
                 "--out-dir", out_dir]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and "Traceback" not in err


def test_cli_failed_report_write_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, base_data(workload={
        "kind": "synthetic", "count": 5, "rate": 10.0, "duration": 0.2,
        "demand": [4, 1024]}))
    (tmp_path / "out" / "tasks.csv").mkdir(parents=True)  # the report path is taken
    assert main(["run", "--config", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_audits_are_kept_only_when_asked_for(tmp_path, capsys):
    data = base_data(gm_count=1, lm_count=1, workers_per_lm=2, workload={
        "kind": "synthetic", "count": 8, "rate": 50.0, "duration": 0.2,
        "demand": [64, 16384]})
    assert run_experiment(config_from_dict(data)).audit_launches == []
    audited = run_experiment(config_from_dict(data), audit=True)
    assert len([e for e in audited.audit_launches if e["ok"]]) == 8

    path = write_config(tmp_path, data)
    plain, out = tmp_path / "plain", tmp_path / "audited"
    assert main(["run", "--config", path, "--out-dir", str(plain)]) == 0
    assert not list(plain.glob("audit_*"))
    assert main(["run", "--config", path, "--out-dir", str(out), "--audit"]) == 0
    assert "audit_launches.jsonl" in capsys.readouterr().out
    lines = (out / "audit_launches.jsonl").read_text().splitlines()
    assert [json.loads(line) for line in lines] == json.loads(json.dumps(
        audited.audit_launches))
    assert (out / "audit_preemptions.jsonl").exists()


def test_cli_sweep(tmp_path, capsys):
    path = write_config(tmp_path, base_data(workload={
        "kind": "synthetic", "count": 20, "rate": 50.0, "duration": 0.2,
        "demand": [4, 1024]}))
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--config", path, "--axis", "workers",
                 "--values", "2,4", "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "workers-2" / "tasks.csv").exists()
    assert (out_dir / "workers-4" / "tasks.csv").exists()
    printed = capsys.readouterr().out
    assert "workers=2:" in printed and "workers=4:" in printed


@pytest.mark.parametrize("axis, values", [("load", "nan"), ("load", "0.7,inf"),
                                          ("workers", "2.7"), ("workers", "inf"),
                                          ("workers", "a,b"), ("workers", ","),
                                          # one directory label for two values
                                          ("load", "1.0000001,1.0000002"),
                                          ("workers", "2,2")])
def test_cli_sweep_bad_value_exits_2(axis, values, tmp_path, capsys):
    path = write_config(tmp_path, base_data())
    assert main(["sweep", "--config", path, "--axis", axis, "--values", values,
                 "--out-dir", str(tmp_path / "sweep")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()
