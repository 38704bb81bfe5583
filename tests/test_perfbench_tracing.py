"""The benchmark's traced run can wrap every entry point it names, and undo it.

`perfbench/tracing.py` patches methods and module functions of the package by
name.  Entering `Spans` fails if one of those names is gone, so renaming a
traced entry point fails here and not only in a traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spans_wrap_every_entry_point_and_restore_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    spans = tracing.Spans()
    with spans:
        patched = list(spans._patches)
        assert patched
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original, attr
    assert spans._patches == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, attr


SPARROW = {
    "scheduler": "sparrow", "lm_count": 2, "workers_per_lm": 5,
    "worker_capacity": [64, 16384], "slot_demand": [16, 4096], "probe_count": 2,
    "sparrow_scheduler_count": 2, "seed": 1,
    "workload": {"kind": "synthetic", "count": 80, "rate": 40.0, "duration": 1.0,
                 "demand": [16, 4096]},
}

# more tasks than slots and unequal shares: GMs carve out and preempt
CONTENDED = {
    "scheduler": "megha", "gm_count": 2, "lm_count": 2, "workers_per_lm": 4,
    "worker_capacity": [64, 16384], "seed": 1,
    "users": [{"user_id": "uA", "share": 0.2}, {"user_id": "uB", "share": 0.8}],
    "workload": {"kind": "synthetic", "count": 120, "rate": 2000.0, "duration": 1.0,
                 "demand": [16, 4096]},
}


def traced_run(monkeypatch, data):
    """Run a config inside `Spans`; returns the result and the message and
    plan-yield counts."""
    from fedsched.config import config_from_dict
    from fedsched.experiment import run_experiment

    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    with tracing.Spans() as spans:
        result = run_experiment(config_from_dict(data))
    counts = {kind: spans.counts["message." + kind] for kind in tracing.MESSAGE_KINDS}
    counts["plan_yields"] = spans.counts["plan_yields"]
    return result, counts


def test_traced_sparrow_run_counts_each_message_kind(monkeypatch):
    result, counts = traced_run(monkeypatch, SPARROW)
    placed = len(result.records)
    assert placed == 80
    # every task probes 2 of the 10 workers in one delivery, answered by one
    # reply that carries both estimates
    assert counts["probe"] == counts["probe_reply"] == counts["task_launch"] == placed


def test_traced_contended_run_counts_each_message_kind(monkeypatch):
    result, counts = traced_run(monkeypatch, CONTENDED)
    placed = len(result.records)
    assert placed == 120
    assert result.counters["repartitions"] > 0 and result.counters["preemptions"] > 0
    assert counts["task_completion"] == placed
    # each launch or carve-out request is answered exactly once
    assert counts["launch_request"] + counts["repartition_request"] == counts["launch_response"]
    # every plan the GM gets, the traced call's result[1], is one preempt attempt
    assert counts["plan_yields"] == result.counters["preempt_attempts"] > 0
