"""The benchmark's stage clock still sees every set-up stage of a run.

`perfbench/bench.py` `stage_clock` wraps `build_workload`, `build_megha` and
`build_sparrow` on the experiment module; the benchmark's `setup_s` and its
per-stage split come from the marks those wrappers record.  If
`run_experiment` stopped reaching a stage through those names, a mark would
go missing, and this fails here and not only in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from fedsched import experiment
from fedsched.config import config_from_dict

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BUILDERS = ("build_workload", "build_megha", "build_sparrow")


@pytest.mark.parametrize("scheduler", ["megha", "sparrow"])
def test_stage_clock_marks_each_stage_and_restores_the_builders(scheduler, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    bench = importlib.import_module("bench")
    originals = {name: experiment.__dict__[name] for name in BUILDERS}
    config = config_from_dict({
        "scheduler": scheduler, "gm_count": 1, "lm_count": 1, "workers_per_lm": 4,
        "workload": {"kind": "synthetic", "count": 12, "rate": 100.0,
                     "duration": 0.5, "demand": [4, 1024]},
    })
    with bench.stage_clock() as marks:
        result = experiment.run_experiment(config)
    assert marks["tasks"] == len(result.records) == 12
    assert marks["workload"] <= marks["cluster"] <= marks["run"]
    for name in BUILDERS:
        assert experiment.__dict__[name] is originals[name], name
