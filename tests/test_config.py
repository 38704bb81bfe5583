"""The config boundary: one rule table, read by the JSON loader and by
`validate()` on a config built in Python, fuzzed with arbitrary JSON."""

import copy
import json
import math
import os
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsched.cli import main
from fedsched.config import RULES, ExperimentConfig, UserSpec, WorkloadSpec, config_from_dict
from fedsched.core import ResourceVector
from fedsched.engine import PROBE, CostModel, DelayModel
from fedsched.errors import ConfigurationError
from fedsched.experiment import (build_megha, build_sparrow, build_workload, effective_users,
                                 run_experiment)
from fedsched.workload import ClusterProfile

SAMPLE_TRACE = str(Path(__file__).resolve().parent.parent / "configs" / "sample-trace.csv")

# 1 x 1 x 10 workers, 20 tasks, and one entry in every section
BASE = {
    "scheduler": "megha", "gm_count": 1, "lm_count": 1, "workers_per_lm": 10,
    "worker_capacity": [64, 16384], "seed": 3,
    "delays": {"network_delay": 0.0005, "overrides": {"task_launch": 0.001}},
    "costs": {"lm_validate": 2e-5},
    "users": [{"user_id": "a", "share": 0.5}],
    "machine_profiles": [{"profile_id": "p", "probabilities": {"1": 0.5}}],
    "workload": {"kind": "synthetic", "count": 20, "rate": 100.0, "duration": 1.0,
                 "demand": [4, 1024], "constraint_probabilities": {"1": 0.2}},
}
TRACE_BASE = {**BASE, "workload": {"kind": "trace", "path": SAMPLE_TRACE,
                                   "constraint_probabilities": {"1": 0.2}}}


def python_config(**over) -> ExperimentConfig:
    """BASE as a config built in Python, without the JSON loader."""
    values = dict(
        gm_count=1, lm_count=1, workers_per_lm=10, seed=3,
        delays=DelayModel(overrides={"task_launch": 0.001}), costs=CostModel(lm_validate=2e-5),
        users=[UserSpec("a", 0.5)], machine_profiles=[ClusterProfile("p", {1: 0.5})],
        workload=WorkloadSpec(count=20, rate=100.0, duration=1.0,
                              demand=ResourceVector.of(4, 1024),
                              constraint_probabilities={1: 0.2}))
    values.update(over)
    return ExperimentConfig(**values)


def test_every_config_field_has_a_rule():
    # a rule naming an unknown kind or bound fails when config.py is imported
    for cls in (ExperimentConfig, WorkloadSpec, UserSpec, DelayModel, CostModel,
                ClusterProfile):
        assert list(RULES[cls]) == [f.name for f in fields(cls)], cls.__name__


def test_python_built_and_loaded_base_configs_agree():
    loaded = config_from_dict(BASE)
    assert python_config() == loaded
    run_experiment(python_config())


# Each case: (top-level JSON keys over BASE, keyword arguments of `python_config`,
# a pattern the message must match).  Both entrances must reject it.
BOUNDARY = {
    "zero event_cap": ({"event_cap": 0}, {"event_cap": 0}, "event_cap"),
    "negative network delay": ({"delays": {"network_delay": -1.0}},
                               {"delays": DelayModel(network_delay=-1.0)}, "network_delay"),
    "negative delay override": ({"delays": {"overrides": {PROBE: -0.1}}},
                                {"delays": DelayModel(overrides={PROBE: -0.1})}, "overrides"),
    "NaN delay override": ({"delays": {"overrides": {PROBE: math.nan}}},
                           {"delays": DelayModel(overrides={PROBE: math.nan})}, "finite"),
    "infinite delay override": ({"delays": {"overrides": {PROBE: math.inf}}},
                                {"delays": DelayModel(overrides={PROBE: math.inf})}, "finite"),
    "unknown delay override kind": ({"delays": {"overrides": {"launch-request": 5.0}}},
                                    {"delays": DelayModel(overrides={"launch-request": 5.0})},
                                    "launch-request"),
    "negative cost": ({"costs": {"lm_validate": -1e-6}},
                      {"costs": CostModel(lm_validate=-1e-6)}, "lm_validate"),
    "slot_demand leaving zero slots": ({"slot_demand": [0, 0]},
                                       {"slot_demand": ResourceVector.of(0, 0)}, "zero slots"),
    "zero probe_count": ({"probe_count": 0}, {"probe_count": 0}, "probe_count"),
    "zero heartbeat_period": ({"heartbeat_period": 0}, {"heartbeat_period": 0},
                              "heartbeat_period"),
    "machine profile probability above one": (
        {"machine_profiles": [{"profile_id": "p", "probabilities": {"1": 1.5}}]},
        {"machine_profiles": [ClusterProfile("p", {1: 1.5})]}, "probabilities"),
}


@pytest.mark.parametrize("scheduler", ["megha", "sparrow"])
@pytest.mark.parametrize("case", sorted(BOUNDARY))
def test_rejected_at_both_entrances(case, scheduler):
    top, typed, pattern = BOUNDARY[case]
    with pytest.raises(ConfigurationError, match=pattern):
        config_from_dict({**BASE, "scheduler": scheduler, **top})
    with pytest.raises(ConfigurationError, match=pattern):
        run_experiment(python_config(scheduler=scheduler, **typed))


# Configs built in Python that used to escape as TypeError or as ValueError
# (an int too long to print), run to a NaN clock, or run with a bool or a
# fraction taken as an integer.
PYTHON_BUILT = {
    "string gm_count": dict(gm_count="2"),
    "NaN heartbeat_period": dict(heartbeat_period=math.nan),
    "bool retry_limit": dict(retry_limit=True),
    "fractional seed": dict(seed=1.5),
    "string-keyed constraint probabilities": dict(workload=WorkloadSpec(
        count=20, demand=ResourceVector.of(4, 1024), constraint_probabilities={"1": 0.5})),
    "string workload rate": dict(workload=WorkloadSpec(rate="x")),
    "string user share": dict(users=[UserSpec("a", "0.5")]),
    "tuple worker_capacity": dict(worker_capacity=(64, 16384)),
    "dict for the workload section": dict(workload={"count": 20}),
    "seed too long to print": dict(seed=10 ** 5000),
    "gm_count too long to print": dict(gm_count=-(10 ** 5000)),
    "exp mean too long to print": dict(workload=WorkloadSpec(duration=("exp", 10 ** 5000))),
}


@pytest.mark.parametrize("case", sorted(PYTHON_BUILT))
def test_python_built_config_gets_the_json_rules(case):
    with pytest.raises(ConfigurationError):
        run_experiment(python_config(**PYTHON_BUILT[case]))


# -- the fuzz ------------------------------------------------------------------

SECTIONS = {"": ExperimentConfig, "workload": WorkloadSpec, "delays": DelayModel,
            "costs": CostModel, "users[0]": UserSpec, "machine_profiles[0]": ClusterProfile}
KEYS = [(section, f.name) for section, cls in SECTIONS.items() for f in fields(cls)]
SIZE_KEYS = ("gm_count", "lm_count", "workers_per_lm", "constraint_count",
             "sparrow_scheduler_count")

SPECIAL = [None, True, False, 0, -1, 1, 3, 64, 2 ** 53 + 1, 10 ** 30, -(10 ** 30), 10 ** 400,
           0.0, -0.0, 0.5, 1.5, 5e-324, 1e-320, 1e308, math.inf, -math.inf, math.nan,
           "", "x", "2", "0.5", "nan", "\x00", "megha", "sparrow", "centralized", "trace",
           "synthetic", "uniform", "max", "a", [], [0], [4, 1024], [0, 0], [64, 16384, 1],
           [10 ** 400, 1], [[4, 1024], 1.0], [[[4, 1024], 1e308], [[8, 2048], 1e308]],
           ["exp", 0.5], ["exp", 1e308], ["exp", 10 ** 400], ["choice", [1.0, 2.0], [1e308, 1e308]],
           ["choice", [], []], {}, {"1": 0.5}, {"01": 0.5}, {"-1": 0.5}, {"1": True},
           {"task_launch": 0.1}, {"probe": -1}, {"x": 1}, [{"user_id": "b", "share": 0.1}],
           [{"profile_id": "q", "probabilities": {}}]]

SCALARS = st.one_of(st.sampled_from(SPECIAL), st.none(), st.booleans(), st.integers(),
                    st.integers(min_value=-(10 ** 400), max_value=10 ** 400), st.floats(),
                    st.text(max_size=6))
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.dictionaries(st.one_of(st.text(max_size=6), st.sampled_from(
        ["1", "probe", "user_id", "share", "profile_id", "probabilities"])), inner,
        max_size=4)), max_leaves=8)


def _section(obj, section):
    """The JSON object or typed section a key of KEYS lives in."""
    if not section:
        return obj
    name, indexed = section.removesuffix("[0]"), section.endswith("[0]")
    part = obj[name] if isinstance(obj, dict) else getattr(obj, name)
    return part[0] if indexed else part


def _builds(config: ExperimentConfig) -> None:
    """A valid config small enough to build builds its workload and cluster;
    only the workload may still be refused, for what the trace holds."""
    if not (all(getattr(config, key) <= 64 for key in SIZE_KEYS)
            and config.workload.count <= 1000):
        return
    users = effective_users(config)
    try:
        tasks = build_workload(config, users)
    except ConfigurationError:
        return
    if config.scheduler == "sparrow":
        build_sparrow(config, tasks)
    else:
        build_megha(config, tasks, users)


def _refused(check) -> bool:
    try:
        check()
    except ConfigurationError:
        return True
    return False


def _exercise(base: dict, section: str, key: str, value, via_cli: bool = False) -> None:
    """`key` set to `value`, in JSON and on a typed config: each loads or
    refuses with a ConfigurationError, and what loads builds."""
    data = copy.deepcopy(base)
    _section(data, section)[key] = copy.deepcopy(value)
    try:
        config = config_from_dict(data)
    except ConfigurationError:
        config = None
    else:
        _builds(config)
    if via_cli:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w") as handle:
                json.dump(data, handle)
            assert main(["validate-config", "--config", path]) == (2 if config is None else 0)

    typed = config_from_dict(base)
    object.__setattr__(_section(typed, section), key, copy.deepcopy(value))
    if not _refused(typed.validate) and typed != config:  # an equal config built above
        _builds(typed)


@pytest.mark.parametrize("base", [BASE, TRACE_BASE], ids=["synthetic", "trace"])
def test_every_key_takes_every_odd_value(base):
    for section, key in KEYS:
        for value in SPECIAL:
            _exercise(base, section, key, value)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(trace=st.booleans(), where=st.sampled_from(KEYS), value=JSON,
       via_cli=st.integers(0, 4).map(lambda n: n == 0))
def test_config_fuzz_loads_or_refuses(trace, where, value, via_cli):
    _exercise(TRACE_BASE if trace else BASE, *where, value, via_cli)
