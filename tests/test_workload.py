"""Trace parsing and scaling, constraint assignment, synthetic generation."""

import hashlib
import itertools
import math
import random
import re
from pathlib import Path

import pytest

from fedsched.config import ExperimentConfig, UserSpec, WorkloadSpec
from fedsched.core import ResourceVector, WorkerNode
from fedsched.errors import ConfigurationError, TraceFormatError
from fedsched.experiment import build_workload
from fedsched.workload import (ClusterProfile, assign_machine_constraints,
                               assign_users, augment_constraints,
                               generate_synthetic, load_trace)

HEADER = "arrival_s,job_id,task_id,cpu,mem_mb,duration_s,constraints\n"
SAMPLE_TRACE = str(Path(__file__).resolve().parent.parent / "configs" / "sample-trace.csv")


def write_trace(tmp_path, rows, header=HEADER):
    path = tmp_path / "trace.csv"
    path.write_text(header + "".join(rows))
    return str(path)


class TestLoadTrace:
    def test_cpu_and_mem_scaling(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,800,100,5.0,\n"])
        (task,) = load_trace(path)
        assert task.demand.quantities == (2, 2)

    def test_zero_after_scaling_clamps_to_one(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,100,10,5.0,\n"])
        (task,) = load_trace(path)
        assert task.demand.quantities == (1, 1)

    def test_custom_divisors(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,800,100,5.0,\n"])
        (task,) = load_trace(path, cpu_divisor=100, mem_divisor=25)
        assert task.demand.quantities == (8, 4)

    def test_unsorted_input_sorted_stably(self, tmp_path):
        path = write_trace(tmp_path, [
            "5.0,j1,tb,400,50,1.0,\n",
            "1.0,j1,tc,400,50,1.0,\n",
            "1.0,j1,ta,400,50,1.0,\n",
        ])
        tasks = load_trace(path)
        assert [t.task_id for t in tasks] == ["ta", "tc", "tb"]

    def test_constraint_column_parsed(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,1.0,3;7\n"])
        (task,) = load_trace(path)
        assert task.constraints == {3, 7}

    def test_optional_user_column(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,1.0,,alice\n"],
                           header=HEADER.rstrip("\n") + ",user_id\n")
        (task,) = load_trace(path)
        assert task.user_id == "alice"

    def test_malformed_row_reports_line_number(self, tmp_path):
        path = write_trace(tmp_path, [
            "0.0,j1,t1,400,50,1.0,\n",
            "oops,j1,t2,400,50,1.0,\n",
        ])
        with pytest.raises(TraceFormatError, match=":3"):
            load_trace(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,1.0,\n"],
                           header="time,job,task,cpu,mem,dur,c\n")
        with pytest.raises(TraceFormatError, match=":1"):
            load_trace(path)

    def test_constraint_id_bounds(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,1.0,25\n"])
        with pytest.raises(TraceFormatError, match=":2"):
            load_trace(path, constraint_count=21)

    def test_bad_duration_rejected(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,0.0,\n"])
        with pytest.raises(TraceFormatError, match=":2"):
            load_trace(path)

    def test_negative_arrival_rejected(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,1.0,\n",
                                      "-1.0,j1,t2,400,50,1.0,\n"])
        with pytest.raises(TraceFormatError, match=":3: arrival"):
            load_trace(path)

    @pytest.mark.parametrize("row", ["nan,j1,t2,400,50,1.0,\n", "0.0,j1,t2,400,50,nan,\n",
                                     "0.0,j1,t2,400,50,inf,\n", "0.0,j1,t2,nan,50,1.0,\n"])
    def test_non_finite_number_rejected(self, tmp_path, row):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,1.0,\n", row])
        with pytest.raises(TraceFormatError, match=":3: numbers must be finite"):
            load_trace(path)

    def test_repeated_task_id_rejected_naming_both_lines(self, tmp_path):
        path = write_trace(tmp_path, ["0.0,j1,t1,400,50,1.0,\n",
                                      "0.5,j2,t1,400,50,1.0,\n",
                                      "1.0,j2,t2,400,50,1.0,\n"])
        with pytest.raises(TraceFormatError,
                           match=re.escape(f"{path}:3: task id 't1' repeats line 2")):
            load_trace(path)

    def test_non_utf8_trace_rejected_naming_its_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(HEADER.encode() + b"0.0,j1,t1,400,50,1.0,\n0.0,j\xff,t2,400,50,1.0,\n")
        with pytest.raises(TraceFormatError, match=re.escape(f"{path}: not valid UTF-8")):
            load_trace(str(path))

    def test_scaling_preserves_everything_else(self, tmp_path):
        rows = [f"{i * 0.5},j{i},t{i},800,100,3.5,2;4\n" for i in range(5)]
        path = write_trace(tmp_path, rows)
        coarse = load_trace(path)
        fine = load_trace(path, cpu_divisor=1, mem_divisor=1)
        assert [t.arrival_time for t in coarse] == [t.arrival_time for t in fine]
        assert [t.duration for t in coarse] == [t.duration for t in fine]
        assert [t.constraints for t in coarse] == [t.constraints for t in fine]
        assert len(coarse) == len(fine)


def synthetic(count=100, **kw):
    defaults = dict(rate=50.0, duration=1.0, demand=ResourceVector.of(1, 256), seed=3)
    defaults.update(kw)
    return generate_synthetic(count=count, **defaults)


class TestAugmentConstraints:
    def test_probability_zero_changes_nothing(self):
        tasks = synthetic(50)
        out = augment_constraints(tasks, {3: 0.0}, seed=1)
        assert all(not t.constraints for t in out)

    def test_probability_one_hits_every_task(self):
        out = augment_constraints(synthetic(50), {7: 1.0}, seed=1)
        assert all(7 in t.constraints for t in out)

    def test_existing_constraints_preserved(self):
        tasks = synthetic(20, constraint_probabilities={2: 1.0})
        out = augment_constraints(tasks, {5: 1.0}, seed=9)
        assert all({2, 5} <= t.constraints for t in out)

    def test_empirical_frequency_tracks_probability(self):
        out = augment_constraints(synthetic(10000), {4: 0.5}, seed=11)
        freq = sum(4 in t.constraints for t in out) / len(out)
        assert abs(freq - 0.5) <= 0.02

    def test_deterministic_per_seed(self):
        tasks = synthetic(200)
        a = augment_constraints(tasks, {1: 0.3, 2: 0.7}, seed=5)
        b = augment_constraints(tasks, {1: 0.3, 2: 0.7}, seed=5)
        assert [t.constraints for t in a] == [t.constraints for t in b]

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            augment_constraints([], {1: 1.5}, seed=0)
        with pytest.raises(ConfigurationError):
            synthetic(10, constraint_probabilities={1: 1.5})

    @pytest.mark.parametrize("seed", [0, 1, 7, 104729])
    @pytest.mark.parametrize("probabilities", [{7: 0.2}, {1: 0.3, 2: 0.7, 5: 1.0}],
                             ids=["one", "three"])
    def test_generation_draws_what_augmenting_draws(self, seed, probabilities):
        # generation draws each task's constraints in its own pass; a trace
        # is augmented afterwards, so both must read one stream in one order
        spec = dict(seed=seed, duration=("exp", 2.0),
                    demand=[(ResourceVector.of(1, 256), 0.5), (ResourceVector.of(4, 1024), 0.5)])
        drawn = synthetic(400, constraint_probabilities=probabilities, **spec)
        assert drawn == augment_constraints(synthetic(400, **spec), probabilities, seed)
        assert len({t.constraints for t in drawn}) > 1

    @pytest.mark.parametrize("with_base", [False, True], ids=["empty", "based"])
    def test_thousands_of_ids_draw_what_a_per_task_draw_draws(self, with_base):
        # one random() per id, in id order, task after task, however many ids
        probabilities = {cid: cid % 7 / 6 for cid in range(9000, 0, -3)}  # 3,000 ids
        tasks = synthetic(25, constraint_probabilities={1: 1.0} if with_base else None)
        draw = random.Random("4/task-constraints").random
        expected = [t.constraints.union([cid for cid, p in sorted(probabilities.items())
                                         if draw() < p]) for t in tasks]
        assert [t.constraints for t in augment_constraints(tasks, probabilities, 4)] == expected
        if not with_base:
            assert [t.constraints for t in synthetic(
                25, constraint_probabilities=probabilities, seed=4)] == expected

    @pytest.mark.parametrize("cid", [-1, True, "1", 1.0],
                             ids=["negative", "bool", "str", "float"])
    def test_bad_constraint_id_rejected(self, cid):
        # the one entry taking ids from a caller: config and trace ids are
        # checked where they are read
        with pytest.raises(ConfigurationError, match="constraint ids"):
            synthetic(10, constraint_probabilities={cid: 0.5})


def make_nodes(lm_ids, per_lm):
    nodes = []
    for lm_id in lm_ids:
        for k in range(per_lm):
            nodes.append(WorkerNode(
                node_id=f"{lm_id}-n{k:04d}", lm_id=lm_id, partition_id="p",
                capacity=ResourceVector.of(64, 16384),
                machine_constraints=frozenset(),
            ))
    return nodes


class TestAssignMachineConstraints:
    def test_all_ones_profile(self):
        nodes = make_nodes(["lm0"], 20)
        assign_machine_constraints(nodes, [ClusterProfile("A", {0: 1.0, 1: 1.0})], 0)
        assert all(n.machine_constraints == {0, 1} for n in nodes)

    def test_all_zeros_profile(self):
        nodes = make_nodes(["lm0"], 20)
        assign_machine_constraints(nodes, [ClusterProfile("A", {0: 0.0})], 0)
        assert all(not n.machine_constraints for n in nodes)

    def test_no_profiles_is_a_no_op(self):
        nodes = make_nodes(["lm0"], 3)
        assert assign_machine_constraints(nodes, [], 0) == {}
        assert all(not n.machine_constraints for n in nodes)

    def test_per_cluster_frequencies_track_profiles(self):
        # two clusters forced onto distinct profiles: frequencies must follow
        # each cluster's own profile within a 2% band
        nodes = make_nodes(["lm0", "lm1"], 5000)
        profiles = [ClusterProfile("A", {0: 0.2}), ClusterProfile("B", {0: 0.8})]
        seed = 0
        chosen = assign_machine_constraints(nodes, profiles, seed)
        while len(set(chosen.values())) < 2:
            seed += 1
            nodes = make_nodes(["lm0", "lm1"], 5000)
            chosen = assign_machine_constraints(nodes, profiles, seed)
        expected = {"A": 0.2, "B": 0.8}
        for lm_id in ("lm0", "lm1"):
            members = [n for n in nodes if n.lm_id == lm_id]
            freq = sum(0 in n.machine_constraints for n in members) / len(members)
            assert abs(freq - expected[chosen[lm_id]]) <= 0.02

    def test_deterministic_per_seed(self):
        profiles = [ClusterProfile("A", {0: 0.5, 3: 0.25})]
        a = make_nodes(["lm0", "lm1"], 50)
        b = make_nodes(["lm0", "lm1"], 50)
        assign_machine_constraints(a, profiles, 42)
        assign_machine_constraints(b, profiles, 42)
        assert [n.machine_constraints for n in a] == [n.machine_constraints for n in b]

    def test_thousands_of_ids_draw_what_a_per_machine_draw_draws(self):
        # the LMs share one stream, so each must draw exactly one random() per id
        profiles = [ClusterProfile("A", {cid: cid % 5 / 4 for cid in range(2000)}),
                    ClusterProfile("B", {cid: 0.5 for cid in range(0, 4000, 2)})]
        nodes = make_nodes(["lm0", "lm1", "lm2"], 7)
        chosen = assign_machine_constraints(nodes, profiles, 8)
        rng = random.Random("8/machine-constraints")
        picked = {lm_id: profiles[rng.randrange(2)] for lm_id in ("lm0", "lm1", "lm2")}
        assert chosen == {lm_id: profile.profile_id for lm_id, profile in picked.items()}
        for node in nodes:
            probabilities = picked[node.lm_id].probabilities
            assert node.machine_constraints == {cid for cid in sorted(probabilities)
                                                if rng.random() < probabilities[cid]}


class TestGenerateSynthetic:
    def test_span_matches_rate_within_one_percent(self):
        tasks = synthetic(1000, rate=100.0)
        span = tasks[-1].arrival_time
        assert abs(span - 10.0) <= 0.1
        realized = len(tasks) / span
        assert abs(realized - 100.0) / 100.0 <= 0.01

    def test_constant_duration(self):
        assert all(t.duration == 2.0 for t in synthetic(100, duration=2.0))

    def test_seeded_repeat_is_identical(self):
        assert synthetic(200) == synthetic(200)
        assert synthetic(200, seed=4) != synthetic(200, seed=5)

    def test_uniform_arrivals_evenly_spaced(self):
        tasks = synthetic(10, rate=2.0, arrival="uniform")
        gaps = [b.arrival_time - a.arrival_time
                for a, b in zip(tasks, tasks[1:])]
        assert all(abs(g - 0.5) < 1e-12 for g in gaps)

    def test_arrivals_non_decreasing(self):
        arrivals = [t.arrival_time for t in synthetic(500)]
        assert arrivals == sorted(arrivals)

    def test_exponential_durations_positive(self):
        tasks = synthetic(200, duration=("exp", 3.0))
        assert all(t.duration > 0 for t in tasks)
        mean = math.fsum(t.duration for t in tasks) / len(tasks)
        assert 2.0 < mean < 4.0

    def test_choice_durations_from_values(self):
        tasks = synthetic(100, duration=("choice", [1.0, 9.0], [0.5, 0.5]))
        assert set(t.duration for t in tasks) <= {1.0, 9.0}

    def test_demand_mixture(self):
        mix = [(ResourceVector.of(1, 256), 0.5), (ResourceVector.of(4, 1024), 0.5)]
        tasks = synthetic(200, demand=mix)
        seen = {t.demand.quantities for t in tasks}
        assert seen == {(1, 256), (4, 1024)}

    def test_ten_tasks_per_job(self):
        tasks = synthetic(25)
        jobs = {}
        for t in tasks:
            jobs.setdefault(t.job_id, []).append(t)
        sizes = sorted(len(v) for v in jobs.values())
        assert sizes == [5, 10, 10]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            synthetic(0)
        with pytest.raises(ConfigurationError):
            synthetic(10, rate=0.0)
        with pytest.raises(ConfigurationError):
            synthetic(10, arrival="bursts")

    @pytest.mark.parametrize("demand", [
        ResourceVector.zeros(2),
        [(ResourceVector.of(1, 256), 0.5), (ResourceVector.zeros(2), 0.5)],
    ])
    def test_zero_demand_rejected(self, demand):
        with pytest.raises(ConfigurationError, match="non-zero"):
            synthetic(10, demand=demand)

    @pytest.mark.parametrize("duration", [
        0.0, -1.0, ("exp", 0.0), ("choice", [1.0, 0.0], [0.5, 0.5]), ("uniform", 1.0),
        True, ("exp", True), ("choice", [1.0], [True]),
    ])
    def test_non_positive_duration_rejected(self, duration):
        with pytest.raises(ConfigurationError, match="duration"):
            synthetic(10, duration=duration)


class TestAssignUsers:
    def test_jobs_dealt_round_robin(self):
        tasks = synthetic(40)  # jobs of 10 tasks each
        out = assign_users(tasks, ["a", "b"])
        by_job = {}
        for t in out:
            by_job.setdefault(t.job_id, set()).add(t.user_id)
        assert all(len(users) == 1 for users in by_job.values())
        owners = [next(iter(by_job[j])) for j in sorted(by_job)]
        assert owners == ["a", "b", "a", "b"]

    def test_existing_user_kept(self):
        tasks = assign_users(synthetic(10), ["a"])
        again = assign_users(tasks, ["b"])
        assert all(t.user_id == "a" for t in again)

    def test_needs_users(self):
        with pytest.raises(ConfigurationError):
            assign_users([], [])
        with pytest.raises(ConfigurationError):
            synthetic(10, user_ids=[])

    @pytest.mark.parametrize("seed", [0, 1, 104729])
    @pytest.mark.parametrize("users", [["a"], ["a", "b", "c"], ["u0", "u1", "u2", "u3"]])
    @pytest.mark.parametrize("factor", [1.0, 1.5])
    def test_generation_matches_a_load_rescale_then_assign_users(self, seed, users, factor):
        spec = dict(rate=40.0, duration=("exp", 2.0), seed=seed,
                    demand=[(ResourceVector.of(1, 256), 1), (ResourceVector.of(2, 512), 3)],
                    constraint_probabilities={3: 0.3})
        old = synthetic(250, **spec)
        old = [t._replace(arrival_time=t.arrival_time / factor) for t in old]
        old = assign_users(old, users)
        assert synthetic(250, **spec, user_ids=users, load_factor=factor) == old


# -- digests pinning every generator branch and the trace build ----------------

DIGEST_DURATIONS = {"const": 2.5, "exp": ("exp", 1.5),
                    "choice": ("choice", [0.5, 2.0, 7.0], [1, 2, 3])}
DIGEST_DEMANDS = {
    "vector": ResourceVector.of(2, 512),
    "mixture": [(ResourceVector.of(1, 256), 0.5), (ResourceVector.of(4, 1024), 0.3),
                (ResourceVector.of(8, 2048), 0.2)],
}

# sha256 over repr(generate_synthetic(...)) of every (constraint probabilities,
# load factor, user count, task count) in the grid below, per arrival process,
# duration and demand spec; recorded before the generator was rewritten
GENERATOR_DIGESTS = {
    "poisson-const-vector": "ebf0c973be45a953a57866f828bb3f4d1be708ad3e8f2febcf667f8e42d51d98",
    "poisson-const-mixture": "b5e62c46fdab5a1d206bebb635edcd18f47be6a5e69d20d13d71e6390fd52375",
    "poisson-exp-vector": "ea054c0f71fb667ce69af0feb638696d73d1d7f9d905deb4ec96669a8c38b2d7",
    "poisson-exp-mixture": "df96b82e27b8f7d5083e97377ef0decf731d6e005175c7b363ec13125ddbd2ee",
    "poisson-choice-vector": "bc04d56f8b6ec3b96c3b43510b4ffc646371044b8d69d1d48124fc311390fda2",
    "poisson-choice-mixture": "8079e6f805ecec7a7d3926affa276f522d2dfa903a347cbe0f1915b863beca35",
    "uniform-const-vector": "e6f125bcd9cbd5f51cf3d676d75f5a6e430a411a333aac1bb8764a275edcfe0b",
    "uniform-const-mixture": "25640112748566df4b504b0e0de90837d60c54a4f3f58e2d9882c13ec1e7b0b2",
    "uniform-exp-vector": "e132f4848f41fd43dd3e2d84c986c0b6c01c6b047e7186607725e7a44abb3b6f",
    "uniform-exp-mixture": "643a6fe9dfb9d8580dfc34c1f7bd1455a475b1513b96935fddf53839cf8d0e50",
    "uniform-choice-vector": "09a51a7d3a66745d3e3f7bd549ca14ef69e299efcec32d87f8cafa4971a17568",
    "uniform-choice-mixture": "5a6f30e3ddf256762b733c0f8a60e9ab22ef25df8e46454b008798f47ae83b28",
}


@pytest.mark.parametrize("key", sorted(GENERATOR_DIGESTS))
def test_generator_output_matches_recorded_digest(key):
    arrival, duration, demand = key.split("-")
    digest = hashlib.sha256()
    for probabilities, load_factor, users, count in itertools.product(
            ({}, {4: 0.3}, {1: 0.0, 3: 0.5, 6: 1.0}), (1.0, 1.7), (1, 3, 7),
            (1, 9, 10, 11, 997)):
        tasks = generate_synthetic(
            count=count, rate=40.0, duration=DIGEST_DURATIONS[duration],
            demand=DIGEST_DEMANDS[demand], seed=11, arrival=arrival,
            constraint_probabilities=probabilities,
            user_ids=[f"u{i}" for i in range(users)], load_factor=load_factor)
        digest.update(repr(tasks).encode())
    assert digest.hexdigest() == GENERATOR_DIGESTS[key]


def trace_config(path, users, **workload):
    config = ExperimentConfig(gm_count=2, lm_count=1, workers_per_lm=4, seed=7,
                              workload=WorkloadSpec(kind="trace", path=path, **workload),
                              users=[UserSpec(u, 1 / len(users)) for u in users])
    config.validate()
    return config


def test_trace_build_matches_recorded_digest():
    # constraints augmented, arrivals compressed and jobs dealt to users
    config = trace_config(SAMPLE_TRACE, ["a", "b", "c"], load_factor=1.3,
                          constraint_probabilities={2: 0.5, 5: 0.25, 9: 1.0})
    tasks = build_workload(config, config.users)
    assert (hashlib.sha256(repr(tasks).encode()).hexdigest()
            == "fdcd3b485a866ca73c2300815825d80dd0b8b625cf54ef25f50f95b09713a71c")


def test_trace_users_kept_dealt_and_checked(tmp_path):
    path = write_trace(tmp_path, [
        "0.0,j1,t1,400,50,1.0,,b\n",
        "0.1,j1,t2,400,50,1.0,,\n",
        "0.2,j2,t3,400,50,1.0,,\n",
        "0.3,j3,t4,400,50,1.0,,a\n",
        "0.4,j3,t5,400,50,1.0,,\n",
    ], header=HEADER.rstrip("\n") + ",user_id\n")
    config = trace_config(path, ["a", "b"], load_factor=2.0)
    tasks = build_workload(config, config.users)
    # a task's own user is kept; the others' jobs are dealt in first-seen order
    assert [(t.task_id, t.user_id, t.arrival_time) for t in tasks] == [
        ("t1", "b", 0.0), ("t2", "a", 0.05), ("t3", "b", 0.1), ("t4", "a", 0.15),
        ("t5", "a", 0.2)]
    config = trace_config(path, ["a"])
    with pytest.raises(ConfigurationError,
                       match=re.escape("task t1 belongs to unknown user 'b'")):
        build_workload(config, config.users)
    config = trace_config(path, ["a", "b"])
    config.worker_capacity = ResourceVector.of(64, 16384, 8)
    with pytest.raises(ConfigurationError, match=re.escape(
            "task t1: demand (1, 1) does not have the 3 dimensions of worker_capacity")):
        build_workload(config, config.users)
