"""Allocation records, the per-task accumulators, and summary statistics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsched.core import ResourceVector, TaskRequest
from fedsched.metrics import (MetricsCollector, SUMMARY_PERCENTILES, TaskRun, percentile,
                              summarize)

from oracles import sort_percentile


def make_request(task_id="t0", arrival=0.0):
    return TaskRequest(task_id, "j0", "u0", ResourceVector.of(1, 1),
                       frozenset(), arrival, 1.0)


class TestPercentile:
    def test_median_of_four(self):
        assert percentile([1, 2, 3, 4], 50) == 2

    def test_singleton_any_q(self):
        for q in (0, 1, 50, 99, 100):
            assert percentile([5], q) == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_q_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_extremes(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_p99_of_uniform_samples_matches_sort_oracle(self):
        rng = random.Random(1234)
        values = [rng.uniform(0, 1) for _ in range(1000)]
        assert percentile(values, 99) == sort_percentile(values, 99)

    @given(values=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                           max_size=300),
           q=st.floats(min_value=0, max_value=100))
    @settings(max_examples=200, derandomize=True)
    def test_matches_sort_oracle_everywhere(self, values, q):
        assert percentile(values, q) == sort_percentile(values, q)


class TestCollector:
    def test_record_built_from_run(self):
        collector = MetricsCollector()
        run = TaskRun(make_request(arrival=100.0))
        run.communication += 0.001
        run.framework_queuing += 5.299
        collector.finalize(run, 105.3)
        record = collector.records[0]
        assert record.allocation_time == pytest.approx(5.3)
        assert record.task_start == 105.3
        assert record.scheduler == "megha"
        assert record.arrival == 100.0

    def test_finalize_only_once_per_run(self):
        collector = MetricsCollector()
        run = TaskRun(make_request())
        collector.finalize(run, 1.0)
        collector.finalize(run, 2.0)
        assert len(collector.records) == 1
        assert collector.records[0] is run.record
        assert run.record.task_start == 1.0

    def test_outstanding_tracks_admissions_and_completions(self):
        collector = MetricsCollector()
        collector.admitted = 2
        assert collector.outstanding == 2
        collector.note_completed()
        assert collector.outstanding == 1

    def test_counters(self):
        collector = MetricsCollector()
        collector.bump("repartitions")
        collector.bump("preemptions", 3)
        assert collector.counters["repartitions"] == 1
        assert collector.counters["preemptions"] == 3


class TestSummarize:
    def test_empty_records_give_empty_report(self):
        summary = summarize([], {"repartitions": 0}, 0)
        assert summary["tasks"] == 0
        assert "allocation_time" not in summary

    def test_statistics_present(self):
        collector = MetricsCollector()
        for i in range(10):
            run = TaskRun(make_request(f"t{i}", arrival=0.0))
            run.communication += 0.001 * (i + 1)
            collector.finalize(run, 0.001 * (i + 1))
        summary = summarize(collector.records, collector.counters, 2)
        stats = summary["allocation_time"]
        for name, _ in SUMMARY_PERCENTILES:
            assert name in stats
        assert stats["median"] == pytest.approx(0.005)
        assert stats["p99"] == pytest.approx(0.010)
        assert summary["unschedulable"] == 2
        assert summary["components"]["communication_delay"] == pytest.approx(0.055)
