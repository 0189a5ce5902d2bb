"""Tests of the benchmark's own helpers.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import pathlib
import re
import statistics
import sys
from types import SimpleNamespace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from spans import (  # noqa: E402
    Span,
    SpanRecorder,
    covered,
    dispatch_metrics,
    layer_totals,
    percentile,
    self_times,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class TestPercentile:
    def test_matches_statistics_inclusive_quartiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert percentile(values, 25) == pytest.approx(q1)
        assert percentile(values, 50) == pytest.approx(q2)
        assert percentile(values, 75) == pytest.approx(q3)

    def test_interpolates_between_ranks(self):
        assert percentile([10.0, 20.0], 90) == pytest.approx(19.0)
        assert percentile([0.0, 10.0, 20.0, 30.0, 40.0], 90) == \
            pytest.approx(36.0)

    def test_edges(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 90) == 7.0
        assert percentile([1.0, 2.0, 3.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0], 100) == 3.0
        with pytest.raises(ValueError):
            percentile([1.0], 101)


class TestSelfTime:
    def test_covered_merges_overlaps_and_clips(self):
        assert covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
        assert covered([(-5, 2), (9, 20)], 0, 10) == 3
        assert covered([], 0, 10) == 0
        assert covered([(11, 12)], 0, 10) == 0

    def test_self_time_subtracts_direct_children_only(self):
        recorded = [
            Span("outer", "cold", 0.0, 10.0),
            Span("middle", "cold", 1.0, 7.0, parent=0),
            Span("inner", "cold", 2.0, 5.0, parent=1),
            Span("sibling", "cold", 8.0, 9.0, parent=0),
        ]
        assert self_times(recorded) == pytest.approx([3.0, 3.0, 3.0, 1.0])

    def test_self_times_sum_to_root_duration(self):
        recorded = [
            Span("root", "cold", 0.0, 4.0),
            Span("a", "cold", 0.5, 1.5, parent=0),
            Span("b", "cold", 2.0, 3.5, parent=0),
            Span("c", "cold", 2.5, 3.0, parent=2),
        ]
        assert sum(self_times(recorded)) == pytest.approx(4.0)

    def test_layer_totals_filter_phase_and_fold_attrs(self):
        recorded = [
            Span("mc", "cold", 0.0, 2.0, attrs={"dies": 5, "ess_min": 9.0}),
            Span("mc", "warm", 2.0, 3.0, attrs={"dies": 7, "ess_min": 4.0}),
            Span("mc", "split", 3.0, 4.0, attrs={"dies": 100}),
        ]
        totals = layer_totals(recorded, {"cold", "warm"})["mc"]
        assert totals["calls"] == 2
        assert totals["self_s"] == pytest.approx(3.0)
        assert totals["dies"] == 12
        assert totals["ess_min"] == 4.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def perf_counter(self):
        self.now += 1.0
        return self.now


class TestRecorder:
    def test_nested_calls_link_parents_and_count(self, monkeypatch):
        monkeypatch.setattr(spans, "time", FakeClock())
        owner = SimpleNamespace()
        owner.inner = lambda n: n * 2
        owner.outer = lambda n: owner.inner(n) + 1
        recorder = SpanRecorder()
        recorder.wrap(owner, "inner", "inner",
                      lambda args, result: {"items": args[0]})
        recorder.wrap(owner, "outer", "outer")
        recorder.phase = "cold"
        assert owner.outer(3) == 7
        outer, inner = recorder.spans
        assert (outer.layer, outer.parent) == ("outer", None)
        assert (inner.layer, inner.parent) == ("inner", 0)
        assert inner.attrs == {"items": 3}
        # clock ticks: outer 1..4, inner 2..3
        assert self_times(recorder.spans) == [2.0, 1.0]
        recorder.unwrap_all()
        assert owner.outer(3) == 7
        assert len(recorder.spans) == 2

    def test_span_closes_when_the_call_raises(self, monkeypatch):
        monkeypatch.setattr(spans, "time", FakeClock())
        owner = SimpleNamespace(fail=lambda: 1 / 0)
        recorder = SpanRecorder()
        recorder.wrap(owner, "fail", "fail")
        with pytest.raises(ZeroDivisionError):
            owner.fail()
        assert recorder.spans[0].duration == 1.0
        assert recorder._open == []


def obs_span(kind="sweep-point", execute=0.0, queue_wait=0.0, duration=0.0,
             cache_hit=False, status="ok"):
    stages = {} if cache_hit else {"execute": execute,
                                   "queue_wait": queue_wait}
    return SimpleNamespace(kind=kind, stages=stages, duration_s=duration,
                           cache_hit=cache_hit, status=status)


class TestDispatch:
    def test_utilization_and_percentiles_from_intervals(self):
        observed = [
            obs_span(execute=1.0, queue_wait=0.0),
            obs_span(execute=2.0, queue_wait=1.0),
            obs_span(execute=3.0, queue_wait=1.0),
            obs_span(execute=2.0, queue_wait=3.0),
            obs_span(kind="engine-batch", duration=5.0),
            obs_span(cache_hit=True),
            obs_span(kind="engine-batch", duration=1.0),
        ]
        result = dispatch_metrics(observed, workers=2)
        assert result["execute_s"] == 8.0
        assert result["queue_wait_s"] == 5.0
        # only the batch that executed shards counts as busy wall
        assert result["worker_util"] == pytest.approx(8.0 / (5.0 * 2))
        assert result["dispatch_s"] == pytest.approx(6.0 - 8.0 / 2)
        assert result["shard_samples"] == 4
        assert result["shard_p50_ms"] == pytest.approx(2000.0)
        assert result["shard_p90_ms"] == pytest.approx(2700.0)
        assert result["failed_spans"] == 0

    def test_failed_spans_are_counted_not_timed(self):
        observed = [obs_span(status="error", duration=4.0),
                    obs_span(kind="engine-batch", duration=4.0)]
        result = dispatch_metrics(observed, workers=1)
        assert result["failed_spans"] == 1
        assert result["shard_samples"] == 0
        assert result["worker_util"] == 0.0


class TestBenchmarkFile:
    @pytest.fixture(scope="class")
    def declared(self):
        return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))

    def test_names_and_units_are_well_formed(self, declared):
        names = [workload["name"] for workload in declared["workloads"]]
        for kind in ("end_to_end", "per_layer"):
            for metric in declared[kind]:
                names.append(metric["name"])
                assert UNIT.fullmatch(metric["unit"]), metric
                assert metric["better"] in ("higher", "lower"), metric
        for name in names:
            assert NAME.fullmatch(name), name
        assert len(names) == len(set(names))

    def test_declared_workloads_are_runnable(self, declared):
        import run
        import workloads

        names = {w["name"] for w in declared["workloads"]}
        assert names <= set(run.WORKLOADS) == set(workloads.WORKLOADS)

    def test_stall_metrics_cover_every_stall_reason(self, declared):
        from repro.pipeline.stats import StallReason

        reasons = {reason.value for reason in StallReason}
        declared_stalls = {metric["name"].rsplit(".", 1)[1]
                           for metric in declared["per_layer"]
                           if metric["name"].startswith("pipeline.stall.")}
        assert declared_stalls == reasons

    def test_setup_metric_is_declared(self, declared):
        setup = [m for m in declared["end_to_end"] if m["name"] == "setup_s"]
        assert setup and setup[0]["unit"] == "s" \
            and setup[0]["better"] == "lower"
        assert max(m["bound"] for m in declared["end_to_end"]) \
            == setup[0]["bound"] <= 0.25

