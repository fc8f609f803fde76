"""The telemetry layer: registry, ambient collector, merge, export."""

import os
import threading

import pytest

from repro.utils.telemetry import (
    GLOBAL,
    MetricsRegistry,
    Telemetry,
    chrome_trace,
    collecting,
    count,
    current_collector,
    merge_metrics,
    new_run_id,
    phase_totals,
    series_key,
    span,
    split_series,
)


class TestSeriesKeys:
    def test_no_labels_is_the_bare_name(self):
        assert series_key("router.pops") == "router.pops"
        assert series_key("router.pops", {}) == "router.pops"

    def test_labels_sorted_for_stable_keys(self):
        a = series_key("m", {"b": 1, "a": 2})
        b = series_key("m", {"a": 2, "b": 1})
        assert a == b == 'm{a="2",b="1"}'

    def test_label_values_escaped(self):
        key = series_key("m", {"x": 'say "hi"'})
        assert key == 'm{x="say \\"hi\\""}'

    def test_split_series_round_trip(self):
        assert split_series("plain") == ("plain", "")
        assert split_series('m{a="1",b="2"}') == ("m", 'a="1",b="2"')


class TestMetricsRegistry:
    def test_counters_accumulate_per_series(self):
        reg = MetricsRegistry()
        reg.inc("pops", 3, queue="dial")
        reg.inc("pops", 2, queue="dial")
        reg.inc("pops", queue="heap")
        assert reg.counter("pops", queue="dial") == 5
        assert reg.counter("pops", queue="heap") == 1
        assert reg.counter("pops", queue="unseen") == 0

    def test_merge_counters_folds_worker_deltas(self):
        reg = MetricsRegistry()
        reg.inc("pops", 1)
        reg.merge_counters({"pops": 9, 'pops{queue="dial"}': 4})
        reg.merge_counters(None)  # tolerated
        assert reg.counter("pops") == 10
        assert reg.counter("pops", queue="dial") == 4

    def test_counters_stay_int_when_int(self):
        reg = MetricsRegistry()
        reg.inc("n", 2)
        reg.inc("n", 3)
        assert isinstance(reg.snapshot()["counters"]["n"], int)

    def test_gauges_set_and_add(self):
        reg = MetricsRegistry()
        reg.gauge_set("depth", 7)
        reg.gauge_set("depth", 5)
        reg.gauge_set("running", 1)
        snap = reg.snapshot()["gauges"]
        assert snap == {"depth": 5, "running": 1}

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.5, buckets=(1.0, 5.0, 10.0))
        reg.observe("lat", 3.0, buckets=(1.0, 5.0, 10.0))
        reg.observe("lat", 100.0, buckets=(1.0, 5.0, 10.0))
        hist = reg.snapshot()["histograms"]["lat"]
        assert hist["bounds"] == [1.0, 5.0, 10.0]
        assert hist["buckets"] == [1, 2, 2]  # 100.0 only lands in +Inf
        assert hist["count"] == 3
        assert hist["sum"] == 103.5

    def test_clear_empties_everything(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.gauge_set("b", 1)
        reg.observe("c", 0.1)
        reg.clear()
        snap = reg.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}


class TestRunIds:
    def test_unique_and_pid_stamped(self):
        a, b = new_run_id(), new_run_id()
        assert a != b
        assert str(os.getpid()) in a


class TestTelemetryCollector:
    def test_counts_and_spans_snapshot(self):
        tel = Telemetry("run-1")
        tel.count("pops", 5, queue="dial")
        tel.count("pops", 2, queue="dial")
        with tel.span("work"):
            pass
        snap = tel.snapshot()
        assert snap["run_id"] == "run-1"
        assert snap["pid"] == os.getpid()
        assert snap["counters"] == {'pops{queue="dial"}': 7}
        (name, start_us, dur_us, tid), = snap["spans"]
        assert name == "work" and tid == 1
        assert dur_us >= 0 and start_us > 0

    def test_thread_ids_are_small_and_stable(self):
        tel = Telemetry("run-1")
        with tel.span("a"):
            pass
        with tel.span("b"):
            pass

        def other():
            with tel.span("c"):
                pass

        t = threading.Thread(target=other)
        t.start()
        t.join()
        tids = [s[3] for s in tel.spans]
        assert tids[0] == tids[1] == 1
        assert tids[2] == 2

    def test_span_records_on_exception(self):
        tel = Telemetry("run-1")
        with collecting(tel):
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("x")
        assert [s[0] for s in tel.spans] == ["boom"]


class TestAmbientBinding:
    def test_unbound_helpers_are_noops(self):
        assert current_collector() is None
        count("anything", 3)  # must not raise
        with span("anything"):
            pass

    def test_collecting_binds_and_restores(self):
        tel = Telemetry("run-1")
        with collecting(tel):
            assert current_collector() is tel
            count("hits", 2, cache="x")
            with span("step"):
                pass
        assert current_collector() is None
        assert tel.counters == {'hits{cache="x"}': 2}
        assert [s[0] for s in tel.spans] == ["step"]

    def test_nested_binding_restores_outer(self):
        outer, inner = Telemetry("o"), Telemetry("i")
        with collecting(outer):
            with collecting(inner):
                count("n")
            count("n")
        assert inner.counters == {"n": 1}
        assert outer.counters == {"n": 1}

    def test_collecting_none_keeps_outer_collector(self):
        outer = Telemetry("o")
        with collecting(outer):
            with collecting(None) as bound:
                assert bound is None
                assert current_collector() is outer
                count("n")
                with span("step"):
                    pass
            assert current_collector() is outer
        assert current_collector() is None
        assert outer.counters == {"n": 1}
        assert [s[0] for s in outer.spans] == ["step"]

    def test_binding_is_thread_local(self):
        tel = Telemetry("run-1")
        seen: list = []

        def worker():
            seen.append(current_collector())
            count("other-thread")
            with span("other-thread"):
                pass

        with collecting(tel):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert seen == [None]  # the worker thread never saw our binding
        assert tel.counters == {} and tel.spans == []


class TestMergeMetrics:
    def _leaf(self, pid, counters, spans=()):
        return {"run_id": "run-1", "pid": pid,
                "counters": counters, "spans": list(spans)}

    def test_empty_inputs_merge_to_none(self):
        assert merge_metrics([]) is None
        assert merge_metrics([None, None]) is None

    def test_leaf_blocks_sum_counters_and_group_spans_by_pid(self):
        merged = merge_metrics([
            self._leaf(11, {"pops": 2}, [["a", 1, 2, 1]]),
            self._leaf(22, {"pops": 3}, [["b", 5, 1, 1]]),
            None,
            self._leaf(11, {"pops": 1, "nets": 4}),
        ])
        assert merged["run_id"] == "run-1"
        assert merged["counters"] == {"pops": 6, "nets": 4}
        assert [w["pid"] for w in merged["workers"]] == [11, 22]
        assert merged["workers"][0]["spans"] == [["a", 1, 2, 1]]

    def test_merged_blocks_compose(self):
        first = merge_metrics([self._leaf(11, {"pops": 2})])
        second = merge_metrics([self._leaf(22, {"pops": 5})])
        total = merge_metrics([first, second])
        assert total["counters"] == {"pops": 7}
        assert [w["pid"] for w in total["workers"]] == [11, 22]


class TestPhaseTotals:
    def _leaf(self, pid, spans):
        return {"run_id": "run-1", "pid": pid, "counters": {"pops": 3},
                "spans": spans}

    def test_leaf_snapshot_folds_seconds_and_calls(self):
        totals = phase_totals(self._leaf(11, [
            ["z", 0, 1_500_000, 1], ["a", 5, 250, 1], ["z", 9, 500_000, 2],
        ]))
        assert list(totals) == ["a", "z"]  # sorted by name
        assert totals == {"a": {"seconds": 0.00025, "calls": 1},
                          "z": {"seconds": 2.0, "calls": 2}}

    def test_sums_per_name_across_worker_tracks(self):
        merged = merge_metrics([
            self._leaf(11, [["route", 1, 1_000_000, 1]]),
            self._leaf(22, [["route", 2, 500_000, 1],
                            ["place", 3, 2_000_000, 1]]),
        ])
        assert phase_totals(merged) == {
            "place": {"seconds": 2.0, "calls": 1},
            "route": {"seconds": 1.5, "calls": 2},
        }

    def test_empty_input_folds_to_none(self):
        assert phase_totals(None) is None
        assert phase_totals({}) is None
        assert phase_totals(self._leaf(11, [])) is None
        assert phase_totals(merge_metrics([self._leaf(11, [])])) is None


class TestChromeTrace:
    def test_one_track_per_worker(self):
        merged = merge_metrics([
            {"run_id": "r", "pid": 11, "counters": {},
             "spans": [["route", 100, 50, 1], ["place", 10, 20, 1]]},
            {"run_id": "r", "pid": 22, "counters": {},
             "spans": [["route", 30, 5, 1]]},
        ])
        doc = chrome_trace(merged)  # dict input accepted
        assert doc["displayTimeUnit"] == "ms"
        meta = [ev for ev in doc["traceEvents"] if ev["ph"] == "M"]
        assert {ev["pid"] for ev in meta} == {11, 22}
        xs = [ev for ev in doc["traceEvents"] if ev["ph"] == "X"]
        assert [(ev["pid"], ev["ts"]) for ev in xs] == \
            sorted((ev["pid"], ev["ts"]) for ev in xs)
        route = next(ev for ev in xs if ev["pid"] == 22)
        assert route == {"ph": "X", "cat": "repro", "name": "route",
                         "pid": 22, "tid": 1, "ts": 30, "dur": 5}

    def test_empty_blocks_yield_empty_trace(self):
        assert chrome_trace([]) == {"traceEvents": [],
                                    "displayTimeUnit": "ms"}


class TestGlobalRegistry:
    def test_global_is_a_registry(self):
        GLOBAL.inc("test.telemetry.probe", 1)
        assert GLOBAL.counter("test.telemetry.probe") >= 1
