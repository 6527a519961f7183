"""Recorder semantics: span nesting, counters, histograms, enable/disable."""

import time

from repro.obs import context
from repro.obs import recorder as obs
from repro.obs.recorder import NullRecorder, Recorder


class TestDisabledIsNoOp:
    def test_default_state_is_disabled(self):
        assert not obs.enabled()
        assert isinstance(obs.active_recorder(), NullRecorder)

    def test_disabled_records_nothing(self):
        with obs.span("outer"):
            obs.incr("events")
            obs.observe("sizes", 3)
        snap = obs.active_recorder().snapshot()
        assert snap == {"spans": {}, "counters": {}, "histograms": {}}

    def test_null_span_is_shared_singleton(self):
        null = NullRecorder()
        assert null.span("a") is null.span("b")


class TestSpans:
    def test_span_counts_and_times(self):
        rec = Recorder()
        with rec.span("work"):
            time.sleep(0.002)
        with rec.span("work"):
            pass
        stats = rec.spans["work"]
        assert stats.count == 2
        assert stats.total_time >= 0.002
        assert stats.self_time <= stats.total_time + 1e-9

    def test_nested_spans_attribute_self_time(self):
        rec = Recorder()
        with rec.span("outer"):
            with rec.span("inner"):
                time.sleep(0.005)
        outer, inner = rec.spans["outer"], rec.spans["inner"]
        # the outer span's total includes the inner, its self-time excludes it
        assert outer.total_time >= inner.total_time
        assert outer.self_time < outer.total_time
        assert abs((outer.total_time - outer.self_time) - inner.total_time) < 1e-3

    def test_sibling_spans_both_deducted_from_parent(self):
        rec = Recorder()
        with rec.span("parent"):
            with rec.span("a"):
                time.sleep(0.002)
            with rec.span("b"):
                time.sleep(0.002)
        parent = rec.spans["parent"]
        children = rec.spans["a"].total_time + rec.spans["b"].total_time
        assert abs((parent.total_time - parent.self_time) - children) < 1e-3

    def test_recursive_span_name_aggregates(self):
        rec = Recorder()
        with rec.span("f"):
            with rec.span("f"):
                pass
        assert rec.spans["f"].count == 2


class TestCountersAndHistograms:
    def test_counter_accumulates(self):
        rec = Recorder()
        rec.incr("n")
        rec.incr("n", 4)
        assert rec.counters["n"] == 5

    def test_histogram_summary(self):
        rec = Recorder()
        for v in (1, 5, 3):
            rec.observe("vals", v)
        h = rec.histograms["vals"]
        assert (h.count, h.total, h.min, h.max) == (3, 9, 1, 5)
        assert h.mean == 3

    def test_empty_histogram_mean(self):
        from repro.obs.recorder import HistogramStats

        assert HistogramStats().mean == 0.0


class TestPercentiles:
    def test_empty_series_is_none_never_nan(self):
        from repro.obs.recorder import HistogramStats

        h = HistogramStats()
        assert h.percentiles() is None
        # the snapshot form must stay valid JSON (null, not NaN)
        rec = Recorder()
        rec.histograms["empty"] = h
        import json

        snap = json.loads(json.dumps(rec.snapshot(), allow_nan=False))
        assert snap["histograms"]["empty"]["percentiles"] is None

    def test_nan_observations_are_dropped(self):
        rec = Recorder()
        rec.observe("vals", float("nan"))
        rec.observe("vals", 2.0)
        h = rec.histograms["vals"]
        assert h.count == 1
        assert h.percentiles() == {"p50": 2.0, "p90": 2.0, "p99": 2.0}

    def test_single_sample_percentiles(self):
        from repro.obs.recorder import HistogramStats

        h = HistogramStats()
        h.add(7.0)
        assert h.percentiles() == {"p50": 7.0, "p90": 7.0, "p99": 7.0}

    def test_percentiles_are_order_statistics(self):
        from repro.obs.recorder import HistogramStats

        h = HistogramStats()
        for v in range(1, 101):
            h.add(float(v))
        p = h.percentiles()
        # nearest-rank over the sorted reservoir (0-based index q*(n-1)+0.5)
        assert p["p50"] == 51.0
        assert p["p90"] == 90.0
        assert p["p99"] == 99.0
        assert p["p50"] <= p["p90"] <= p["p99"]

    def test_reservoir_caps_retained_samples(self):
        from repro.obs.recorder import RESERVOIR_SIZE, HistogramStats

        h = HistogramStats()
        for v in range(RESERVOIR_SIZE * 2):
            h.add(float(v))
        assert h.count == RESERVOIR_SIZE * 2
        assert len(h._samples) == RESERVOIR_SIZE
        assert h.percentiles() is not None


class TestGlobalState:
    def test_enable_installs_and_disable_restores(self):
        rec = obs.enable()
        assert obs.enabled()
        assert obs.active_recorder() is rec
        assert obs.enable() is rec  # idempotent without an argument
        obs.disable()
        assert not obs.enabled()

    def test_module_helpers_hit_active_recorder(self):
        rec = obs.enable()
        with obs.span("s"):
            obs.incr("c")
            obs.observe("h", 1.0)
        assert rec.spans["s"].count == 1
        assert rec.counters["c"] == 1
        assert rec.histograms["h"].count == 1

    def test_reset_disables_and_clears(self):
        rec = obs.enable()
        rec.incr("c")
        obs.reset()
        assert not obs.enabled()
        assert rec.counters == {}

    def test_recording_restores_previous_state(self):
        assert not obs.enabled()
        with obs.recording() as rec:
            assert obs.active_recorder() is rec
            obs.incr("inside")
        assert not obs.enabled()
        assert rec.counters["inside"] == 1

    def test_recording_restores_an_enabled_recorder(self):
        outer = obs.enable()
        with obs.recording() as inner:
            obs.incr("c")
        assert obs.active_recorder() is outer
        assert "c" not in outer.counters
        assert inner.counters["c"] == 1

    def test_snapshot_is_json_plain(self):
        import json

        rec = Recorder()
        with rec.span("s"):
            rec.observe("h", 2.5)
        text = json.dumps(rec.snapshot())
        assert json.loads(text)["histograms"]["h"]["mean"] == 2.5


class TestLockedRecorder:
    """``Recorder(locked=True)``: the thread-safe shared recorder the
    analysis service installs."""

    def test_concurrent_incr_loses_no_updates(self):
        import threading

        rec = Recorder(locked=True)
        threads = [
            threading.Thread(
                target=lambda: [rec.incr("c") for _ in range(2000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counters["c"] == 16000

    def test_concurrent_merge_counters(self):
        import threading

        rec = Recorder(locked=True)
        threads = [
            threading.Thread(
                target=lambda: [rec.merge_counters({"a": 1, "b": 2}) for _ in range(500)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.counters == {"a": 4000, "b": 8000}

    def test_span_stacks_are_per_thread(self):
        import threading

        rec = Recorder(locked=True)
        errors = []

        def worker():
            try:
                for _ in range(200):
                    with rec.span("outer"):
                        with rec.span("inner"):
                            pass
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert rec.spans["outer"].count == 1200
        assert rec.spans["inner"].count == 1200
        # nested attribution stays sane: inner time is inside outer time
        assert rec.spans["outer"].self_time <= rec.spans["outer"].total_time

    def test_concurrent_observe(self):
        import threading

        rec = Recorder(locked=True)
        threads = [
            threading.Thread(
                target=lambda: [rec.observe("h", 1.0) for _ in range(1000)]
            )
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rec.histograms["h"].count == 4000
        assert rec.histograms["h"].total == 4000.0


class TestJobRecording:
    """Per-thread recorder isolation for concurrent service jobs: a
    recorder bound into the thread's context."""

    def test_override_shadows_the_global_recorder(self):
        shared = obs.enable(Recorder(locked=True))
        mine = Recorder()
        with context.bound(recorder=mine):
            obs.incr("job.events")
            assert obs.active_recorder() is mine
        assert obs.active_recorder() is shared
        assert "job.events" not in shared.counters
        assert mine.counters["job.events"] == 1

    def test_merge_after_job_lands_in_shared(self):
        shared = obs.enable(Recorder(locked=True))
        mine = Recorder()
        with context.bound(recorder=mine):
            obs.incr("job.events", 3)
            counters = dict(mine.counters)
        obs.merge_counters(counters)
        assert shared.counters["job.events"] == 3

    def test_concurrent_jobs_do_not_cross_talk(self):
        import threading

        shared = obs.enable(Recorder(locked=True))
        seen = {}

        def job(name, amount):
            mine = Recorder()
            with context.bound(recorder=mine):
                for _ in range(amount):
                    obs.incr("work")
                seen[name] = dict(mine.counters)
            obs.merge_counters(seen[name])

        threads = [
            threading.Thread(target=job, args=(f"job{i}", (i + 1) * 100))
            for i in range(5)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert [seen[f"job{i}"]["work"] for i in range(5)] == [
            100, 200, 300, 400, 500
        ]
        assert shared.counters["work"] == 1500

    def test_nested_job_recording_restores_previous(self):
        outer, inner = Recorder(), Recorder()
        with context.bound(recorder=outer):
            with context.bound(recorder=inner):
                obs.incr("deep")
                assert obs.active_recorder() is inner
            assert obs.active_recorder() is outer
            obs.incr("shallow")
        assert inner.counters == {"deep": 1}
        assert outer.counters == {"shallow": 1}

    def test_reset_clears_the_thread_override(self):
        obs.enable()
        context._local.ctx = context.Context(recorder=Recorder())
        obs.reset()
        assert getattr(context._local, "ctx", None) is None
        assert not obs.enabled()
