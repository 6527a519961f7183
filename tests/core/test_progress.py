"""The progress channel of the observability context and the engine
heartbeats that reach it through the precision ladder."""

from __future__ import annotations

import threading

from repro.core.driver import analyze_with_fallback, default_ladder
from repro.lang import programs
from repro.obs import context


class TestSwitchboard:
    def test_default_is_none(self):
        assert context.current().progress is None

    def test_installed_is_scoped(self):
        events = []
        with context.bound(progress=events.append):
            assert context.current().progress is not None
            context.emit({"event": "x"})
        assert context.current().progress is None
        assert events == [{"event": "x"}]

    def test_installed_none_is_noop(self):
        with context.bound(progress=None):
            assert context.current().progress is None
        context.emit({"event": "x"})  # nothing bound: dropped, no error

    def test_emit_swallows_subscriber_errors(self):
        def bomb(event):
            raise RuntimeError("subscriber bug")

        with context.bound(progress=bomb):
            context.emit({"event": "x"})  # must not raise

    def test_hooks_are_thread_local(self):
        seen = {}

        def other_thread():
            seen["other"] = context.current().progress

        with context.bound(progress=lambda e: None):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen["other"] is None


class TestDriverEvents:
    def test_fallback_ladder_announces_rungs_and_heartbeats(self):
        events = []
        report = analyze_with_fallback(
            programs.get("pingpong").parse(), progress=events.append
        )
        assert report.result is not None
        rungs = [e["rung"] for e in events if e["event"] == "rung"]
        assert rungs and rungs[0] == "cartesian"
        beats = [e for e in events if e["event"] == "progress"]
        assert beats, "engine heartbeats missing"
        assert beats[0]["phase"] == "engine"
        assert beats[0]["steps"] == 1
        assert "worklist" in beats[0]

    def test_rung_events_arrive_in_ladder_order(self):
        # ring_modular climbs the whole ladder: one rung event per rung,
        # in ladder order
        events = []
        analyze_with_fallback(
            programs.get("ring_modular").parse(), progress=events.append
        )
        rungs = [e["rung"] for e in events if e["event"] == "rung"]
        assert rungs == [rung.name for rung in default_ladder()]

    def test_throwing_hook_does_not_abort_analysis(self):
        calls = []

        def flaky(event):
            calls.append(event)
            raise RuntimeError("hook bug")

        report = analyze_with_fallback(
            programs.get("pingpong").parse(), progress=flaky
        )
        assert report.result is not None
        assert calls, "hook was never consulted"
