"""The ambient progress-hook switchboard and the engine heartbeats."""

from __future__ import annotations

import threading

from repro.core import progress
from repro.core.driver import analyze_with_fallback, default_ladder
from repro.lang import programs


class TestSwitchboard:
    def test_default_is_none(self):
        assert progress.current() is None

    def test_installed_is_scoped(self):
        events = []
        with progress.installed(events.append):
            assert progress.current() is not None
            progress.emit({"event": "x"})
        assert progress.current() is None
        assert events == [{"event": "x"}]

    def test_installed_none_is_noop(self):
        with progress.installed(None):
            assert progress.current() is None

    def test_emit_swallows_subscriber_errors(self):
        def bomb(event):
            raise RuntimeError("subscriber bug")

        with progress.installed(bomb):
            progress.emit({"event": "x"})  # must not raise

    def test_hooks_are_thread_local(self):
        seen = {}

        def other_thread():
            seen["other"] = progress.current()

        with progress.installed(lambda e: None):
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
