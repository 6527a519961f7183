"""Profile export tests: engine instrumentation, JSON round-trip, tables."""

import json

from repro.lang import programs
from repro.obs import Profile, profile_program
from repro.obs import recorder as obs


def _profile(name="exchange_with_root", **kwargs):
    return profile_program(programs.get(name), **kwargs)


class TestEngineInstrumentation:
    def test_engine_spans_recorded(self):
        profile, result = _profile()
        assert not result.gave_up
        for span in ("engine.run", "engine.step", "engine.match", "engine.join"):
            assert span in profile.spans, span
        assert profile.spans["engine.run"]["count"] == 1
        assert profile.spans["engine.step"]["count"] == profile.counters["engine.steps"]

    def test_closure_counts_flow_into_profile(self):
        profile, _ = _profile()
        assert profile.full_calls > 0
        assert profile.incremental_calls > 0
        assert profile.counters["cgraph.closure.full.calls"] == profile.full_calls
        assert (
            profile.histograms["cgraph.closure.full.vars"]["count"] == profile.full_calls
        )

    def test_span_totals_nest_consistently(self):
        profile, _ = _profile()
        run = profile.spans["engine.run"]
        step = profile.spans["engine.step"]
        assert step["total_time"] <= run["total_time"] + 1e-9
        # engine.run's self time excludes the per-step work it contains
        assert run["self_time"] < run["total_time"]

    def test_profile_isolated_from_global_state(self):
        def full_calls():
            return obs.active_recorder().snapshot()["counters"].get(
                "cgraph.closure.full.calls", 0
            )

        before = full_calls()
        _profile()
        assert full_calls() == before
        assert not obs.enabled()

    def test_disabled_mode_adds_no_entries(self):
        from repro.analyses.simple_symbolic import analyze_program

        assert not obs.enabled()
        result, _, _ = analyze_program(programs.get("pingpong"))
        assert not result.gave_up
        assert obs.active_recorder().snapshot()["spans"] == {}


class TestProfileDocument:
    def test_json_round_trip(self):
        profile, _ = _profile()
        text = profile.to_json()
        data = json.loads(text)
        assert data["program"] == "exchange_with_root"
        assert data["mode"] == "optimized"
        restored = Profile.from_json(text)
        assert restored.full_calls == profile.full_calls
        assert restored.closure_share() == profile.closure_share()
        assert restored.spans == profile.spans

    def test_table_consistent_with_closure_report(self):
        profile, _ = _profile()
        table = profile.table()
        # the closure block's report text is in the table verbatim
        assert profile.closure["report"] in table
        assert "Section IX cost profile" in table
        assert "engine.step" in table

    def test_naive_mode_label_and_shape(self):
        profile, result = _profile(naive=True)
        assert not result.gave_up
        assert profile.mode == "naive"
        # naive reclosure performs strictly more full closures
        optimized, _ = _profile()
        assert profile.full_calls > optimized.full_calls
