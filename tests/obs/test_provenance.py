"""Provenance flight recorder: one whole run, chains, engine wiring."""

from __future__ import annotations

import json

from repro.analyses.simple_symbolic import SimpleSymbolicClient, analyze_program
from repro.core import diagnostics
from repro.core.engine import EngineLimits, PCFGEngine
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.obs import context, provenance
from repro.obs.provenance import ProvenanceEvent, ProvenanceRecorder, _plain


class TestPlain:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, "x", 2.5):
            assert _plain(value) == value

    def test_nan_and_inf_become_strings(self):
        assert _plain(float("nan")) == "nan"
        assert _plain(float("inf")) == "inf"

    def test_sets_sort_and_tuples_listify(self):
        assert _plain({3, 1, 2}) == [1, 2, 3]
        assert _plain((1, "a")) == [1, "a"]

    def test_dict_keys_stringified(self):
        assert _plain({(1, 2): "v"}) == {"(1, 2)": "v"}

    def test_depth_cap_stringifies(self):
        deep = [[[[[[[["bottom"]]]]]]]]
        flattened = _plain(deep)
        assert json.dumps(flattened)  # always JSON-serializable

    def test_arbitrary_objects_become_str(self):
        class Odd:
            def __repr__(self):
                return "<odd>"

        assert _plain(Odd()) == "<odd>"


class TestEventRoundtrip:
    def test_to_from_dict_roundtrip(self):
        event = ProvenanceEvent(
            event_id=7,
            kind="widen",
            step=12,
            node_key=((3, 4), ()),
            parents=(5, 6),
            detail="via transfer",
            data={"x": 1},
            ts=0.25,
            dur=0.001,
        )
        back = ProvenanceEvent.from_dict(event.to_dict())
        assert back == event

    def test_describe_mentions_id_kind_and_node(self):
        event = ProvenanceEvent(event_id=3, kind="match", node_key=((1,), ()))
        text = event.describe()
        assert "#3" in text and "match" in text and "1" in text


class TestRecorder:
    def test_ids_are_sequential_and_parents_filter_none(self):
        rec = ProvenanceRecorder()
        first = rec.emit("run_start")
        second = rec.emit("entry", parents=(first, None))
        assert (first, second) == (1, 2)
        assert rec.get(second).parents == (first,)
        assert rec.last_event_id == second
        assert rec.total_events == 2

    def test_node_event_tracks_last_definer(self):
        rec = ProvenanceRecorder()
        key = ((1,), ())
        rec.emit("entry", node_key=key)
        latest = rec.emit("transfer", node_key=key)
        assert rec.node_event[key] == latest
        assert [e.kind for e in rec.events_for_node((1,))] == ["entry", "transfer"]

    def test_chain_is_causal_order_and_deduplicated(self):
        rec = ProvenanceRecorder()
        root = rec.emit("run_start")
        a = rec.emit("entry", parents=(root,))
        b = rec.emit("transfer", parents=(a,))
        joined = rec.emit("join", parents=(a, b))  # diamond: a reachable twice
        chain = rec.chain(joined)
        assert [e.event_id for e in chain] == [root, a, b, joined]

    def test_kind_counts(self):
        rec = ProvenanceRecorder()
        rec.emit("transfer")
        rec.emit("transfer")
        rec.emit("match")
        assert rec.kind_counts() == {"transfer": 2, "match": 1}


class TestSnapshotPreload:
    def test_roundtrip_continues_ids_and_node_map(self):
        rec = ProvenanceRecorder()
        key = ((2,), ())
        rec.emit("run_start")
        rec.emit("entry", node_key=key, parents=(1,))
        state = rec.snapshot_state()
        assert json.dumps(state)  # snapshot must be JSON-plain

        fresh = ProvenanceRecorder()
        fresh.preload(state)
        assert fresh.node_event[key] == 2
        assert fresh.last_event_id == 2
        next_id = fresh.emit("checkpoint_resume", parents=(2,))
        assert next_id == 3  # ids continue past the restored journal

    def test_preload_replaces_what_the_recorder_held(self):
        interrupted = ProvenanceRecorder()
        for kind in ("run_start", "entry", "transfer"):
            interrupted.emit(kind, node_key=((1,), ()))
        resumed = ProvenanceRecorder()
        resumed.emit("run_start", node_key=((9,), ()))
        resumed.preload(interrupted.snapshot_state())
        assert [e.kind for e in resumed.events()] == ["run_start", "entry", "transfer"]
        assert resumed.node_event == {((1,), ()): 3}
        assert resumed.emit("checkpoint_resume") == 4


class TestSwitchboard:
    """The flight recorder is a field of the thread's obs context."""

    def test_disabled_by_default(self):
        assert context.current().provenance is None

    def test_enable_disable_reset(self):
        with provenance.recording() as rec:
            assert context.current().provenance is rec
            context.reset()  # test isolation drops the thread's context
            assert context.current().provenance is None
        assert context.current().provenance is None

    def test_recording_restores_previous(self):
        with provenance.recording() as outer:
            with provenance.recording() as inner:
                assert context.current().provenance is inner
                context.current().provenance.emit("transfer")
            assert context.current().provenance is outer
        assert inner.total_events == 1
        assert outer.total_events == 0


class TestEngineIntegration:
    def _run(self, name, limits=None):
        program = programs.get(name).parse()
        cfg = build_cfg(program)
        engine = PCFGEngine(cfg, SimpleSymbolicClient(), limits)
        return engine.run(), cfg

    def test_disabled_run_records_nothing(self):
        result, _ = self._run("pingpong")
        assert result.confidence == diagnostics.EXACT
        assert context.current().provenance is None

    def test_run_produces_a_resolvable_dag(self):
        with provenance.recording() as prov:
            result, _ = self._run("pingpong")
        assert result.confidence == diagnostics.EXACT
        events = prov.events()
        assert events[0].kind == "run_start"
        kinds = prov.kind_counts()
        for expected in ("entry", "transfer", "match_attempt", "match"):
            assert kinds.get(expected), f"missing {expected} events: {kinds}"
        # every parent reference resolves within the ring
        for event in events:
            for parent in event.parents:
                assert prov.get(parent) is not None, event

    def test_every_chain_reaches_run_start(self):
        with provenance.recording() as prov:
            self._run("pingpong")
        for event in prov.events():
            chain = prov.chain(event.event_id)
            assert chain[0].kind == "run_start", event

    def test_budget_trip_diagnostic_links_to_event(self):
        with provenance.recording() as prov:
            result, _ = self._run("pingpong", EngineLimits(max_steps=3))
        trips = [d for d in result.diagnostics if d.code == diagnostics.BUDGET_STEPS]
        assert trips and trips[0].provenance_id is not None
        event = prov.get(trips[0].provenance_id)
        assert event.kind == "budget_trip"
        assert prov.chain(event.event_id)[0].kind == "run_start"

    def test_giveup_diagnostic_links_to_event(self):
        with provenance.recording() as prov:
            result, _ = self._run("ring_modular")
        assert result.gave_up
        linked = [d for d in result.diagnostics if d.provenance_id is not None]
        assert linked
        kinds = {prov.get(d.provenance_id).kind for d in linked}
        assert kinds <= {"giveup", "client_fault", "cfg_malformed", "budget_trip"}

    def test_match_events_carry_client_deltas(self):
        with provenance.recording() as prov:
            self._run("pingpong")
        attempts = [e for e in prov.events() if e.kind == "match_attempt"]
        assert attempts
        assert any(
            e.data is not None and "attempts" in e.data for e in attempts
        ), "match_attempt events never carried the client's match trace"
        transfers = [e for e in prov.events() if e.kind == "transfer"]
        assert any(e.data for e in transfers), "no transfer carried a delta"

    def test_journal_survives_snapshot_resume(self):
        program = programs.get("pingpong").parse()
        with provenance.recording() as first:
            tripped, _, _ = analyze_program(
                program, SimpleSymbolicClient(), EngineLimits(max_steps=4)
            )
        assert tripped.snapshot is not None
        with provenance.recording() as second:
            resumed, _, _ = analyze_program(
                program, SimpleSymbolicClient(), resume=tripped.snapshot
            )
        assert resumed.resumed_from.startswith("snapshot(")
        kinds = second.kind_counts()
        assert kinds.get("checkpoint_resume") == 1
        # the restored journal is part of the new recorder: the resumed
        # run's first fresh event id continues past the snapshot's
        assert second.total_events > first.total_events
        resume_events = [
            e for e in second.events() if e.kind == "checkpoint_resume"
        ]
        chain = second.chain(resume_events[0].event_id)
        assert chain[0].kind == "run_start"  # the *interrupted* run's start
