"""Provenance exporters: Chrome trace structure, validation, JSONL journal."""

from __future__ import annotations

import json

import pytest

from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core.engine import PCFGEngine
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.obs import export, provenance
from repro.obs.export import (
    KIND_TRACKS,
    TRACK_ORDER,
    read_journal,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_journal,
)
from repro.obs.provenance import ProvenanceEvent, ProvenanceRecorder


def _sample_recorder() -> ProvenanceRecorder:
    rec = ProvenanceRecorder()
    root = rec.emit("run_start", detail="limits")
    entry = rec.emit("entry", node_key=((1,), ()), parents=(root,))
    rec.emit(
        "match",
        node_key=((2,), ()),
        parents=(entry,),
        data={"sender": "[0]", "receiver": "[1]"},
        dur=0.002,
    )
    rec.emit("frobnicate", parents=(root,))  # unknown kind -> "other" track
    return rec


class TestChromeTrace:
    def test_document_shape_and_metadata(self):
        doc = to_chrome_trace(_sample_recorder(), process_name="unit")
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
        assert names == set(TRACK_ORDER)
        process = [e for e in meta if e["name"] == "process_name"]
        assert process[0]["args"]["name"] == "unit"

    def test_slices_carry_the_dag(self):
        doc = to_chrome_trace(_sample_recorder())
        slices = {e["args"]["id"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        match = slices[3]
        assert match["name"] == "match"
        assert match["cat"] == "matching"
        assert match["args"]["parents"] == [2]
        assert match["args"]["node"] == [[2], []]
        assert match["args"]["data"] == {"sender": "[0]", "receiver": "[1]"}
        # microsecond floor: instants still render
        assert all(e["dur"] >= 1.0 for e in slices.values())

    def test_unknown_kind_lands_on_other_track(self):
        doc = to_chrome_trace(_sample_recorder())
        odd = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "frobnicate"
        ]
        assert odd and odd[0]["cat"] == "other"
        assert odd[0]["tid"] == TRACK_ORDER.index("other")

    def test_every_known_kind_has_a_track(self):
        assert set(KIND_TRACKS.values()) <= set(TRACK_ORDER)

    def test_written_trace_validates(self, tmp_path):
        path = write_chrome_trace(tmp_path / "trace.json", _sample_recorder())
        document = json.loads(path.read_text())
        validate_chrome_trace(document)  # must not raise


class TestValidateChromeTrace:
    def test_accepts_engine_output(self):
        cfg = build_cfg(programs.get("pingpong").parse())
        with provenance.recording() as prov:
            PCFGEngine(cfg, SimpleSymbolicClient()).run()
        validate_chrome_trace(to_chrome_trace(prov))

    @pytest.mark.parametrize(
        "document, message",
        [
            ([], "JSON object"),
            ({"traceEvents": []}, "non-empty"),
            ({"traceEvents": ["x"]}, "not an object"),
            ({"traceEvents": [{"ph": "Q", "name": "n", "pid": 1, "tid": 0}]},
             "unsupported phase"),
            ({"traceEvents": [{"ph": "M", "pid": 1, "tid": 0}]}, "name"),
            ({"traceEvents": [{"ph": "M", "name": "n", "tid": 0}]}, "pid"),
            ({"traceEvents": [{"ph": "X", "name": "n", "pid": 1, "tid": 0,
                               "ts": -1.0, "dur": 1.0}]}, "negative"),
            ({"traceEvents": [{"ph": "X", "name": "n", "pid": 1, "tid": 0,
                               "ts": "soon", "dur": 1.0}]}, "non-numeric"),
            ({"traceEvents": [{"ph": "M", "name": "n", "pid": 1, "tid": 0,
                               "args": 5}]}, "args"),
            ({"traceEvents": [{"ph": "X", "name": "n", "pid": 1, "tid": 0,
                               "ts": 0.0, "dur": float("inf")}]}, "non-numeric"),
        ],
    )
    def test_rejects_malformed_documents(self, document, message):
        with pytest.raises(ValueError, match=message):
            validate_chrome_trace(document)


class TestJournal:
    def test_jsonl_roundtrip(self, tmp_path):
        rec = _sample_recorder()
        path = write_journal(tmp_path / "journal.jsonl", rec)
        back = read_journal(path)
        # to_dict rounds timestamps, so compare the serialized forms
        assert [e.to_dict() for e in back] == [e.to_dict() for e in rec.events()]

    def test_jsonl_of_empty_source_is_empty(self):
        assert to_jsonl([]) == ""

    def test_read_journal_skips_malformed_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = ProvenanceEvent(event_id=1, kind="transfer")
        path.write_text(
            json.dumps(good.to_dict()) + "\nnot json\n{\"kind\": \"x\"}\n\n[1, 2]\n"
        )
        assert read_journal(path) == [good]

    def test_read_journal_skips_non_object_lines(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        good = ProvenanceEvent(event_id=1, kind="transfer")
        path.write_text('"text"\n7\nnull\n' + json.dumps(good.to_dict()) + "\n")
        assert read_journal(path) == [good]

    def test_write_journal_overwrites_other_paths(self, tmp_path):
        target = tmp_path / "out.jsonl"
        target.write_text("stale\n")
        rec = _sample_recorder()
        write_journal(target, rec)
        assert [e.to_dict() for e in read_journal(target)] == [
            e.to_dict() for e in rec.events()
        ]

    def test_export_module_is_reachable_from_obs(self):
        from repro import obs

        assert obs.export is export
