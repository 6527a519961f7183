"""Trace identity in the observability context, span shards and stitching."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import context, trace
from repro.obs import recorder as obs
from repro.obs.export import validate_chrome_trace


class TestTraceContext:
    def test_mint_is_fresh(self):
        a, b = context.mint(), context.mint()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id
        assert a.parent_id is None

    def test_mint_honors_client_id(self):
        ctx = context.mint("client-req-42")
        assert ctx.trace_id == "client-req-42"

    def test_mint_sanitizes_hostile_client_id(self):
        ctx = context.mint("../../etc/passwd\n<script>")
        assert "/" not in ctx.trace_id
        assert "\n" not in ctx.trace_id
        assert "<" not in ctx.trace_id
        # an id reduced to nothing falls back to a minted one
        assert context.mint("///...\\\\").trace_id.replace(".", "") != ""

    def test_roundtrip_dict(self):
        ctx = context.mint()
        assert context.TraceContext.from_dict(ctx.to_dict()) == ctx

    @pytest.mark.parametrize(
        "document",
        [None, "x", 42, {}, {"trace": ""}, {"trace": "t"}, {"trace": 1, "span": "s"}],
    )
    def test_from_dict_rejects_malformed(self, document):
        assert context.TraceContext.from_dict(document) is None

    def test_bound_trace_is_scoped(self):
        assert context.current().trace is None
        ctx = context.mint()
        with context.bound(trace=ctx):
            assert context.current().trace is ctx
            assert trace.current_trace_id() == ctx.trace_id
        assert context.current().trace is None

    def test_binding_what_is_bound_installs_nothing(self):
        with context.bound(trace=None, progress=None):
            assert getattr(context._local, "ctx", None) is None


class TestSpanShards:
    def test_span_without_sink_writes_nothing(self, tmp_path):
        with context.bound(trace=context.mint()):
            with obs.span("serve.orphan"):
                pass
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_span_without_context_writes_nothing(self, tmp_path):
        obs.configure_sink(tmp_path, "test")
        with obs.span("serve.orphan"):
            pass
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_span_records_nested_parentage(self, tmp_path):
        obs.configure_sink(tmp_path, "test")
        ctx = context.mint()
        with obs.recording() as recorder, context.bound(trace=ctx):
            with obs.span("serve.outer"):
                outer = context.current().trace
                with obs.span("engine.step"):  # not a request layer
                    with obs.span("driver.rung.inner", detail=7):
                        pass
        records = trace.load_spans(tmp_path, ctx.trace_id)
        by_name = {r["name"]: r for r in records}
        assert set(by_name) == {"serve.outer", "driver.rung.inner"}
        assert by_name["driver.rung.inner"]["parent"] == by_name["serve.outer"]["span"]
        assert by_name["serve.outer"]["parent"] == ctx.span_id
        assert by_name["driver.rung.inner"]["data"] == {"detail": 7}
        assert by_name["serve.outer"]["pid"] == os.getpid()
        assert outer.trace_id == ctx.trace_id
        # one call both aggregates and shards
        assert set(recorder.spans) == {"serve.outer", "engine.step", "driver.rung.inner"}

    def test_load_spans_skips_torn_lines(self, tmp_path):
        obs.configure_sink(tmp_path, "test")
        ctx = context.mint()
        with context.bound(trace=ctx):
            with obs.span("serve.good"):
                pass
        shard = next(tmp_path.glob(f"{ctx.trace_id}-*.jsonl"))
        with open(shard, "a") as handle:
            handle.write('{"trace": "' + ctx.trace_id + '", "name": "to')  # torn
            handle.write("\nnot json at all\n")
            handle.write(json.dumps({"trace": ctx.trace_id, "name": "bad-ts",
                                     "ts": "yesterday", "dur": 0}) + "\n")
            # json.dumps writes Infinity, which is not JSON
            handle.write(json.dumps({"trace": ctx.trace_id, "name": "inf-dur",
                                     "ts": 1.0, "dur": float("inf")}) + "\n")
        records = trace.load_spans(tmp_path, ctx.trace_id)
        assert [r["name"] for r in records] == ["serve.good"]

    def test_unwritable_sink_degrades_silently(self, tmp_path):
        # a file where the directory should be: mkdir fails, tracing off
        blocker = tmp_path / "blocked"
        blocker.write_text("x")
        assert obs.configure_sink(blocker / "sub") is None
        with context.bound(trace=context.mint()):
            with obs.span("serve.dropped"):
                pass  # must not raise


class TestStitch:
    def test_stitch_multiprocess_shards(self, tmp_path):
        """Shards from distinct OS pids become distinct Chrome pids,
        ordered by first span start, and the result validates."""
        ctx = context.mint()
        base = 1000.0
        for fake_pid, offset, name, proc in [
            (4711, 0.0, "serve.job", "daemon"),
            (4712, 0.010, "serve.attempt", "worker"),
        ]:
            shard = tmp_path / f"{ctx.trace_id}-{fake_pid}.jsonl"
            shard.write_text(json.dumps({
                "trace": ctx.trace_id, "span": context.mint_id(),
                "parent": ctx.span_id, "name": name, "ts": base + offset,
                "dur": 0.005, "pid": fake_pid, "tid": 1, "proc": proc,
                "data": {},
            }) + "\n")
        document = trace.stitch(tmp_path, ctx.trace_id)
        assert validate_chrome_trace(document) is None or True  # raises on bad
        spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        assert len(spans) == 2
        by_name = {e["name"]: e for e in spans}
        # daemon span started first -> Chrome pid 1
        assert by_name["serve.job"]["pid"] == 1
        assert by_name["serve.attempt"]["pid"] == 2
        # every span advertises the request's trace id
        assert all(e["args"]["trace"] == ctx.trace_id for e in spans)
        metas = [e for e in document["traceEvents"] if e.get("ph") == "M"]
        names = {e["args"]["name"] for e in metas if e["name"] == "process_name"}
        assert any("daemon" in n for n in names)
        assert any("worker" in n for n in names)

    def test_stitch_unknown_trace_raises(self, tmp_path):
        with pytest.raises(ValueError):
            trace.stitch(tmp_path, "nope")

    def test_stitch_nesting_is_acyclic(self, tmp_path):
        obs.configure_sink(tmp_path, "test")
        ctx = context.mint()
        with context.bound(trace=ctx):
            with obs.span("http.a"):
                with obs.span("serve.b"):
                    with obs.span("driver.rung.c"):
                        pass
        document = trace.stitch(tmp_path, ctx.trace_id)
        spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        parent_of = {
            e["args"]["span"]: e["args"].get("parent") for e in spans
        }
        for start in parent_of:
            seen = set()
            node = start
            while node in parent_of:
                assert node not in seen, "cycle in span parentage"
                seen.add(node)
                node = parent_of[node]


class TestSlogCorrelation:
    def test_log_lines_carry_trace_ids(self, capsys):
        from repro.obs import slog

        slog.configure("info")
        ctx = context.mint()
        with context.bound(trace=ctx):
            slog.info("test.correlated", extra=1)
        slog.configure(None)
        line = capsys.readouterr().err.strip().splitlines()[-1]
        record = json.loads(line)
        assert record["trace"] == ctx.trace_id
        assert record["span"] == ctx.span_id
