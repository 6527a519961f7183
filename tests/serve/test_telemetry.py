"""The service telemetry plane end to end: /metrics exposition over a
live daemon, chunked streaming diagnostics, and cross-process trace
stitching.  These are the integration counterparts of the unit tests in
``tests/obs/test_metrics.py`` / ``tests/obs/test_trace.py``."""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.core.driver import analyze_with_fallback
from repro.corpus.generator import generate
from repro.lang import programs
from repro.obs import metrics, trace
from repro.serve.cache import render_report
from repro.serve.daemon import AnalysisService, AnalyzeRequest, ServiceConfig
from repro.serve.http import AnalysisHTTPServer
from repro.serve.retry import RetryPolicy


def _make_server(tmp_path, isolation: str):
    config = ServiceConfig(
        state_dir=tmp_path / "state",
        workers=1,
        isolation=isolation,
        queue_size=8,
        retry=RetryPolicy(max_retries=1, backoff_base_sec=0.01),
    )
    service = AnalysisService(config)
    service.start()
    httpd = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    return base, service, httpd


@pytest.fixture
def inline_server(tmp_path):
    base, service, httpd = _make_server(tmp_path, "inline")
    yield base, service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


@pytest.fixture
def process_server(tmp_path):
    base, service, httpd = _make_server(tmp_path, "process")
    yield base, service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


def _post(base: str, document: dict, timeout: float = 60.0):
    request = urllib.request.Request(
        base + "/v1/analyze",
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


def _scrape(base: str):
    with urllib.request.urlopen(base + "/metrics", timeout=30) as response:
        text = response.read().decode("utf-8")
        content_type = response.headers.get("Content-Type")
    return text, content_type


class TestMetricsEndpoint:
    def test_scrape_is_parseable_with_required_series(self, inline_server):
        base, _service = inline_server
        code, body = _post(base, {"program": generate(61).source, "wait": True})
        assert code == 200
        text, content_type = _scrape(base)
        assert content_type == metrics.CONTENT_TYPE
        assert metrics.validate_exposition(text) == []
        samples = metrics.parse_exposition(text)
        assert samples["repro_up"] == 1.0
        # the RED series and the service gauges the dashboard needs
        assert samples["repro_serve_cache_resident_entries"] >= 1.0
        assert "repro_serve_queue_depth" in samples
        latency = [
            key for key in samples
            if key.startswith("repro_serve_http_latency_ms") and "analyze" in key
        ]
        assert latency, "per-endpoint latency summary missing"
        assert any(
            key.startswith("repro_serve_http_requests_total") for key in samples
        )
        assert any(
            key.startswith("repro_serve_tenant_latency_ms") for key in samples
        )

    def test_worker_process_counters_survive_to_scrape(self, process_server):
        """Regression: engine counters from a process-isolated attempt
        must be merged home and appear nonzero in /metrics — before this
        plane existed they died with the worker."""
        base, _service = process_server
        code, body = _post(base, {"program": generate(62).source, "wait": True})
        assert code == 200
        assert body["cache"] == "miss"
        samples = metrics.parse_exposition(_scrape(base)[0])
        assert samples.get("repro_engine_steps_total", 0.0) > 0.0

    def test_scrape_counts_itself(self, inline_server):
        base, _service = inline_server
        _scrape(base)
        samples = metrics.parse_exposition(_scrape(base)[0])
        assert samples["repro_serve_metrics_scrapes_total"] >= 1.0


@pytest.mark.parametrize("isolation", ["inline", "process"])
def test_both_isolations_answer_like_the_ladder(tmp_path, isolation):
    """Both isolation modes run the one attempt body, so each answers
    every paper program exactly as an in-process ladder does."""
    base, service, httpd = _make_server(tmp_path, isolation)
    try:
        for name in programs.names():
            spec = programs.get(name)
            code, body = _post(base, {"program": spec.source})
            assert code == 200 and body["cache"] == "miss", name
            limits = service.effective_limits(AnalyzeRequest(program=spec.source))
            expected = render_report(analyze_with_fallback(spec.parse(), limits=limits))
            for key in ("rung", "confidence", "matches", "diagnostics"):
                assert body["result"][key] == expected[key], (name, key)
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.stop()


class TestStreaming:
    def _stream(self, base: str, document: dict, timeout: float = 60.0):
        request = urllib.request.Request(
            base + "/v1/analyze",
            data=json.dumps({**document, "stream": True}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        events = []
        with urllib.request.urlopen(request, timeout=timeout) as response:
            assert response.status == 200
            assert "x-ndjson" in response.headers.get("Content-Type", "")
            for line in response:
                events.append(json.loads(line))
        return events

    def test_event_sequence_miss(self, inline_server):
        base, _service = inline_server
        events = self._stream(base, {"program": generate(63).source})
        kinds = [event["event"] for event in events]
        assert kinds[0] == "admission"
        assert events[0]["cache"] == "miss"
        assert events[0]["trace"]
        assert kinds[-1] == "result"
        assert events[-1]["result"]["confidence"] in ("exact", "partial")
        # at least one rung announcement precedes the result
        assert "rung" in kinds[1:-1]
        rung_index = kinds.index("rung")
        progress = [k for k in kinds if k == "progress"]
        assert progress, "engine heartbeats missing from the stream"
        assert kinds.index("progress") > rung_index

    def test_event_sequence_hit(self, inline_server):
        base, _service = inline_server
        source = generate(64).source
        _post(base, {"program": source, "wait": True})
        events = self._stream(base, {"program": source})
        assert events[0]["event"] == "admission"
        assert events[0]["cache"] == "hit"
        assert events[-1]["event"] == "result"

    def test_stream_and_plain_agree(self, inline_server):
        base, _service = inline_server
        source = generate(65).source
        events = self._stream(base, {"program": source})
        code, body = _post(base, {"program": source, "wait": True})
        assert code == 200
        assert (
            events[-1]["result"]["matches"] == body["result"]["matches"]
        )


class TestTraceStitching:
    def test_response_carries_trace_id(self, inline_server):
        base, _service = inline_server
        code, body = _post(base, {"program": generate(66).source, "wait": True})
        assert code == 200
        assert isinstance(body.get("trace"), str) and body["trace"]

    def test_client_supplied_trace_id_wins(self, inline_server):
        base, _service = inline_server
        request = urllib.request.Request(
            base + "/v1/analyze",
            data=json.dumps(
                {"program": generate(67).source, "wait": True}
            ).encode(),
            headers={
                "Content-Type": "application/json",
                "X-Repro-Trace": "my-correlation-id",
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=60) as response:
            body = json.loads(response.read())
        assert body["trace"] == "my-correlation-id"

    def test_multiprocess_shards_stitch_into_one_trace(
        self, process_server, tmp_path
    ):
        """A process-isolated attempt writes its own span shard; the
        stitched trace validates, spans all carry the request's trace id,
        and parent/child nesting is acyclic across process boundaries."""
        base, service = process_server
        code, body = _post(base, {"program": generate(68).source, "wait": True})
        assert code == 200
        trace_id = body["trace"]
        sink = service.config.state_dir / "traces"
        # span records are eventually consistent: the daemon's serve.job
        # record lands just *after* the waiter is released, so poll briefly
        deadline = time.monotonic() + 10.0
        while True:
            shards = sorted(sink.glob(f"{trace_id}-*.jsonl"))
            names = {
                json.loads(line)["name"]
                for shard in shards
                for line in shard.read_text().splitlines()
            }
            if len(shards) >= 2 and {"serve.job", "serve.attempt"} <= names:
                break
            assert time.monotonic() < deadline, (
                f"expected daemon and attempt worker shards, got {names}"
            )
            time.sleep(0.05)
        for shard in shards:
            for line in shard.read_text().splitlines():
                assert json.loads(line)["trace"] == trace_id
        document = trace.stitch(sink, trace_id)  # validates internally
        spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        assert {e["pid"] for e in spans} >= {1, 2}
        names = {e["name"] for e in spans}
        assert "serve.job" in names
        assert "serve.attempt" in names
        # only request-level layers reach shards; engine-internal spans
        # stay in the recorder
        assert all(n.startswith(("http.", "serve.", "driver.rung.")) for n in names), names
        assert not any(
            n.startswith(("engine.", "client.", "cgraph.", "hsm.")) for n in names
        ), names
        # acyclic parentage, spans reachable across the process boundary
        parent_of = {e["args"]["span"]: e["args"].get("parent") for e in spans}
        for start in parent_of:
            node, seen = start, set()
            while node in parent_of:
                assert node not in seen
                seen.add(node)
                node = parent_of[node]
