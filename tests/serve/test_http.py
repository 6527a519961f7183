"""The HTTP surface: route/status-code mapping over an in-thread server."""

from __future__ import annotations

import http.client
import io
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.core.driver import analyze_with_fallback
from repro.corpus.generator import generate
from repro.faults import plane
from repro.faults.plane import FaultSchedule, PlannedFault
from repro.lang import programs
from repro.obs import recorder as obs
from repro.serve.cache import render_report
from repro.serve.daemon import AnalysisService, AnalyzeRequest, ServiceConfig
from repro.serve.http import AnalysisHTTPServer, _Handler
from repro.serve.retry import RetryPolicy


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        state_dir=tmp_path / "state",
        workers=1,
        isolation="inline",
        allow_test_faults=True,
        queue_size=8,
        retry=RetryPolicy(max_retries=0, backoff_base_sec=0.01),
    )
    service = AnalysisService(config)
    service.start()
    httpd = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, service
    httpd.shutdown()
    httpd.server_close()
    service.stop()


def _get(base: str, path: str):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def _post(base: str, path: str, document: dict):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(document).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def test_analyze_miss_then_hit(server):
    base, _service = server
    source = generate(31).source
    code, body, _ = _post(base, "/v1/analyze", {"program": source})
    assert code == 200
    assert body["cache"] == "miss"
    assert body["result"]["confidence"] in ("exact", "partial")
    code, body, _ = _post(base, "/v1/analyze", {"program": source})
    assert code == 200
    assert body["cache"] == "hit"


def test_async_submit_then_poll(server):
    base, _service = server
    code, body, _ = _post(
        base, "/v1/analyze",
        {"program": generate(32).source, "wait": False},
    )
    assert code == 202
    job_id = body["job"]
    for _ in range(300):
        code, body, _ = _get(base, f"/v1/jobs/{job_id}")
        if code == 200:
            break
    assert code == 200
    assert body["state"] == "done"
    assert body["result"]["confidence"] in ("exact", "partial")


def test_parse_error_is_400(server):
    base, _service = server
    code, body, _ = _post(base, "/v1/analyze", {"program": "((nope"})
    assert code == 400
    assert "parse error" in body["error"]


def test_malformed_request_bodies_are_400(server):
    base, _service = server
    code, body, _ = _post(base, "/v1/analyze", {"not_program": 1})
    assert code == 400
    request = urllib.request.Request(
        base + "/v1/analyze", data=b"{not json", method="POST",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request, timeout=10)
    assert excinfo.value.code == 400


def test_unknown_routes_are_404(server):
    base, _service = server
    assert _get(base, "/nope")[0] == 404
    assert _post(base, "/v1/nope", {})[0] == 404
    assert _get(base, "/v1/jobs/doesnotexist")[0] == 404


def test_health_ready_stats(server):
    base, service = server
    assert _get(base, "/healthz")[0] == 200
    assert _get(base, "/readyz")[0] == 200
    code, stats, _ = _get(base, "/stats")
    assert code == 200
    assert "queue_depth" in stats and "cache" in stats
    service.begin_drain()
    code, body, _ = _get(base, "/readyz")
    assert code == 503
    assert body["status"] == "draining"
    # healthz stays green while draining: the process is still alive
    assert _get(base, "/healthz")[0] == 200


def test_draining_submissions_are_503(server):
    base, service = server
    service.begin_drain()
    code, body, headers = _post(base, "/v1/analyze", {"program": generate(33).source})
    assert code == 503
    assert "Retry-After" in headers


def test_queue_full_is_429_with_retry_after(tmp_path):
    config = ServiceConfig(
        state_dir=tmp_path / "state",
        workers=1,
        isolation="inline",
        allow_test_faults=True,
        queue_size=1,
    )
    service = AnalysisService(config)
    service.start()
    httpd = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        _post(base, "/v1/analyze", {
            "program": generate(34).source,
            "test_fault": {"kind": "sleep", "sec": 0.5},
            "wait": False,
        })
        shed = 0
        for seed in range(35, 41):
            code, body, headers = _post(
                base, "/v1/analyze",
                {"program": generate(seed).source, "wait": False},
            )
            if code == 429:
                shed += 1
                assert "Retry-After" in headers
                assert body["error"] == "overloaded"
        assert shed >= 1
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.stop()


def test_batch_endpoint(server):
    base, _service = server
    source_a, source_b = generate(42).source, generate(43).source
    _post(base, "/v1/analyze", {"program": source_a})
    code, body, _ = _post(base, "/v1/batch", {"programs": [source_a, source_b]})
    assert code == 200
    caches = [item.get("cache") for item in body["results"]]
    assert caches == ["hit", "miss"]
    code, body, _ = _post(base, "/v1/batch", {"programs": []})
    assert code == 400


def test_batch_item_limits_stay_with_their_item(server):
    """Each batch item runs and is cached under its own limits: a tight
    first item must not poison a later single request for another item."""
    base, _service = server
    pingpong, exchange = programs.get("pingpong"), programs.get("exchange_with_root")
    code, body, _ = _post(base, "/v1/batch", {"programs": [
        {"program": pingpong.source, "max_steps": 2}, exchange.source,
    ]})
    assert code == 200
    assert [item["cache"] for item in body["results"]] == ["miss", "miss"]
    code, body, _ = _post(base, "/v1/analyze", {"program": exchange.source})
    assert code == 200 and body["cache"] == "hit"
    fresh = render_report(analyze_with_fallback(exchange.parse()))
    assert (body["result"]["rung"], body["result"]["confidence"]) == ("cartesian", "exact")
    assert body["result"]["matches"] == fresh["matches"]


def test_recovered_batch_answers_every_item_in_order(tmp_path):
    """A batch accepted without waiting, by a daemon that dies before
    running it, is answered item for item by the next daemon."""
    state_dir = tmp_path / "state"
    hit_source, miss_source = generate(44).source, generate(45).source
    warm = AnalysisService(ServiceConfig(state_dir=state_dir, isolation="inline"))
    warm.start()
    status, job = warm.submit(AnalyzeRequest(program=hit_source))
    assert status == "accepted" and job.wait(30)
    warm.stop()
    # admits and journals, but never starts a worker: a SIGKILL after accept
    doomed = AnalysisService(ServiceConfig(state_dir=state_dir, isolation="inline"))
    httpd = AnalysisHTTPServer(("127.0.0.1", 0), doomed)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        code, body, _ = _post(
            f"http://127.0.0.1:{httpd.server_address[1]}", "/v1/batch",
            {"programs": [hit_source, miss_source, "((broken"], "wait": False},
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        doomed.journal.close()
    assert code == 202
    hit, miss, error = body["results"]
    assert hit["cache"] == "hit" and "parse error" in error["error"]
    assert miss["state"] == "queued"
    reborn = AnalysisService(ServiceConfig(state_dir=state_dir, isolation="inline"))
    reborn.start()
    try:
        recovered = reborn.get_job(miss["job"])
        assert recovered is not None and recovered.wait(30)
        assert recovered.result["rung"] and "degraded" not in recovered.result
        status, cached = reborn.submit(AnalyzeRequest(program=hit_source))
        assert status == "hit" and cached == hit["result"]
    finally:
        reborn.stop()


# -- the write path: one send per response, Nagle off ---------------------------


class _FakeConnection:
    """Just enough of an accepted socket for the handler: the request
    bytes to read, and a log of every ``sendall`` and ``setsockopt``."""

    def __init__(self, request: bytes):
        self._request = request
        self.writes = []
        self.options = {}

    def makefile(self, mode, bufsize=-1):
        return io.BytesIO(self._request)

    def sendall(self, data):
        self.writes.append(bytes(data))

    def setsockopt(self, level, name, value):
        self.options[(level, name)] = value


def _handle(request: bytes, service=None):
    connection = _FakeConnection(request)
    _Handler(connection, ("127.0.0.1", 40000), SimpleNamespace(service=service))
    return connection


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", b"200"),
        (b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n", b"404"),
        (b"POST /v1/analyze HTTP/1.1\r\nContent-Length: 5\r\n\r\n{nope", b"400"),
    ],
    ids=["healthz", "unknown-route", "bad-json"],
)
def test_send_json_is_one_socket_write(request_bytes, status):
    connection = _handle(request_bytes)
    assert connection.options == {(socket.IPPROTO_TCP, socket.TCP_NODELAY): True}
    assert len(connection.writes) == 1
    head, _, body = connection.writes[0].partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 " + status)
    assert b"Content-Length: %d" % len(body) in head
    json.loads(body)


def test_streamed_hit_is_one_socket_write():
    service = SimpleNamespace(
        submit=lambda request, subscriber=None: ("hit", {"confidence": "exact"})
    )
    body = json.dumps({"program": "x = 1", "stream": True}).encode()
    connection = _handle(
        b"POST /v1/analyze HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % len(body) + body,
        service,
    )
    assert len(connection.writes) == 1
    response = connection.writes[0]
    assert b"Transfer-Encoding: chunked" in response
    assert b'"event": "result"' in response
    assert response.endswith(b"\r\n0\r\n\r\n")


def test_injected_disconnect_tears_the_response():
    """The fault lands a prefix of the one write, counts a client
    disconnect, and closes the keep-alive connection: the pipelined
    second request is never answered."""
    request = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"
    whole = _handle(request).writes[0]
    schedule = FaultSchedule([PlannedFault("http.client.disconnect", arg=0.5)])
    with plane.engaged(schedule), obs.recording() as recorder:
        connection = _handle(request * 2)
    assert len(connection.writes) == 1
    torn = connection.writes[0]
    assert 0 < len(torn) < len(whole) and whole.startswith(torn)
    assert recorder.counters["serve.http.client_disconnects"] == 1


def _median_ms(connection, method: str, path: str, document=None, rounds: int = 30):
    """Median latency of ``rounds`` sequential requests over one
    keep-alive connection (asserting it really stayed one connection)."""
    body = json.dumps(document).encode() if document is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    sock, samples = None, []
    for _ in range(rounds):
        start = time.perf_counter()
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        payload = response.read()
        samples.append((time.perf_counter() - start) * 1000.0)
        assert response.status == 200, payload
        sock = sock or connection.sock
        assert connection.sock is sock
    return statistics.median(samples), payload


#: a delayed-ACK stall costs at least 40 ms per response on Linux; a
#: whole keep-alive answer without it takes a few milliseconds
STALL_FREE_MS = 20.0


def test_keepalive_hits_and_health_do_not_stall(server):
    base, _service = server
    source = generate(44).source
    assert _post(base, "/v1/analyze", {"program": source})[1]["cache"] == "miss"
    connection = http.client.HTTPConnection(base[len("http://"):], timeout=30)
    try:
        hit_ms, payload = _median_ms(connection, "POST", "/v1/analyze", {"program": source})
        assert json.loads(payload)["cache"] == "hit"
        health_ms, _ = _median_ms(connection, "GET", "/healthz")
    finally:
        connection.close()
    assert hit_ms < STALL_FREE_MS
    assert health_ms < STALL_FREE_MS


def test_keepalive_streamed_hits_do_not_stall(server):
    base, _service = server
    source = generate(45).source
    assert _post(base, "/v1/analyze", {"program": source})[1]["cache"] == "miss"
    connection = http.client.HTTPConnection(base[len("http://"):], timeout=30)
    try:
        stream_ms, payload = _median_ms(
            connection, "POST", "/v1/analyze", {"program": source, "stream": True}
        )
    finally:
        connection.close()
    events = [json.loads(line) for line in payload.decode().splitlines()]
    assert [event["event"] for event in events] == ["admission", "result"]
    assert events[0]["cache"] == "hit"
    assert stream_ms < STALL_FREE_MS


def test_loadgen_reuses_one_connection_per_worker(server, monkeypatch):
    from repro.serve.loadgen import corpus_mix, run_load

    base, _service = server
    accepted = []
    original = AnalysisHTTPServer.process_request

    def counting(self, request, client_address):
        accepted.append(client_address)
        return original(self, request, client_address)

    monkeypatch.setattr(AnalysisHTTPServer, "process_request", counting)
    report = run_load(
        base,
        corpus_mix(2, 4, seed=7),
        concurrency=2,
        warm_distinct=corpus_mix(2, 1, seed=7),
    )
    assert report["requests"] == 8 and report["errors"] == 0
    assert report["cache_hits"] == 8
    # one connection for the warm-up, one per worker thread
    assert len(accepted) == 3
