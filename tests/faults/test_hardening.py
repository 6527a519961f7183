"""Untrusted-input hardening: oversized/hostile requests get structured
4xx answers and are never admitted, so they never reach a worker or the
retry path."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.lang.parser import (
    MAX_NESTING_DEPTH,
    MAX_SOURCE_BYTES,
    ParseError,
    parse,
)
from repro.serve.daemon import AnalysisService, ServiceConfig
from repro.serve.http import MAX_BODY_BYTES, MAX_WAIT_SEC, AnalysisHTTPServer
from repro.serve.retry import RetryPolicy


@pytest.fixture
def server(tmp_path):
    config = ServiceConfig(
        state_dir=tmp_path / "state",
        workers=1,
        isolation="inline",
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


def _post_raw(base: str, body: bytes):
    request = urllib.request.Request(
        base + "/v1/analyze", data=body,
        headers={"Content-Type": "application/json"}, method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def _admissions(service: AnalysisService) -> tuple:
    counters = service.stats()["counters"]
    return counters.get("serve.accepted", 0), counters.get("serve.retries", 0)


def _assert_never_admitted(service: AnalysisService, before: tuple) -> None:
    """No job was created, and admission and retry counts did not move."""
    assert service.jobs == {}
    assert _admissions(service) == before


# -- parser ceilings ----------------------------------------------------------


def test_deeply_nested_expression_is_parse_error():
    deep = "x = " + "(" * 10_000 + "1" + ")" * 10_000
    with pytest.raises(ParseError, match="nesting"):
        parse(deep)


def test_deeply_nested_statements_are_parse_error():
    depth = MAX_NESTING_DEPTH + 10
    source = (
        "".join(f"if (id == {i}) then\n" for i in range(depth))
        + "skip\n"
        + "end\n" * depth
    )
    with pytest.raises(ParseError, match="nesting"):
        parse(source)


def test_nesting_just_under_limit_parses():
    depth = 30
    source = "x = " + "(" * depth + "1" + ")" * depth
    parse(source)


def test_oversized_source_is_parse_error():
    source = "x = 1\n" + "y = 2\n" * (MAX_SOURCE_BYTES // 6 + 1)
    with pytest.raises(ParseError, match="too large"):
        parse(source)


def test_lexer_garbage_is_parse_error_not_lex_error():
    # LexError escaping parse() would be a 500 at the service layer —
    # the daemon's admission path catches exactly ParseError
    with pytest.raises(ParseError):
        parse("x = @#$%^&")


def test_recursion_error_cannot_escape():
    # even pathological shapes the depth counter might miss must come
    # out as ParseError (the RecursionError belt)
    hostile = "assert " + "not " * 50_000 + "1"
    with pytest.raises(ParseError):
        parse(hostile)


# -- HTTP surface -------------------------------------------------------------


def test_10mb_body_gets_structured_413(server):
    base, service = server
    before = _admissions(service)
    body = json.dumps({"program": "x = 1", "pad": "y" * (10 * 1024 * 1024)})
    assert len(body) > MAX_BODY_BYTES
    code, document = _post_raw(base, body.encode())
    assert code == 413
    assert isinstance(document.get("error"), str)
    _assert_never_admitted(service, before)


def test_10k_deep_program_gets_structured_400(server):
    base, service = server
    before = _admissions(service)
    deep = "x = " + "(" * 10_000 + "1" + ")" * 10_000
    code, document = _post_raw(base, json.dumps({"program": deep}).encode())
    assert code == 400
    assert "nesting" in document["error"]
    _assert_never_admitted(service, before)


def test_lexer_garbage_gets_structured_400(server):
    base, service = server
    before = _admissions(service)
    code, document = _post_raw(base, json.dumps({"program": "x = @!?"}).encode())
    assert code == 400
    assert isinstance(document.get("error"), str)
    _assert_never_admitted(service, before)


def test_oversized_program_gets_structured_400(server):
    base, service = server
    before = _admissions(service)
    program = "x = 1\n" * 400_000  # 2.4 MB source inside an < 8 MB body
    code, document = _post_raw(base, json.dumps({"program": program}).encode())
    assert code == 400
    assert "too large" in document["error"]
    _assert_never_admitted(service, before)


def test_malformed_json_gets_structured_400(server):
    base, service = server
    before = _admissions(service)
    code, document = _post_raw(base, b'{"program": "x = 1"')
    assert code == 400
    assert isinstance(document.get("error"), str)
    _assert_never_admitted(service, before)


def test_wait_budget_is_clamped(server):
    base, _service = server
    code, document = _post_raw(
        base,
        json.dumps(
            {"program": "x = 1", "wait_timeout_sec": 10_000_000.0}
        ).encode(),
    )
    # the request succeeds; the clamp just bounds the handler's block
    assert code in (200, 202)
    assert MAX_WAIT_SEC == 600.0


def test_hostile_inputs_do_not_reach_retry_path(server):
    base, service = server
    before = _admissions(service)
    for payload in (b'[]', b'{"program": 7}', json.dumps({"program": "x = @"}).encode()):
        code, _ = _post_raw(base, payload)
        assert 400 <= code < 500
    stats = service.stats()
    assert stats["counters"].get("serve.retries", 0) == 0
    assert stats["counters"].get("serve.attempt_failures", 0) == 0
    _assert_never_admitted(service, before)
