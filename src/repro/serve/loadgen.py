"""Corpus-replay load generator for the analysis service.

Replays a duplicate-heavy mix of corpus-generator programs against a
running daemon — the access pattern a popular service actually sees
(most submissions are programs someone already submitted) — and
measures the service-level numbers the bench baseline gates on:

* requests/sec (wall-clock over the whole replay),
* cache-hit rate (servings answered from the content-addressed cache),
* shed rate (429s under pressure),
* latency percentiles.

The default replay is **warm-first**: one copy of each distinct program
is submitted (and completes) before the duplicate storm starts, so the
duplicates measure steady-state cache behavior rather than racing the
first analysis of their own key.  ``warm_first=False`` races everything
concurrently instead, which additionally exercises request coalescing.

Each worker thread holds one keep-alive connection for its whole share
of the replay (reopened after a transport error), as real clients do:
a connection per request would never exercise the keep-alive write
path.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
import urllib.parse
import urllib.request
from typing import Dict, List, Optional

from repro.obs.recorder import percentile


def corpus_mix(count: int, duplicates: int, seed: int = 1337) -> List[str]:
    """``count`` distinct generated programs, each repeated ``duplicates``
    times, shuffled deterministically by ``seed``."""
    from repro.corpus.generator import generate

    distinct = [generate(seed + index).source for index in range(count)]
    mix = [source for source in distinct for _ in range(duplicates)]
    random.Random(seed).shuffle(mix)
    return mix


def _post_json(
    connection: http.client.HTTPConnection, path: str, document: dict
) -> Dict[str, object]:
    """One POST over ``connection``; any transport error closes it, and
    ``http.client`` reopens it on the next request."""
    body = json.dumps(document).encode("utf-8")
    start = time.perf_counter()
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
    except (OSError, http.client.HTTPException) as exc:
        connection.close()
        return {"code": 0, "latency": time.perf_counter() - start, "error": str(exc)}
    latency = time.perf_counter() - start
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:
        if response.status < 400:
            return {"code": 0, "latency": latency, "error": str(exc)}
        payload = {}
    return {"code": response.status, "latency": latency, "payload": payload}


def _percentile(values: List[float], q: float) -> float:
    # one nearest-rank implementation for the whole telemetry plane: the
    # recorder's histograms, the /metrics summaries, and these latencies
    # must agree on what "p99" means
    return percentile(values, q) or 0.0


def scrape_metrics(base_url: str, timeout: float = 10.0) -> Dict[str, float]:
    """One ``/metrics`` scrape, parsed into a flat ``name{labels}`` map."""
    from repro.obs import metrics as metrics_mod

    url = base_url.rstrip("/") + "/metrics"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8")
    problems = metrics_mod.validate_exposition(text)
    if problems:
        raise ValueError(f"unparseable /metrics exposition: {problems[0]}")
    return metrics_mod.parse_exposition(text)


def run_load(
    base_url: str,
    programs: List[str],
    concurrency: int = 8,
    warm_distinct: Optional[List[str]] = None,
    deadline_sec: float = 20.0,
) -> Dict[str, object]:
    """Replay ``programs`` against ``base_url`` and summarize.

    ``warm_distinct`` (the distinct program set) enables the warm-first
    phase.  Returns the metrics document the bench workload publishes.
    """
    parts = urllib.parse.urlsplit(base_url)
    path = parts.path.rstrip("/") + "/v1/analyze"

    def connect() -> http.client.HTTPConnection:
        return http.client.HTTPConnection(parts.hostname, parts.port, timeout=120.0)

    if warm_distinct:
        connection = connect()
        try:
            for source in warm_distinct:
                _post_json(
                    connection, path, {"program": source, "deadline_sec": deadline_sec}
                )
        finally:
            connection.close()
    outcomes: List[Dict[str, object]] = []
    outcomes_lock = threading.Lock()
    work: List[str] = list(programs)
    work_lock = threading.Lock()

    def pump() -> None:
        connection = connect()
        try:
            while True:
                with work_lock:
                    if not work:
                        return
                    source = work.pop()
                outcome = _post_json(
                    connection, path, {"program": source, "deadline_sec": deadline_sec}
                )
                with outcomes_lock:
                    outcomes.append(outcome)
        finally:
            connection.close()

    start = time.perf_counter()
    threads = [threading.Thread(target=pump, daemon=True) for _ in range(max(1, concurrency))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    total = len(outcomes)
    hits = sum(
        1 for o in outcomes
        if o.get("code") == 200 and isinstance(o.get("payload"), dict)
        and o["payload"].get("cache") == "hit"
    )
    ok = sum(1 for o in outcomes if o.get("code") in (200, 202))
    shed = sum(1 for o in outcomes if o.get("code") == 429)
    errors = sum(1 for o in outcomes if o.get("code") not in (200, 202, 429))
    latencies = [o["latency"] for o in outcomes if "latency" in o]
    return {
        "requests": total,
        "elapsed_sec": elapsed,
        "requests_per_sec": total / elapsed if elapsed > 0 else 0.0,
        "ok": ok,
        "cache_hits": hits,
        "cache_hit_rate": hits / total if total else 0.0,
        "shed": shed,
        "shed_rate": shed / total if total else 0.0,
        "errors": errors,
        "latency_ms": {
            "p50": _percentile(latencies, 0.50) * 1000.0,
            "p90": _percentile(latencies, 0.90) * 1000.0,
            "p95": _percentile(latencies, 0.95) * 1000.0,
            "p99": _percentile(latencies, 0.99) * 1000.0,
        },
    }
