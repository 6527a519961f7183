"""``service_mixed``: the real daemon under a closed-loop request mix.

``repro serve`` runs in its own process with production settings
(process-isolated attempts, 2 worker threads on this 2-CPU class of
host) and a fresh state dir per pass.  One client drives it in a closed
loop over one keep-alive connection: each request is sent once the
previous one is answered.  The mix is every program of the fixed set
sent ``SERVICE_COPIES`` times in one fixed shuffled order, so the first
copy of a program is always the miss, every later copy a hit, and no
request is ever coalesced: the classes never depend on timing.

One connection rather than one per CPU: with a single request in
flight, the CPU time the daemon, its attempt child and the client spend
between a request's send and its answer is that request's alone, and
``calibrate`` can scale exactly that part of its latency.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException
from pathlib import Path
from time import perf_counter, thread_time
from typing import List, Optional

from calibrate import ScaledSamples
from common import (
    BENCH_DIR,
    OUT,
    ROOT,
    SRC,
    Answer,
    cpu_seconds,
    inputs_digest,
    measure_setup,
    metric,
    peak_rss_mb,
    percentile,
    probe_reading,
    ready,
    tail,
    typical,
    write_json,
)
from inputs import SERVICE_COPIES, SERVICE_SEED, presentation_order, service_items
from layers import RecorderTotals, analysis_layers, ledger_shares, mean_ms
from ledger import adopt_orphans, duration, with_self_times
from oracle import Tally

WORKERS = 2
#: the daemon's own wait budget is 60 s; a request still open after this
#: long counts as a timeout
REQUEST_TIMEOUT_SEC = 120.0
#: polling step while the daemon starts; fine enough not to quantize setup_s
POLL_SEC = 0.001


class Daemon:
    """One ``repro serve`` process with a fresh state dir."""

    def __init__(self, traced: bool = False) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=OUT))
        launcher = [str(BENCH_DIR / "traced_daemon.py")] if traced else ["-m", "repro"]
        argv = [sys.executable, *launcher, "serve", "--state-dir", str(self.state_dir),
                "--port", "0", "--workers", str(WORKERS)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._log = open(self.state_dir / "daemon.log", "wb")
        self.process = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                        stdout=self._log, stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._discover()
            self._await_ready()
        except BaseException:
            self.stop()  # the state dir stays: its daemon.log says why
            raise

    def _alive_or_raise(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"daemon exited with {self.process.returncode}; "
                               f"see {self.state_dir / 'daemon.log'}")
        if time.monotonic() > deadline:
            raise RuntimeError("daemon did not become ready within 60 s")

    def _discover(self):
        discovery = self.state_dir / "daemon.json"
        deadline = time.monotonic() + 60.0
        while not discovery.exists():
            self._alive_or_raise(deadline)
            time.sleep(POLL_SEC)
        document = json.loads(discovery.read_text())  # written by atomic rename
        return document["host"], int(document["port"])

    def _await_ready(self) -> None:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                status = self.get("/readyz")[0]
            except OSError:
                status = 0
            if status == 200:
                return
            self._alive_or_raise(deadline)
            time.sleep(POLL_SEC)

    def get(self, path: str):
        connection = HTTPConnection(self.host, self.port, timeout=30.0)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def scrape(self) -> dict:
        from repro.obs.metrics import parse_exposition

        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return parse_exposition(body.decode("utf-8"))

    def stop(self) -> None:
        """SIGTERM (graceful drain), wait; kill if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()

    def remove(self) -> None:
        shutil.rmtree(self.state_dir, ignore_errors=True)


@dataclass
class Request:
    index: int
    rid: str
    start: float
    end: float
    #: CPU seconds of the daemon (its threads and reaped children) and
    #: the client while the request was open
    cpu: float
    status: int
    cache: str
    document: dict


def run_mix(daemon: Daemon, items, order: List[int], tag: str,
            scaled: Optional[ScaledSamples] = None) -> List[Request]:
    """Send the whole mix, one request at a time, in ``order``; each
    answered request's latency also goes to ``scaled``, keyed by its slot
    in the mix (program, copy), which every pass sends alike."""
    requests: List[Request] = []
    copies: dict = {}
    connection = _connect(daemon)
    try:
        for number, index in enumerate(order):
            copy = copies[index] = copies.get(index, -1) + 1
            rid = f"{tag}-{number:04d}"
            body = json.dumps({"program": items[index].source}).encode("utf-8")
            headers = {"Content-Type": "application/json", "X-Repro-Trace": rid}
            served, client = cpu_seconds(daemon.process.pid), thread_time()
            start = perf_counter()
            try:
                connection.request("POST", "/v1/analyze", body, headers)
                response = connection.getresponse()
                status, payload = response.status, response.read()
            except (OSError, HTTPException) as exc:
                status, payload = 0, exc
            end = perf_counter()
            cpu = thread_time() - client + cpu_seconds(daemon.process.pid) - served
            document = _document(payload)
            if status == 0:
                connection.close()
                connection = _connect(daemon)
            requests.append(Request(index, rid, start, end, cpu, status,
                                    str(document.get("cache", "")), document))
            if scaled is not None and status == 200:
                scaled.add((index, copy), end - start, cpu)
    finally:
        connection.close()
    return requests


def _connect(daemon: Daemon) -> HTTPConnection:
    return HTTPConnection(daemon.host, daemon.port, timeout=REQUEST_TIMEOUT_SEC)


def _document(payload) -> dict:
    """The answer's JSON document, or an ``error`` entry saying why not."""
    if isinstance(payload, Exception):
        return {"error": f"{type(payload).__name__}: {payload}"}
    try:
        return json.loads(payload.decode("utf-8"))
    except ValueError as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _order(items) -> List[int]:
    """The mix, shuffled by the workload seed, never by the run's: the
    order decides what the daemon's cache holds at each request."""
    copies = [index for index in range(len(items)) for _ in range(SERVICE_COPIES)]
    return presentation_order(copies, SERVICE_SEED)


def probe(workload: str, seed: int) -> None:
    before, cost = probe_reading()
    items = service_items()
    _order(items)
    cpu = time.process_time() - cost  # the probe's polling for /readyz is not set-up work
    daemon = Daemon()
    try:
        ready(cpu + cpu_seconds(daemon.process.pid), before)
    finally:
        daemon.stop()
        daemon.remove()


def _tally(items, requests: List[Request], tally: Tally) -> int:
    """Record each request's answer; returns how many got the wrong class
    (a later copy that missed, or a first copy that hit)."""
    seen = set()
    misclassed = 0
    for request in sorted(requests, key=lambda r: r.start):
        name = items[request.index].name
        expected = "hit" if request.index in seen else "miss"
        seen.add(request.index)
        result = request.document.get("result")
        if request.status == 200 and isinstance(result, dict):
            tally.add(name, Answer.from_document(result))
            misclassed += request.cache != expected
        else:
            error = request.document.get("error", "")
            tally.add(name, None, error=f"HTTP {request.status} {error}".strip())
    return misclassed


def _pass(items, order, tag: str, traced: bool = False, scaled=None):
    daemon = Daemon(traced=traced)
    try:
        start = perf_counter()
        requests = run_mix(daemon, items, order, tag, scaled)
        wall = perf_counter() - start
        scrape = daemon.scrape() if traced else None
    finally:
        daemon.stop()
    return daemon, requests, wall, scrape


def timed(workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload, seed)
    items = service_items()
    order = _order(items)
    tally, scaled, wall, passes, misclassed = Tally(), ScaledSamples(), 0.0, 0, 0
    while wall < seconds:
        daemon, requests, pass_wall, _ = _pass(items, order, f"t{passes}", scaled=scaled)
        daemon.remove()
        wall += pass_wall
        passes += 1
        misclassed += _tally(items, requests, tally)
    latencies = typical(scaled.samples)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    summary = tally.check(items)
    _class_drift(summary, misclassed)
    summary.update(inputs=inputs_digest(items), passes=passes)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "answers_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "answer_p50_ms": metric(percentile(latencies, 0.5) * 1000.0, "ms"),
        "answer_p90_ms": metric(tail(latencies, 0.9, passes) * 1000.0, "ms"),
        "exact_share": metric(summary["exact_share"], "share"),
        "confirmed_edge_share": metric(summary["confirmed_edge_share"], "share"),
        "ok_share": metric(summary["ok_share"], "share"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    return {"summary": summary, "metrics": metrics}


def _class_drift(summary: dict, misclassed: int) -> None:
    if misclassed:
        summary["drift"]["<cache classes>"] = [f"{misclassed} request(s) in the wrong class"]
        summary["correct"] = False


#: counters read from the daemon's /metrics (children's counts are merged there)
SCRAPED = (
    "engine.steps", "engine.matches", "engine.match.attempts", "engine.intern.hits",
    "engine.intern.misses", "engine.worklist.dedup", "client.match.world_splits",
    "cgraph.closure.cache_hits", "cgraph.closure.full.calls",
    "cgraph.closure.incremental.calls", "cgraph.cow.materializations",
    "hsm.prove.cache_hits", "hsm.proof.attempts", "serve.journal.appends",
)


def _scraped_name(name: str) -> str:
    return "repro_" + name.replace(".", "_") + "_total"


def traced(workload: str, seed: int) -> dict:
    items = service_items()
    order = _order(items)
    tally = Tally()
    reference, requests, untraced_wall, _ = _pass(items, order, "u")
    reference.remove()
    misclassed = _tally(items, requests, tally)
    daemon, requests, wall, scrape = _pass(items, order, "r", traced=True)
    misclassed += _tally(items, requests, tally)
    try:
        dumps = [json.loads(p.read_text()) for p in daemon.state_dir.glob("bench-spans-*.json")]
    finally:
        daemon.remove()
    summary = tally.check(items)
    summary.update(inputs=inputs_digest(items), passes=2)
    _class_drift(summary, misclassed)

    totals = RecorderTotals()
    spans = []
    recorded_by_answer = {}
    for document in dumps:
        spans.extend(document["spans"])
        if "obs" in document and document["spans"]:
            totals.add_dump(document["obs"])
            recorded_by_answer[document["spans"][0]["answer"]] = document["obs"]["self"]
    for name in SCRAPED:
        totals.counters[name] = int(scrape.get(_scraped_name(name), 0))
    client_spans = [
        {"id": f"client:{r.rid}", "name": "request", "parent": None, "answer": r.rid,
         "pid": 0, "start": r.start, "end": r.end, "cache": r.cache, "program": items[r.index].name}
        for r in requests
    ]
    spans.extend(client_spans)
    adopt_orphans(spans, "request")
    with_self_times(spans)

    answers = len(requests)
    metrics = analysis_layers(spans, totals, answers)
    metrics.update(_serve_layers(spans, requests, totals))
    # the closed loop keeps its connection busy from first send to last answer
    connection_wall = max(r.end for r in requests) - min(r.start for r in requests)
    metrics.update(ledger_shares(connection_wall, spans, totals, wall, untraced_wall))
    write_json(f"{workload}-ledger.json", {
        "inputs": inputs_digest(items),
        "wall_s": wall,
        "untraced_wall_s": untraced_wall,
        "hit_stages_ms": _class_stages(spans, recorded_by_answer, "hit"),
        "miss_stages_ms": _class_stages(spans, recorded_by_answer, "miss"),
        "counters": {name: totals.counters[name] for name in SCRAPED},
        "spans": spans,
    })
    return {"summary": summary, "metrics": metrics}


def _serve_layers(spans: List[dict], requests: List[Request], totals) -> dict:
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    submits = {s["answer"]: s for s in by_name.get("serve.submit", [])}
    hit_submits = [duration(s) for s in submits.values() if s.get("status") == "hit"]
    http = [
        (r.end - r.start) - duration(submits[r.rid])
        for r in requests if r.cache == "hit" and r.rid in submits
    ]
    attempts = by_name.get("serve.attempt", [])
    ladders = {s["parent"]: duration(s) for s in by_name.get("driver.ladder", [])}
    isolation = [duration(a) - ladders[a["id"]] for a in attempts if a["id"] in ladders]
    misses = sum(1 for r in requests if r.cache == "miss")
    fingerprint = sum(duration(s) for s in by_name.get("serve.fingerprint", []))
    return {
        "serve.admission_ms": metric(mean_ms(hit_submits), "ms"),
        "serve.fingerprint_ms": metric(fingerprint * 1000.0 / len(requests), "ms"),
        "serve.cache.lookup_ms": metric(
            mean_ms([duration(s) for s in by_name.get("serve.cache.lookup", [])]), "ms"),
        "serve.cache.store_ms": metric(
            mean_ms([duration(s) for s in by_name.get("serve.cache.store", [])]), "ms"),
        "serve.http_ms": metric(mean_ms(http), "ms"),
        "serve.journal.append_ms": metric(
            mean_ms([duration(s) for s in by_name.get("serve.journal.append", [])]), "ms"),
        "serve.journal.appends_per_miss": metric(
            totals.counters["serve.journal.appends"] / misses if misses else 0.0, "count"),
        "serve.attempt_ms": metric(mean_ms([duration(s) for s in attempts]), "ms"),
        "serve.isolation_ms": metric(mean_ms(isolation), "ms"),
    }


def _class_stages(spans: List[dict], recorded_by_answer: dict, cache: str) -> dict:
    """Mean self ms per stage over the requests of one cache class."""
    chosen = {s["answer"] for s in spans if s["name"] == "request" and s.get("cache") == cache}
    stages = {}
    for span in spans:
        if span["answer"] in chosen:
            stages[span["name"]] = stages.get(span["name"], 0.0) + span["self"]
    for answer in chosen:
        for name, seconds in recorded_by_answer.get(answer, {}).items():
            stages[name] = stages.get(name, 0.0) + seconds
    return {name: seconds * 1000.0 / len(chosen) for name, seconds in sorted(stages.items())}
