"""Kill-and-restart: SIGKILL the real daemon at every phase of a job's
life and prove that no accepted job is ever lost.

Each scenario runs an actual ``repro serve`` subprocess (process
isolation, real HTTP, real fsyncs), SIGKILLs it at a chosen phase —
after ``accepted`` hits the journal, while the job is ``started``, and
after ``done`` — restarts it on the same state directory, and verifies:

* the in-flight job is re-queued, finishes, and its result is served
  under its *original* job id;
* a resubmission of the completed program is a cache hit (verified
  through the daemon's own obs counters via ``/stats``);
* completed results survive the restart byte-for-byte.

The hang during the "started" phase is deterministic: the job carries a
``hang_if_missing`` fault directive, so the first daemon's worker blocks
until the test touches the marker file — which it only does after the
restart.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.corpus.generator import generate

REPO_ROOT = Path(__file__).resolve().parents[2]


class Daemon:
    """A real ``repro serve`` subprocess on a shared state directory."""

    def __init__(self, state_dir: Path):
        self.state_dir = state_dir
        self.process = None
        self.base = None

    def start(self, extra_args=()):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--state-dir", str(self.state_dir),
                "--port", "0", "--workers", "1",
                "--allow-test-faults", "--max-retries", "0",
                "--job-timeout", "60",
                *extra_args,
            ],
            env=env,
            cwd=str(REPO_ROOT),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        discovery = self.state_dir / "daemon.json"
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if discovery.exists():
                try:
                    doc = json.loads(discovery.read_text())
                except ValueError:
                    time.sleep(0.05)
                    continue
                if doc.get("pid") == self.process.pid:
                    self.base = f"http://{doc['host']}:{doc['port']}"
                    try:
                        self.get("/healthz")
                        return self
                    except OSError:
                        pass
            if self.process.poll() is not None:
                raise RuntimeError("daemon exited during startup")
            time.sleep(0.05)
        raise RuntimeError("daemon did not come up")

    def sigkill(self):
        self.process.send_signal(signal.SIGKILL)
        self.process.wait(timeout=10)

    def sigterm(self):
        self.process.send_signal(signal.SIGTERM)
        return self.process.wait(timeout=30)

    def stop(self):
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)

    # -- tiny HTTP client ------------------------------------------------------

    def get(self, path: str):
        with urllib.request.urlopen(self.base + path, timeout=30) as response:
            return response.status, json.loads(response.read())

    def post(self, path: str, document: dict):
        request = urllib.request.Request(
            self.base + path, data=json.dumps(document).encode(),
            headers={"Content-Type": "application/json"}, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def journal_events(self):
        path = self.state_dir / "journal.jsonl"
        if not path.exists():
            return []
        events = []
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                pass
        return events

    def wait_for_event(self, event: str, job_id: str, timeout: float = 30.0) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for record in self.journal_events():
                if record.get("event") == event and record.get("job") == job_id:
                    return True
            time.sleep(0.05)
        return False

    def poll_job(self, job_id: str, timeout: float = 60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            code, body = self.get(f"/v1/jobs/{job_id}")
            if code == 200:
                return body
            time.sleep(0.1)
        raise AssertionError(f"job {job_id} did not complete in {timeout}s")


def _processes_naming(text: str) -> list:
    """Pids whose command line holds ``text`` (a forked child keeps its
    parent's argv, so a daemon's attempt children name its state dir)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue
        if text.encode() in cmdline:
            pids.append(int(entry.name))
    return pids


@pytest.fixture
def daemon(tmp_path):
    instance = Daemon(tmp_path / "state")
    yield instance
    instance.stop()


def test_sigkill_while_job_runs_then_recover(daemon):
    """Phase: after ``started``.  The worker is wedged on the fault; the
    daemon dies; the restarted daemon replays the journal and finishes
    the job under its original id."""
    marker = daemon.state_dir / "unblock.marker"
    daemon.start()
    source = generate(101).source
    code, body = daemon.post(
        "/v1/analyze",
        {
            "program": source, "wait": False,
            "test_fault": {"kind": "hang_if_missing",
                           "path": str(marker), "sec": 45},
        },
    )
    assert code == 202
    job_id = body["job"]
    assert daemon.wait_for_event("started", job_id)
    daemon.sigkill()

    marker.touch()  # the replayed execution must not hang
    daemon.start()
    result = daemon.poll_job(job_id)
    assert result["state"] == "done"
    assert result["result"]["confidence"] in ("exact", "partial")

    # resubmitting the recovered program is a cache hit, visible in the
    # daemon's own counters
    code, body = daemon.post("/v1/analyze", {"program": source})
    assert code == 200 and body["cache"] == "hit"
    _code, stats = daemon.get("/stats")
    assert stats["counters"].get("serve.served_from_cache", 0) >= 1
    assert stats["counters"].get("serve.recovered_jobs", 0) >= 1


def test_sigkill_after_accept_before_start(daemon):
    """Phase: between ``accepted`` and ``started``.  A one-worker daemon
    wedged on a hanging job accumulates a queued second job; the SIGKILL
    lands while that job has only its accepted record."""
    marker = daemon.state_dir / "unblock.marker"
    daemon.start()
    blocker = generate(102).source
    queued = generate(103).source
    daemon.post(
        "/v1/analyze",
        {"program": blocker, "wait": False,
         "test_fault": {"kind": "hang_if_missing", "path": str(marker), "sec": 45}},
    )
    code, body = daemon.post("/v1/analyze", {"program": queued, "wait": False})
    assert code == 202
    queued_id = body["job"]
    assert daemon.wait_for_event("accepted", queued_id)
    assert not any(
        r.get("event") == "started" and r.get("job") == queued_id
        for r in daemon.journal_events()
    )
    daemon.sigkill()
    if Path("/proc").is_dir():
        # the wedged attempt child dies with the daemon that forked it
        deadline = time.monotonic() + 5
        while _processes_naming(str(daemon.state_dir)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _processes_naming(str(daemon.state_dir)) == []

    marker.touch()
    daemon.start()
    result = daemon.poll_job(queued_id, timeout=90)
    assert result["state"] == "done"
    assert result["result"]["confidence"] in ("exact", "partial")


def test_sigkill_after_done_keeps_result_and_cache(daemon):
    """Phase: after ``done``.  Completed results and their cache entries
    survive the crash byte-for-byte."""
    daemon.start()
    source = generate(104).source
    code, body = daemon.post("/v1/analyze", {"program": source})
    assert code == 200 and body["cache"] == "miss"
    job_id, result = body["job"], body["result"]
    daemon.sigkill()

    daemon.start()
    replay = daemon.poll_job(job_id, timeout=10)
    assert replay["result"] == result
    code, body = daemon.post("/v1/analyze", {"program": source})
    assert code == 200 and body["cache"] == "hit"
    assert body["result"] == result


def test_sigterm_drains_gracefully(daemon):
    """SIGTERM (not a crash): accepted work finishes, the journal's
    pending set empties, the process exits 0, readyz flips first."""
    daemon.start()
    source = generate(105).source
    code, body = daemon.post("/v1/analyze", {"program": source, "wait": False})
    assert code == 202
    assert daemon.sigterm() == 0
    events = daemon.journal_events()
    done = {r["job"] for r in events if r.get("event") == "done"}
    accepted = {r["job"] for r in events if r.get("event") == "accepted"}
    assert accepted <= done  # nothing accepted was abandoned
    assert not (daemon.state_dir / "daemon.json").exists()


def test_watchdog_timeout_ends_the_attempt_at_once(daemon):
    """A timed-out attempt child is terminated, not left to run the
    SIGTERM drain handler it inherited from the daemon: the degraded
    answer comes at the timeout, not after ``join``'s 5 s grace."""
    daemon.start(extra_args=("--job-timeout", "1"))
    start = time.monotonic()
    code, body = daemon.post(
        "/v1/analyze",
        {"program": "x = 1", "test_fault": {"kind": "sleep", "sec": 30}},
    )
    elapsed = time.monotonic() - start
    assert code == 200
    assert body["result"]["degraded"].startswith("retries-exhausted")
    assert elapsed < 4
