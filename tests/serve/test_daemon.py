"""The service scheduler: admission, QoS clamping, caching, coalescing,
load shedding, degraded modes, recovery, and drain — all through the
in-process (inline-isolation) service, no sockets."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.checkpoint import cfg_fingerprint
from repro.core.driver import default_ladder, worst_case_runs
from repro.core.engine import EngineLimits
from repro.corpus.generator import generate, seed_stream
from repro.lang import parse, programs
from repro.lang.cfg import build_cfg
from repro.obs import recorder as obs
from repro.serve import daemon
from repro.serve.cache import compute_key
from repro.serve.daemon import (
    DEFAULT_LADDER_ID,
    TIMEOUT_GRACE_SEC,
    AnalysisService,
    AnalyzeRequest,
    ServiceConfig,
    TenantBudget,
)
from repro.serve.http import batch_entries
from repro.serve.journal import JobJournal
from repro.serve.retry import RetryPolicy


def _program(seed: int = 11) -> str:
    return generate(seed).source


def _service(tmp_path, **overrides) -> AnalysisService:
    config = ServiceConfig(
        state_dir=tmp_path / "state",
        workers=overrides.pop("workers", 1),
        isolation="inline",
        allow_test_faults=True,
        retry=overrides.pop("retry", RetryPolicy(max_retries=1, backoff_base_sec=0.01,
                                                 backoff_cap_sec=0.02)),
        **overrides,
    )
    service = AnalysisService(config)
    service.start()
    return service


@pytest.fixture
def service(tmp_path):
    svc = _service(tmp_path)
    yield svc
    svc.stop()


def _counters() -> dict:
    recorder = obs.active_recorder()
    return dict(recorder.counters) if isinstance(recorder, obs.Recorder) else {}


class TestSubmit:
    def test_accept_then_complete(self, service):
        status, job = service.submit(AnalyzeRequest(program=_program()))
        assert status == "accepted"
        assert job.wait(30)
        assert job.result["confidence"] in ("exact", "partial")
        assert job.result["rung"]

    def test_resubmit_is_a_cache_hit_observed_in_counters(self, service):
        request = AnalyzeRequest(program=_program())
        status, job = service.submit(request)
        assert status == "accepted" and job.wait(30)
        before = _counters()
        status, result = service.submit(request)
        assert status == "hit"
        assert result == job.result
        after = _counters()
        # the acceptance criterion: the hit is *visible* in obs counters
        assert after.get("serve.served_from_cache", 0) == \
            before.get("serve.served_from_cache", 0) + 1
        assert after.get("serve.accepted", 0) == before.get("serve.accepted", 0)

    def test_parse_error_is_rejected_not_queued(self, service):
        status, message = service.submit(AnalyzeRequest(program="this is not MPL ((("))
        assert status == "rejected"
        assert "parse error" in message
        assert _counters().get("serve.accepted", 0) == 0

    def test_identical_inflight_submissions_coalesce(self, tmp_path):
        service = _service(tmp_path, queue_size=8)
        try:
            source = _program(12)
            slow = AnalyzeRequest(program=source, test_fault={"kind": "sleep", "sec": 0.3})
            status, first = service.submit(slow)
            assert status == "accepted"
            status, second = service.submit(AnalyzeRequest(program=source))
            assert status == "accepted"
            assert second is first  # attached to the in-flight job
            assert _counters().get("serve.coalesced", 0) == 1
            assert first.wait(30)
        finally:
            service.stop()


def _full_path_key(service: AnalysisService, request: AnalyzeRequest) -> str:
    """The key from a full parse, CFG build and fingerprint of the text."""
    cfg_fp = cfg_fingerprint(build_cfg(parse(request.program)))
    return compute_key(cfg_fp, DEFAULT_LADDER_ID, service.effective_limits(request))


def _count_parses(monkeypatch) -> list:
    calls = []

    def counted(source):
        calls.append(source)
        return parse(source)

    monkeypatch.setattr(daemon, "parse", counted)
    return calls


class TestAdmissionDigests:
    """Admission remembers each parsed text's CFG fingerprint under the
    text's SHA-256, so a repeat is keyed without any program work."""

    def test_resubmission_hits_without_program_work(self, service, monkeypatch):
        request = AnalyzeRequest(program=_program(31))
        status, job = service.submit(request)
        assert status == "accepted" and job.wait(30)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a repeat must not redo program work")

        for name in ("parse", "build_cfg", "cfg_fingerprint"):
            monkeypatch.setattr(daemon, name, refuse)
        status, result = service.submit(request)
        assert status == "hit"
        assert result == job.result

    @pytest.mark.parametrize("body", [
        '{"program": "this is not MPL ((("}',
        '{"program": "x = 1\\ud800"}',  # JSON decodes it to a lone surrogate
    ])
    def test_unparseable_text_is_rejected_every_time(self, service, monkeypatch, body):
        request = AnalyzeRequest.from_json(json.loads(body))
        parses = _count_parses(monkeypatch)
        for _ in range(3):
            status, message = service.submit(request)
            assert status == "rejected" and "parse error" in message
        assert len(parses) == 3  # never remembered: each submission parses
        assert len(service._fingerprints) == 0

    def test_whitespace_variant_parses_and_hits_the_same_key(self, service, monkeypatch):
        source = _program(32)
        status, job = service.submit(AnalyzeRequest(program=source))
        assert status == "accepted" and job.wait(30)
        parses = _count_parses(monkeypatch)
        variant = AnalyzeRequest(program="\n" + source.replace("\n", "\n\n") + "\n")
        status, result = service.submit(variant)
        assert status == "hit" and result == job.result
        assert parses == [variant.program]
        assert service._admission_identity(variant)[0] == job.key
        assert len(parses) == 1

    def test_tenants_with_different_budgets_get_different_keys(self, tmp_path):
        service = _service(tmp_path, tenants={
            "default": TenantBudget(),
            "small": TenantBudget(name="small", deadline_sec=2.0, max_steps=100),
        })
        try:
            source = _program(33)
            wide = AnalyzeRequest(program=source)
            small = AnalyzeRequest(program=source, tenant="small")
            status, job = service.submit(wide)
            assert status == "accepted" and job.wait(30)
            key_wide, _ = service._admission_identity(wide)
            key_small, limits = service._admission_identity(small)
            assert key_wide != key_small
            assert limits.max_steps == 100
            assert key_small == _full_path_key(service, small)
            assert service.submit(small)[0] == "accepted"
        finally:
            service.stop()

    def test_map_evicts_its_oldest_entry(self, tmp_path, monkeypatch):
        monkeypatch.setattr(daemon, "CACHE_ENTRIES", 2)
        service = _service(tmp_path)
        try:
            first, second, third = (AnalyzeRequest(program=_program(seed))
                                    for seed in (34, 35, 36))
            # a repeat of ``first`` makes ``second`` the least recently used
            for request in (first, second, first, third):
                service._admission_identity(request)
            assert len(service._fingerprints) == 2
            parses = _count_parses(monkeypatch)
            service._admission_identity(first)
            service._admission_identity(third)
            assert parses == []
            service._admission_identity(second)
            assert parses == [second.program]
        finally:
            service.stop()

    def test_concurrent_admissions_keep_keys_and_bound(self, tmp_path, monkeypatch):
        """Handler threads share the map: a hit racing an eviction of the
        same entry must neither raise nor return a wrong key."""
        monkeypatch.setattr(daemon, "CACHE_ENTRIES", 3)
        service = _service(tmp_path)
        requests = [AnalyzeRequest(program=f"x = {value}") for value in range(5)]
        expected = [_full_path_key(service, request) for request in requests]
        errors = []

        def admit(seed):
            rng = random.Random(seed)
            try:
                for _ in range(1500):
                    index = rng.randrange(len(requests))
                    key, _ = service._admission_identity(requests[index])
                    if key != expected[index]:
                        errors.append(f"wrong key for text {index}")
            except Exception as exc:  # a race surfaces here
                errors.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=admit, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            service.stop()
        assert errors == []
        assert len(service._fingerprints) <= 3

    def test_remembered_key_equals_the_full_path_key(self, service):
        sources = [spec.source for spec in programs.all_specs()]
        sources += [generate(seed).source for seed in seed_stream(4242, 100)]
        assert len(sources) == 118
        for source in sources:
            request = AnalyzeRequest(program=source)
            expected = _full_path_key(service, request)
            assert service._admission_identity(request)[0] == expected  # first sighting
            assert service._admission_identity(request)[0] == expected  # remembered


#: forks one attempt on ``ring_modular`` (it answers at ``mpi-cfg``) in a
#: fresh interpreter and prints the rung and the ``repro`` modules the
#: child imported
_FORKED_ATTEMPT = """
import json, os, sys
import repro.serve.daemon as daemon
from repro.core.engine import EngineLimits
from repro.lang import programs
source = programs.get("ring_modular").source
before = set(sys.modules)
read_end, write_end = os.pipe()
pid = os.fork()
if pid == 0:
    rendered, _ = daemon._attempt(source, EngineLimits(), "default")
    added = sorted(name for name in set(sys.modules) - before if name.startswith("repro"))
    os.write(write_end, json.dumps([rendered["rung"], added]).encode())
    os._exit(0)
os.close(write_end)
with os.fdopen(read_end, "rb") as reply:
    print(reply.read().decode())
os.waitpid(pid, 0)
"""


def test_forked_attempt_imports_nothing():
    root = Path(__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-c", _FORKED_ATTEMPT],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    rung, added = json.loads(done.stdout)
    assert rung == "mpi-cfg"
    assert added == []


class TestQoS:
    def test_tenant_budgets_clamp_requests(self, tmp_path):
        service = _service(
            tmp_path,
            tenants={
                "default": TenantBudget(deadline_sec=30.0),
                "small": TenantBudget(name="small", deadline_sec=2.0,
                                      max_steps=100, max_state_bytes=1 << 20),
            },
        )
        try:
            limits = service.effective_limits(
                AnalyzeRequest(program="x", tenant="small",
                               deadline_sec=999.0, max_steps=10_000,
                               max_state_bytes=1 << 30)
            )
            assert limits.deadline_sec == 2.0
            assert limits.max_steps == 100
            assert limits.max_state_bytes == 1 << 20
            # asking for *less* than the envelope is honored
            limits = service.effective_limits(
                AnalyzeRequest(program="x", tenant="small", deadline_sec=0.5)
            )
            assert limits.deadline_sec == 0.5
        finally:
            service.stop()

    def test_different_budgets_are_different_cache_keys(self, service):
        source = _program(13)
        status, job = service.submit(AnalyzeRequest(program=source, deadline_sec=10.0))
        assert status == "accepted" and job.wait(30)
        # same program, different budget: must NOT be served the old answer
        status, _payload = service.submit(AnalyzeRequest(program=source, deadline_sec=5.0))
        assert status == "accepted"


class TestShedding:
    def test_queue_full_sheds_with_retry_after(self, tmp_path):
        service = _service(tmp_path, queue_size=1, workers=1)
        try:
            blocker = AnalyzeRequest(
                program=_program(14), test_fault={"kind": "sleep", "sec": 0.5}
            )
            status, _job = service.submit(blocker)
            assert status == "accepted"
            time.sleep(0.1)  # let the worker pick it up and block
            # distinct programs so neither coalesces with the blocker
            fills, sheds = 0, 0
            for seed in range(20, 26):
                status, payload = service.submit(AnalyzeRequest(program=_program(seed)))
                if status == "shed":
                    sheds += 1
                    assert payload["reason"] == "queue_full"
                    assert payload["retry_after_sec"] >= 1
                else:
                    fills += 1
            assert sheds >= 1
            assert _counters().get("serve.shed.queue_full", 0) == sheds
        finally:
            service.stop()

    def test_shed_jobs_are_not_resurrected_by_recovery(self, tmp_path):
        service = _service(tmp_path, queue_size=1, workers=1)
        state_dir = service.state_dir
        try:
            blocker = AnalyzeRequest(
                program=_program(14), test_fault={"kind": "sleep", "sec": 0.5}
            )
            service.submit(blocker)
            time.sleep(0.1)
            shed_any = False
            for seed in range(30, 36):
                status, _ = service.submit(AnalyzeRequest(program=_program(seed)))
                shed_any = shed_any or status == "shed"
            assert shed_any
        finally:
            service.drain(10)
        pending, _done = JobJournal(state_dir / "journal.jsonl").fold()
        assert pending == {}  # every journaled job is accounted for

    def test_draining_service_refuses_new_work(self, service):
        service.begin_drain()
        status, payload = service.submit(AnalyzeRequest(program=_program()))
        assert status == "shed"
        assert payload["reason"] == "draining"


class TestDegradedModes:
    def test_pressure_degrades_to_baseline_ladder(self, tmp_path):
        # degrade_at=0 puts the service permanently "under pressure"
        service = _service(tmp_path, degrade_at=0.0)
        try:
            status, job = service.submit(AnalyzeRequest(program=_program(15)))
            assert status == "accepted" and job.wait(30)
            assert job.result["degraded"] == "overload"
            assert job.result["rung"] == "mpi-cfg"
            # degraded answers are NOT cached: a later calm submission
            # gets the full-precision path
            status, _ = service.submit(AnalyzeRequest(program=_program(15)))
            assert status == "accepted"
        finally:
            service.stop()

    def test_retries_exhausted_still_answers_with_baseline(self, tmp_path):
        service = _service(
            tmp_path, retry=RetryPolicy(max_retries=0, backoff_base_sec=0.01)
        )
        try:
            status, job = service.submit(
                AnalyzeRequest(program=_program(16), test_fault={"kind": "crash"})
            )
            assert status == "accepted"
            assert job.wait(30)
            assert "retries-exhausted" in job.result["degraded"]
            assert any(
                line.startswith("RETRY_EXHAUSTED")
                for line in job.result["service_diagnostics"]
            )
            assert job.result["rung"] == "mpi-cfg"  # a real (wide) answer
            assert _counters().get("serve.degraded.terminal", 0) == 1
        finally:
            service.stop()

    def test_attempt_watchdog_covers_every_rung_of_the_ladder(self, service):
        # the default ladder's worst climb is four runs: cartesian, the
        # escalated rung warm-started and then cold, and mpi-cfg
        limits = EngineLimits(deadline_sec=2.0)
        grace = TIMEOUT_GRACE_SEC
        assert worst_case_runs(default_ladder(limits)) == 4
        assert service._attempt_timeout(limits, "default") == 2.0 * 4 + grace
        assert service._attempt_timeout(limits, "baseline") == 2.0 + grace

    def test_faults_require_opt_in(self, tmp_path):
        service = _service(tmp_path)
        service.config.allow_test_faults = False
        try:
            status, job = service.submit(
                AnalyzeRequest(program=_program(17), test_fault={"kind": "crash"})
            )
            assert status == "accepted" and job.wait(30)
            assert "degraded" not in job.result  # the fault was stripped
        finally:
            service.stop()


class TestRecovery:
    def test_journaled_pending_jobs_run_on_startup(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        journal = JobJournal(state_dir / "journal.jsonl")
        journal.append(
            {"event": "accepted", "job": "orphan01", "kind": "analyze",
             "request": {"program": _program(18)}}
        )
        journal.close()
        service = AnalysisService(
            ServiceConfig(state_dir=state_dir, workers=1, isolation="inline")
        )
        service.start()
        try:
            job = service.get_job("orphan01")
            assert job is not None
            assert job.wait(30)
            assert job.result["confidence"] in ("exact", "partial")
            assert _counters().get("serve.recovered_jobs", 0) == 1
        finally:
            service.stop()

    def test_done_jobs_stay_addressable_after_restart(self, tmp_path):
        service = _service(tmp_path)
        status, job = service.submit(AnalyzeRequest(program=_program(19)))
        assert status == "accepted" and job.wait(30)
        job_id, result = job.id, job.result
        service.stop()
        reborn = AnalysisService(
            ServiceConfig(state_dir=tmp_path / "state", workers=1, isolation="inline")
        )
        reborn.start()
        try:
            replay = reborn.get_job(job_id)
            assert replay is not None and replay.done.is_set()
            assert replay.result == result
        finally:
            reborn.stop()

    def test_unparseable_journal_records_are_dropped(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        journal = JobJournal(state_dir / "journal.jsonl")
        journal.append(
            {"event": "accepted", "job": "bad01", "kind": "analyze",
             "request": {"program": 42}}
        )
        journal.close()
        service = AnalysisService(
            ServiceConfig(state_dir=state_dir, workers=1, isolation="inline")
        )
        service.start()
        try:
            assert service.get_job("bad01") is None
            assert _counters().get("serve.recovery_dropped", 0) == 1
        finally:
            service.stop()


    def test_pending_batch_record_of_an_older_daemon_ends(self, tmp_path):
        """The multi-program job kind is gone: its pending record is
        counted as dropped and journaled done, never re-run or fatal."""
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        journal = JobJournal(state_dir / "journal.jsonl")
        journal.append(
            {"event": "accepted", "job": "batch01", "kind": "batch",
             "batch": [{"program": _program(20)}]}
        )
        journal.close()
        service = AnalysisService(
            ServiceConfig(state_dir=state_dir, workers=1, isolation="inline")
        )
        service.start()
        try:
            assert service.get_job("batch01") is None
            assert _counters().get("serve.recovery_dropped", 0) == 1
        finally:
            service.stop()
        pending, done = JobJournal(state_dir / "journal.jsonl").fold()
        assert pending == {} and done["batch01"]["dropped"] is True


class TestBatch:
    """A batch is a loop over ``submit`` plus one shared wait budget."""

    def test_batch_mixes_hits_and_misses(self, service):
        source_a, source_b = _program(21), _program(22)
        status, job = service.submit(AnalyzeRequest(program=source_a))
        assert status == "accepted" and job.wait(30)
        requests = [AnalyzeRequest(program=source_a), AnalyzeRequest(program=source_b),
                    AnalyzeRequest(program="((broken")]
        results = batch_entries([service.submit(request) for request in requests], 60)
        assert results[0]["cache"] == "hit"
        assert results[1]["cache"] == "miss"
        assert "error" in results[2]
        # the batch miss is now cached for single submissions too
        status, _ = service.submit(AnalyzeRequest(program=source_b))
        assert status == "hit"

    def test_all_hit_batch_answers_inline(self, service):
        source = _program(23)
        status, job = service.submit(AnalyzeRequest(program=source))
        assert status == "accepted" and job.wait(30)
        jobs = len(service.jobs)
        results = batch_entries([service.submit(AnalyzeRequest(program=source))], 0.0)
        assert results == [{"cache": "hit", "result": job.result}]
        assert len(service.jobs) == jobs


class TestDrain:
    def test_drain_completes_accepted_work(self, tmp_path):
        service = _service(tmp_path, queue_size=8)
        jobs = []
        for seed in range(40, 44):
            status, job = service.submit(AnalyzeRequest(program=_program(seed)))
            assert status == "accepted"
            jobs.append(job)
        assert service.drain(timeout=60)
        assert all(job.done.is_set() for job in jobs)
        pending, _done = JobJournal(service.state_dir / "journal.jsonl").fold()
        assert pending == {}

    def test_stats_document_shape(self, service):
        service.submit(AnalyzeRequest(program=_program(45)))
        stats = service.stats()
        assert {"queue_depth", "jobs", "cache", "counters"} <= set(stats)
        assert "breaker" not in stats
        json.dumps(stats)  # must be JSON-serializable for /stats
