"""The service scheduler: admission, QoS clamping, caching, coalescing,
load shedding, degraded modes, recovery, and drain — all through the
in-process (inline-isolation) service, no sockets."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.driver import default_ladder, worst_case_runs
from repro.core.engine import EngineLimits
from repro.corpus.generator import generate
from repro.obs import recorder as obs
from repro.serve.daemon import (
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
