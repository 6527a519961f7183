"""The analysis service scheduler: admission control, QoS budgets,
crash-safe execution, retry/backoff, and graceful drain.

This is the long-running core behind ``repro serve``.  The HTTP layer
(:mod:`repro.serve.http`) is a thin translation onto this class; every
robustness property lives here so it can be tested without sockets.

Life of a job
-------------

1. **Admission** (:meth:`AnalysisService.submit`): parse the program
   (a parse error is the client's bug — rejected immediately, never
   queued), clamp the requested budgets to the tenant's QoS envelope,
   compute the content-addressed cache key.  A cache hit returns the
   stored result in O(1) without touching the queue.  A key already
   queued/running *coalesces*: the duplicate attaches to the in-flight
   job instead of doubling the work.  Otherwise admission is
   journal-first — the ``accepted`` record (with the full request) is
   fsynced to the job journal *before* the job enters the bounded
   queue, so an accepted job survives any crash.  A full queue sheds
   the request (the HTTP layer turns that into 429 + Retry-After); a
   draining daemon refuses new work (503).
2. **Execution** (worker threads): each attempt runs the precision
   ladder in a disposable **worker process** with a watchdog timeout —
   a crashed or hung attempt can never take the daemon down or wedge a
   worker thread.  Transient faults (worker lost, watchdog fired) are
   retried with exponential backoff + full jitter, bounded by the retry
   policy.  Per-rung circuit breakers track rungs that keep failing; their
   state is reported in ``/stats`` and ``/metrics`` only and never skips
   a rung, so an answer never depends on the history of earlier jobs.
   When the queue is above the pressure threshold, new executions run
   only the cheap baseline rung: a degraded-but-sound answer beats a
   timeout.
3. **Completion**: the rendered result is journaled (``done``), stored
   in the result cache (only clean, non-degraded results), and every
   waiter — including coalesced duplicates — is released.  If retries
   exhaust, the job still completes with an inline baseline answer
   carrying a ``RETRY_EXHAUSTED`` service diagnostic: every accepted
   job terminates with an answer, never a hang.

Recovery replays the journal on startup: accepted-but-not-done jobs are
re-queued (at-least-once; the cache makes re-execution cheap), done
records stay addressable, and the journal is compacted.
"""

from __future__ import annotations

import json
import os
import queue
import random
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import diagnostics
from repro.core.checkpoint import Snapshot, cfg_fingerprint
from repro.core.driver import (
    analyze_batch,
    analyze_with_fallback,
    baseline_ladder,
    default_ladder,
    fork_context,
)
from repro.core.engine import EngineLimits
from repro.faults import plane as faults
from repro.lang import parse
from repro.lang.cfg import build_cfg
from repro.lang.parser import ParseError
from repro.obs import context, slog
from repro.obs import recorder as obs
from repro.serve.cache import ResultCache, compute_key, render_report
from repro.serve.journal import JobJournal
from repro.serve.retry import CircuitBreaker, RetryPolicy, TransientJobError

#: ladder identifier baked into cache keys (rung names, in order)
DEFAULT_LADDER_ID = "cartesian>cartesian-escalated>simple-symbolic>mpi-cfg"
BASELINE_LADDER_ID = "mpi-cfg"


# -- requests and QoS ----------------------------------------------------------


@dataclass(frozen=True)
class TenantBudget:
    """Per-tenant QoS envelope: requested budgets are clamped into it."""

    name: str = "default"
    #: hard per-job wall-clock ceiling (also the default when unrequested)
    deadline_sec: float = 30.0
    #: retained-state ceiling per job (None: unlimited)
    max_state_bytes: Optional[int] = None
    #: engine-step ceiling per job
    max_steps: int = 20_000


@dataclass(frozen=True)
class AnalyzeRequest:
    """One submission: a program plus the budgets it asks for."""

    program: str
    tenant: str = "default"
    deadline_sec: Optional[float] = None
    max_steps: Optional[int] = None
    max_state_bytes: Optional[int] = None
    #: fault-injection hook for crash tests; honored only when the
    #: service was started with ``allow_test_faults=True``
    test_fault: Optional[dict] = None

    def to_json(self) -> dict:
        doc = {"program": self.program, "tenant": self.tenant}
        if self.deadline_sec is not None:
            doc["deadline_sec"] = self.deadline_sec
        if self.max_steps is not None:
            doc["max_steps"] = self.max_steps
        if self.max_state_bytes is not None:
            doc["max_state_bytes"] = self.max_state_bytes
        if self.test_fault is not None:
            doc["test_fault"] = self.test_fault
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "AnalyzeRequest":
        if not isinstance(doc, dict) or not isinstance(doc.get("program"), str):
            raise ValueError("request must be an object with a 'program' string")
        return cls(
            program=doc["program"],
            tenant=str(doc.get("tenant", "default")),
            deadline_sec=doc.get("deadline_sec"),
            max_steps=doc.get("max_steps"),
            max_state_bytes=doc.get("max_state_bytes"),
            test_fault=doc.get("test_fault"),
        )


@dataclass
class ServiceConfig:
    """Everything tunable about the service."""

    state_dir: Path
    workers: int = 2
    queue_size: int = 64
    #: queue fill fraction above which new executions degrade to the
    #: baseline-only ladder (the cheap rung of the QoS story)
    degrade_at: float = 0.75
    #: "process" isolates each attempt in a disposable worker process
    #: (production); "inline" runs in the worker thread (tests, and the
    #: in-process bench harness)
    isolation: str = "process"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker_threshold: int = 3
    breaker_cooldown_sec: float = 30.0
    #: Retry-After seconds advertised on shed responses
    retry_after_sec: int = 1
    #: extra seconds on top of the ladder's worst-case deadline before
    #: the watchdog declares an attempt hung
    timeout_grace_sec: float = 5.0
    #: absolute per-attempt watchdog override (None: derived from limits)
    job_timeout_sec: Optional[float] = None
    #: process-pool width handed to ``analyze_batch`` for batch jobs
    batch_jobs: int = 1
    cache_entries: int = 4096
    allow_test_faults: bool = False
    tenants: Dict[str, TenantBudget] = field(default_factory=dict)

    def budget_for(self, tenant: str) -> TenantBudget:
        return self.tenants.get(tenant) or self.tenants.get("default") or TenantBudget()


@dataclass
class Job:
    """One admitted unit of work (a single program or a batch)."""

    id: str
    kind: str  # "analyze" | "batch"
    request: Optional[AnalyzeRequest] = None
    batch: Optional[List[AnalyzeRequest]] = None
    key: str = ""
    cfg_fp: str = ""
    limits: Optional[EngineLimits] = None
    state: str = "queued"  # queued | running | done
    result: Optional[dict] = None
    attempts: int = 0
    done: threading.Event = field(default_factory=threading.Event)
    #: trace context (:meth:`TraceContext.to_dict`) minted at admission;
    #: rides the journal so a recovered job keeps its request identity
    trace: Optional[dict] = None
    #: admission wall-clock, for the per-tenant latency series
    created: float = field(default_factory=time.time)
    #: streaming subscribers: queues fed every progress/diagnostic/result
    #: event of this job (attached at admission, before execution starts)
    subscribers: List["queue.Queue"] = field(default_factory=list)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self.done.wait(timeout)

    def subscribe(self) -> "queue.Queue":
        subscriber: "queue.Queue" = queue.Queue()
        self.subscribers.append(subscriber)
        return subscriber

    def publish(self, event: dict) -> None:
        for subscriber in list(self.subscribers):
            try:
                subscriber.put_nowait(event)
            except queue.Full:  # pragma: no cover - unbounded by default
                pass

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.get("trace") if isinstance(self.trace, dict) else None

    def status(self) -> dict:
        doc = {"job": self.id, "state": self.state, "kind": self.kind}
        if self.result is not None:
            doc["result"] = self.result
        return doc


# -- worker-process attempt execution -----------------------------------------


def _apply_test_fault(fault: Optional[dict]) -> None:
    """Honor a fault-injection directive inside the worker process.

    ``{"kind": "crash"}`` kills the worker outright (SIGKILL-equivalent:
    ``os._exit``, no cleanup).  ``{"kind": "hang_if_missing", "path": p}``
    hangs unless the marker file exists — a crash test restarts the
    daemon, touches the marker, and watches the replayed job succeed.
    ``{"kind": "sleep", "sec": s}`` delays, for queue-pressure tests.
    """
    if not fault:
        return
    kind = fault.get("kind")
    if kind == "crash":
        os._exit(3)
    elif kind == "hang_if_missing":
        if not Path(str(fault.get("path", ""))).exists():
            time.sleep(float(fault.get("sec", 600.0)))
    elif kind == "sleep":
        time.sleep(float(fault.get("sec", 0.1)))


def _ladder(ladder_kind: str, limits: EngineLimits):
    """The rungs an attempt of ``ladder_kind`` may climb."""
    return baseline_ladder(limits) if ladder_kind == "baseline" else default_ladder(limits)


def _attempt_child(
    conn, source, limits, ladder_kind, resume_payload, capture, fault,
    trace_ctx=None, trace_sink=None, stream=False,
):
    """Worker-process body: run the ladder, ship a JSON-plain reply.

    Everything sent back is plain dicts/lists/scalars, so the reply
    never trips on pickling a domain object, and the parent can journal
    and cache it as-is.  ``trace_ctx``/``trace_sink`` re-establish the
    request's trace context in this process (its spans land in a shard
    file of its own); with ``stream`` the ladder's progress events are
    forwarded over the pipe as ``("progress", event)`` messages ahead of
    the final 4-tuple reply.
    """
    try:
        _apply_test_fault(fault)
        if trace_sink:
            obs.configure_sink(trace_sink, "worker")
        recorder = obs.Recorder() if capture else None
        progress = None
        if stream:
            def progress(event, _conn=conn):
                try:
                    _conn.send(("progress", dict(event)))
                except Exception:  # a dead pipe must not kill the attempt
                    pass
        with context.bound(
            trace=context.TraceContext.from_dict(trace_ctx), recorder=recorder
        ), obs.span("serve.attempt", ladder=ladder_kind):
            program = parse(source)
            ladder = _ladder(ladder_kind, limits)
            resume = Snapshot(payload=resume_payload) if resume_payload else None
            report = analyze_with_fallback(
                program, limits=limits, ladder=ladder, resume=resume,
                progress=progress,
            )
            rendered = render_report(report)
            snap = getattr(report.result, "snapshot", None)
            snapshot_payload = snap.payload if snap is not None else None
            counters = dict(recorder.counters) if capture else None
        conn.send(("ok", rendered, snapshot_payload, counters))
    except BaseException as exc:  # the reply channel must never go silent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}", None, None))
        except Exception:
            pass
    finally:
        try:
            conn.close()
        except Exception:
            pass


# -- the service ---------------------------------------------------------------


class AnalysisService:
    """The scheduler: owns the queue, the cache, the journal, the
    workers, and every robustness policy.  Start with :meth:`start`,
    stop with :meth:`drain` (graceful) or :meth:`stop` (immediate)."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.state_dir = Path(config.state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.cache = ResultCache(self.state_dir / "cache", max_entries=config.cache_entries)
        self.journal = JobJournal(self.state_dir / "journal.jsonl")
        self.queue: "queue.Queue[Job]" = queue.Queue(maxsize=config.queue_size)
        self.breaker = CircuitBreaker(
            threshold=config.breaker_threshold,
            cooldown_sec=config.breaker_cooldown_sec,
        )
        self.jobs: Dict[str, Job] = {}
        #: cache key -> in-flight job, for request coalescing
        self._inflight: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._threads: List[threading.Thread] = []
        self._rng = random.Random()
        self.started_at: Optional[float] = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Recover journaled work, then start the worker threads.

        Installs a process-global *locked* recorder if observability is
        not already enabled, so concurrent service threads always have a
        thread-safe shared recorder to merge into.
        """
        if not obs.enabled():
            obs.enable(obs.Recorder(locked=True))
        obs.configure_sink(self.state_dir / "traces", "daemon")
        self.started_at = time.time()
        self._recover()
        for index in range(max(1, self.config.workers)):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
            )
            thread.start()
            self._threads.append(thread)
        slog.info(
            "serve.started",
            workers=len(self._threads),
            queue_size=self.config.queue_size,
            state_dir=str(self.state_dir),
        )

    def _recover(self) -> None:
        """Replay the journal: re-queue accepted-but-unfinished jobs,
        re-index completed ones, compact."""
        pending, done = self.journal.fold()
        for job_id, record in done.items():
            job = Job(id=job_id, kind=str(record.get("kind", "analyze")), state="done")
            job.result = record.get("result")
            job.done.set()
            self.jobs[job_id] = job
        requeued = 0
        for job_id, record in sorted(pending.items(), key=lambda kv: kv[1].get("seq", 0)):
            job = self._rebuild_job(job_id, record)
            if job is None:
                continue
            self.jobs[job_id] = job
            if job.key:
                self._inflight[job.key] = job
            try:
                self.queue.put_nowait(job)
            except queue.Full:
                # more journaled work than queue slots: finish inline with
                # the baseline so recovery still terminates every job
                self._complete_degraded(job, "recovery-overflow")
                continue
            requeued += 1
        self.journal.compact()
        if requeued or done:
            obs.incr("serve.recovered_jobs", requeued)
            slog.info("serve.recovered", requeued=requeued, completed=len(done))

    def _rebuild_job(self, job_id: str, record: dict) -> Optional[Job]:
        kind = str(record.get("kind", "analyze"))
        try:
            if kind == "batch":
                batch = [AnalyzeRequest.from_json(doc) for doc in record.get("batch", [])]
                if not batch:
                    return None
                return Job(id=job_id, kind="batch", batch=batch)
            request = AnalyzeRequest.from_json(record.get("request", {}))
            key, cfg_fp, limits = self._admission_identity(request)
            shipped = record.get("trace")
            return Job(
                id=job_id, kind="analyze", request=request,
                key=key, cfg_fp=cfg_fp, limits=limits,
                trace=shipped if isinstance(shipped, dict) else None,
            )
        except (ValueError, ParseError):
            obs.incr("serve.recovery_dropped")
            return None

    def begin_drain(self) -> None:
        """Stop admitting; already-accepted work keeps running."""
        if not self._draining.is_set():
            self._draining.set()
            slog.info("serve.draining")

    def drain(self, timeout: float = 30.0) -> bool:
        """Graceful shutdown: refuse new work, finish the queue, stop.

        Returns True when every accepted job completed in time.  Jobs
        still unfinished at the deadline stay journaled — the next
        daemon finishes them.
        """
        self.begin_drain()
        deadline = time.monotonic() + timeout
        clean = True
        for job in list(self.jobs.values()):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not job.wait(remaining):
                if not job.done.is_set():
                    clean = False
        self.stop()
        return clean

    def stop(self) -> None:
        self._draining.set()
        self._stopped.set()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self.journal.close()
        slog.info("serve.stopped")

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    # -- admission -------------------------------------------------------------

    def effective_limits(self, request: AnalyzeRequest) -> EngineLimits:
        """The request's budgets clamped into its tenant's QoS envelope."""
        budget = self.config.budget_for(request.tenant)
        deadline = budget.deadline_sec
        if request.deadline_sec is not None:
            deadline = min(float(request.deadline_sec), budget.deadline_sec)
        max_steps = budget.max_steps
        if request.max_steps is not None:
            max_steps = min(int(request.max_steps), budget.max_steps)
        max_state = budget.max_state_bytes
        if request.max_state_bytes is not None:
            max_state = (
                int(request.max_state_bytes)
                if budget.max_state_bytes is None
                else min(int(request.max_state_bytes), budget.max_state_bytes)
            )
        return EngineLimits(
            max_steps=max_steps, deadline_sec=deadline, max_state_bytes=max_state
        )

    def _admission_identity(self, request: AnalyzeRequest) -> Tuple[str, str, EngineLimits]:
        """Parse + fingerprint + key.  Raises ParseError for client bugs."""
        program = parse(request.program)
        cfg = build_cfg(program)
        cfg_fp = cfg_fingerprint(cfg)
        limits = self.effective_limits(request)
        key = compute_key(cfg_fp, DEFAULT_LADDER_ID, limits)
        return key, cfg_fp, limits

    def submit(self, request: AnalyzeRequest, subscriber=None) -> Tuple[str, object]:
        """Admit one request.

        Returns one of::

            ("hit", result_document)      # O(1) cache hit
            ("accepted", Job)             # queued (or coalesced onto an
                                          # identical in-flight job)
            ("rejected", message)         # parse error — client bug
            ("shed", info)                # queue full or draining

        ``subscriber`` (a queue) is attached to the job *at admission*,
        inside the lock, so a streaming client observes every event the
        execution emits — subscribing after submit would race the worker.
        The trace bound to the calling thread (if any) becomes the job's.
        """
        if request.test_fault is not None and not self.config.allow_test_faults:
            request = replace(request, test_fault=None)
        span_ctx = context.current().trace
        try:
            key, cfg_fp, limits = self._admission_identity(request)
        except ParseError as exc:
            obs.incr("serve.rejected")
            return "rejected", f"parse error: {exc}"
        entry = self.cache.lookup(key)
        if entry is not None:
            obs.incr("serve.served_from_cache")
            return "hit", entry["result"]
        if self._draining.is_set():
            obs.incr("serve.shed.draining")
            return "shed", {"reason": "draining", "retry_after_sec": self.config.retry_after_sec}
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None and not inflight.done.is_set():
                obs.incr("serve.coalesced")
                if subscriber is not None:
                    inflight.subscribers.append(subscriber)
                return "accepted", inflight
            job = Job(
                id=uuid.uuid4().hex[:12], kind="analyze", request=request,
                key=key, cfg_fp=cfg_fp, limits=limits,
                trace=span_ctx.to_dict() if span_ctx is not None else None,
            )
            if subscriber is not None:
                job.subscribers.append(subscriber)
            # journal-first: the 202 promise must survive a SIGKILL that
            # lands before the queue drains
            accepted_record = {
                "event": "accepted",
                "job": job.id,
                "kind": "analyze",
                "seq": time.time(),
                "request": request.to_json(),
            }
            if job.trace:
                accepted_record["trace"] = job.trace
            self.journal.append(accepted_record)
            try:
                if faults.check("daemon.queue.overflow") is not None:
                    raise queue.Full
                self.queue.put_nowait(job)
            except queue.Full:
                # shed *after* journaling would strand the record; mark it
                # done-as-shed so recovery does not resurrect shed work
                self.journal.append(
                    {"event": "done", "job": job.id, "kind": "analyze",
                     "result": None, "shed": True}
                )
                obs.incr("serve.shed.queue_full")
                return "shed", {
                    "reason": "queue_full",
                    "retry_after_sec": self.config.retry_after_sec,
                }
            self.jobs[job.id] = job
            self._inflight[key] = job
        obs.incr("serve.accepted")
        return "accepted", job

    def submit_batch(self, requests: List[AnalyzeRequest]) -> Tuple[str, object]:
        """Admit a batch: cached items are answered inline; the misses
        become one queued job executed through ``driver.analyze_batch``."""
        if self._draining.is_set():
            obs.incr("serve.shed.draining")
            return "shed", {"reason": "draining", "retry_after_sec": self.config.retry_after_sec}
        prelim: List[Optional[dict]] = []
        misses: List[AnalyzeRequest] = []
        for request in requests:
            if request.test_fault is not None and not self.config.allow_test_faults:
                request = replace(request, test_fault=None)
            try:
                key, _cfg_fp, _limits = self._admission_identity(request)
            except ParseError as exc:
                prelim.append({"error": f"parse error: {exc}"})
                continue
            entry = self.cache.lookup(key)
            if entry is not None:
                obs.incr("serve.served_from_cache")
                prelim.append({"cache": "hit", "result": entry["result"]})
            else:
                prelim.append(None)
                misses.append(request)
        if not misses:
            return "hit", {"results": prelim}
        span_ctx = context.current().trace
        job = Job(
            id=uuid.uuid4().hex[:12], kind="batch", batch=misses,
            trace=span_ctx.to_dict() if span_ctx is not None else None,
        )
        job.result = None
        job._prelim = prelim  # filled result skeleton; misses in order
        with self._lock:
            self.journal.append(
                {
                    "event": "accepted",
                    "job": job.id,
                    "kind": "batch",
                    "seq": time.time(),
                    "batch": [request.to_json() for request in misses],
                }
            )
            try:
                self.queue.put_nowait(job)
            except queue.Full:
                self.journal.append(
                    {"event": "done", "job": job.id, "kind": "batch",
                     "result": None, "shed": True}
                )
                obs.incr("serve.shed.queue_full")
                return "shed", {
                    "reason": "queue_full",
                    "retry_after_sec": self.config.retry_after_sec,
                }
            self.jobs[job.id] = job
        obs.incr("serve.accepted_batch")
        return "accepted", job

    def get_job(self, job_id: str) -> Optional[Job]:
        return self.jobs.get(job_id)

    # -- execution -------------------------------------------------------------

    def _worker_loop(self) -> None:
        while not self._stopped.is_set():
            try:
                job = self.queue.get(timeout=0.2)
            except queue.Empty:
                continue
            try:
                with context.bound(
                    trace=context.TraceContext.from_dict(job.trace)
                ), obs.span("serve.job", job=job.id, kind=job.kind):
                    if job.kind == "batch":
                        self._run_batch_job(job)
                    else:
                        self._run_job(job)
            except Exception as exc:  # the loop must survive anything
                slog.warning("serve.worker_error", job=job.id, error=str(exc))
                self._complete_degraded(job, f"worker-error: {exc}")
            finally:
                self.queue.task_done()

    def _under_pressure(self) -> bool:
        return self.queue.qsize() >= self.config.degrade_at * self.config.queue_size

    def _ladder_plan(self, job: Job) -> Tuple[str, str]:
        """(ladder kind, degradation marker) for this execution."""
        if self._under_pressure():
            obs.incr("serve.degraded.overload")
            return "baseline", "overload"
        return "default", ""

    def _attempt_timeout(self, limits: EngineLimits, ladder_kind: str) -> float:
        if self.config.job_timeout_sec is not None:
            return self.config.job_timeout_sec
        per_rung = limits.deadline_sec or 30.0
        rungs = len(_ladder(ladder_kind, limits))
        return per_rung * rungs + self.config.timeout_grace_sec

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        started_record = {"event": "started", "job": job.id, "attempt": job.attempts}
        if job.trace_id:
            started_record["trace"] = job.trace_id
        self.journal.append(started_record)
        progress = None
        if job.subscribers:
            def progress(event: dict, _job=job) -> None:
                _job.publish({**event, "job": _job.id})
        ladder_kind, degraded = self._ladder_plan(job)
        exec_limits = job.limits
        pressure = faults.check("daemon.clock.pressure")
        if pressure is not None:
            # the wall clock collapsed under us (NTP step, noisy neighbor,
            # injected): run under a near-zero deadline.  The cache key was
            # computed from the *admitted* limits, so the squeezed answer
            # must be marked degraded — degraded results are never cached,
            # which keeps the key ↔ budget contract intact.
            squeezed = min(exec_limits.deadline_sec or 0.05, 0.05)
            exec_limits = replace(exec_limits, deadline_sec=squeezed)
            degraded = degraded or "clock-pressure"
            obs.incr("serve.degraded.clock_pressure")
        warm = self.cache.warm_snapshot(job.cfg_fp, "CartesianClient")
        attempt = 0
        while True:
            try:
                rendered, snapshot_payload = self._execute_attempt(
                    job, ladder_kind, warm, exec_limits, progress=progress
                )
                break
            except TransientJobError as exc:
                obs.incr("serve.attempt_failures")
                if attempt >= self.config.retry.max_retries:
                    slog.warning("serve.retries_exhausted", job=job.id, error=str(exc))
                    self._complete_degraded(job, f"retries-exhausted: {exc}")
                    return
                delay = self.config.retry.delay(attempt, self._rng)
                slog.info(
                    "serve.retry", job=job.id, attempt=attempt,
                    delay_sec=round(delay, 3), error=str(exc),
                )
                retry_record = {
                    "event": "retry", "job": job.id, "attempt": attempt, "error": str(exc),
                }
                if job.trace_id:
                    retry_record["trace"] = job.trace_id
                self.journal.append(retry_record)
                obs.incr("serve.retries")
                time.sleep(delay)
                attempt += 1
                job.attempts = attempt
        if degraded:
            rendered["degraded"] = degraded
            rendered.setdefault("service_diagnostics", []).append(
                f"DEGRADED: {degraded}"
            )
        if progress is not None:
            for diagnostic in rendered.get("diagnostics", []) or []:
                progress({"event": "diagnostic", "diagnostic": str(diagnostic)})
        self._record_breaker(rendered)
        clean = not degraded
        if clean:
            self.cache.store(
                job.key, job.cfg_fp, DEFAULT_LADDER_ID, job.limits,
                rendered, snapshot_payload,
            )
        self._finish(job, rendered)

    def _execute_attempt(
        self,
        job: Job,
        ladder_kind: str,
        warm: Optional[Snapshot],
        limits: Optional[EngineLimits] = None,
        progress=None,
    ) -> Tuple[dict, Optional[dict]]:
        """One attempt, isolated per config.  Raises TransientJobError on
        worker loss or watchdog timeout.  ``progress`` (when the job has
        streaming subscribers) receives the ladder's rung/heartbeat
        events; under process isolation the child forwards them over the
        reply pipe and this side fans them out."""
        request = job.request
        limits = limits if limits is not None else job.limits
        fault = request.test_fault if self.config.allow_test_faults else None
        if faults.check("daemon.worker.kill") is not None:
            # decided parent-side so the plane's coverage accounting stays
            # in one process; in process isolation the child honors the
            # same crash directive the SIGKILL crash suite uses
            fault = {"kind": "crash"}
        if self.config.isolation == "inline":
            return self._execute_inline(
                request, limits, ladder_kind, warm, fault, progress=progress
            )
        timeout = self._attempt_timeout(limits, ladder_kind)
        span_ctx = context.current().trace
        sink = obs.sink()
        ctx = fork_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_attempt_child,
            args=(
                child_conn, request.program, limits, ladder_kind,
                warm.payload if warm is not None else None,
                obs.enabled(), fault,
                span_ctx.to_dict() if span_ctx is not None else None,
                str(sink) if sink is not None else None,
                progress is not None,
            ),
        )
        process.start()
        child_conn.close()
        reply = None
        try:
            deadline = time.monotonic() + timeout
            while reply is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    obs.incr("serve.watchdog_timeouts")
                    raise TransientJobError(f"attempt timed out after {timeout:.1f}s")
                if not parent_conn.poll(min(remaining, 0.5)):
                    continue
                try:
                    message = parent_conn.recv()
                except (EOFError, OSError):
                    obs.incr("serve.worker_lost")
                    raise TransientJobError("worker process died without replying")
                if (
                    isinstance(message, tuple)
                    and len(message) == 2
                    and message[0] == "progress"
                ):
                    if progress is not None and isinstance(message[1], dict):
                        progress(message[1])
                    continue
                reply = message
        finally:
            parent_conn.close()
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - terminate() sufficed so far
                process.kill()
                process.join(timeout=5.0)
        status, payload, snapshot_payload, counters = reply
        obs.merge_counters(counters)
        if status != "ok":
            # an exception inside the ladder is a daemon-side bug (the
            # driver is supposed to be total); retry in case it was
            # environmental, degrade if it persists
            raise TransientJobError(f"attempt failed: {payload}")
        if warm is not None and payload.get("resumed_from"):
            obs.incr("serve.cache.warm_starts")
        return payload, snapshot_payload

    def _execute_inline(self, request, limits, ladder_kind, warm, fault, progress=None):
        """In-thread attempt (tests / bench): a recorder bound into the job
        thread's context keeps concurrent jobs' counters separate."""
        if fault and fault.get("kind") == "crash":
            raise TransientJobError("injected crash")
        if fault and fault.get("kind") == "sleep":
            time.sleep(float(fault.get("sec", 0.1)))
        program = parse(request.program)
        ladder = _ladder(ladder_kind, limits)
        recorder = obs.Recorder()
        with obs.span("serve.attempt", ladder=ladder_kind), context.bound(recorder=recorder):
            report = analyze_with_fallback(
                program, limits=limits, ladder=ladder, resume=warm,
                progress=progress,
            )
            rendered = render_report(report)
            counters = dict(recorder.counters)
        obs.merge_counters(counters)
        snap = getattr(report.result, "snapshot", None)
        if warm is not None and rendered.get("resumed_from"):
            obs.incr("serve.cache.warm_starts")
        return rendered, (snap.payload if snap is not None else None)

    def _run_batch_job(self, job: Job) -> None:
        """Execute a batch job through ``driver.analyze_batch`` (the
        shared batch entry point), caching each item's result."""
        job.state = "running"
        self.journal.append({"event": "started", "job": job.id, "attempt": 0})
        limits = self.effective_limits(job.batch[0])
        programs: List[Optional[object]] = []
        errors: List[Optional[str]] = []
        for request in job.batch:
            try:
                programs.append(parse(request.program))
                errors.append(None)
            except ParseError as exc:
                programs.append(None)
                errors.append(f"parse error: {exc}")
        parsed = [program for program in programs if program is not None]
        recorder = obs.Recorder()
        with context.bound(recorder=recorder):
            # analyze_batch yields in input order, so reports line up with
            # the parsed sublist positionally
            reports = [
                report
                for _item, report in analyze_batch(
                    parsed, limits=limits, jobs=self.config.batch_jobs
                )
            ]
            counters = dict(recorder.counters)
        obs.merge_counters(counters)
        results: List[dict] = []
        cursor = 0
        for request, program, error in zip(job.batch, programs, errors):
            if program is None:
                results.append({"error": error})
                continue
            rendered = render_report(reports[cursor])
            cursor += 1
            try:
                key, cfg_fp, item_limits = self._admission_identity(request)
                self.cache.store(key, cfg_fp, DEFAULT_LADDER_ID, item_limits, rendered)
            except ParseError:  # pragma: no cover - parsed above
                pass
            results.append({"cache": "miss", "result": rendered})
        prelim = getattr(job, "_prelim", None)
        if prelim is not None:
            merged, cursor = [], 0
            for slot in prelim:
                if slot is None:
                    merged.append(results[cursor])
                    cursor += 1
                else:
                    merged.append(slot)
            document = {"results": merged}
        else:
            document = {"results": results}
        self._finish(job, document)

    # -- completion ------------------------------------------------------------

    def _record_breaker(self, rendered: dict) -> None:
        """Feed per-rung outcomes to the circuit breaker: a rung that
        gave up or threw client faults counts as a failure."""
        for rung in rendered.get("rungs", []):
            name = rung.get("name", "")
            if not name or name == "mpi-cfg":
                continue
            failed = (
                rung.get("confidence") == diagnostics.GAVE_UP
                or diagnostics.CLIENT_FAULT in str(rung.get("diagnostics", ""))
            )
            if failed:
                self.breaker.record_failure(name)
            else:
                self.breaker.record_success(name)

    def _complete_degraded(self, job: Job, reason: str) -> None:
        """Terminal fallback: answer with the inline baseline (total,
        cheap, cannot fail) plus a service diagnostic.  Every accepted
        job ends here at the latest — an answer, never a hang."""
        try:
            if job.kind == "batch":
                document = {
                    "results": [
                        {"error": f"degraded: {reason}"} for _ in (job.batch or [])
                    ]
                }
            else:
                program = parse(job.request.program)
                report = analyze_with_fallback(
                    program, limits=job.limits, ladder=baseline_ladder(job.limits)
                )
                document = render_report(report)
                document["degraded"] = reason
                document["service_diagnostics"] = [f"RETRY_EXHAUSTED: {reason}"]
        except Exception as exc:  # pragma: no cover - baseline is total
            document = {"error": f"degraded and baseline failed: {exc}"}
        obs.incr("serve.degraded.terminal")
        self._finish(job, document)

    def _finish(self, job: Job, document: dict) -> None:
        done_record = {"event": "done", "job": job.id, "kind": job.kind, "result": document}
        if job.trace_id:
            done_record["trace"] = job.trace_id
        self.journal.append(done_record)
        job.result = document
        job.state = "done"
        with self._lock:
            if job.key and self._inflight.get(job.key) is job:
                del self._inflight[job.key]
        tenant = None
        if job.request is not None:
            tenant = job.request.tenant
        elif job.batch:
            tenant = job.batch[0].tenant
        if tenant:
            obs.observe(
                f"serve.tenant.latency_ms.{tenant}",
                (time.time() - job.created) * 1000.0,
            )
        job.done.set()
        job.publish({"event": "result", "job": job.id, "result": document})
        obs.incr("serve.completed")

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict:
        recorder = obs.active_recorder()
        counters = dict(recorder.counters) if isinstance(recorder, obs.Recorder) else {}
        return {
            "uptime_sec": time.time() - self.started_at if self.started_at else 0.0,
            "draining": self.draining,
            "queue_depth": self.queue.qsize(),
            "queue_size": self.config.queue_size,
            "jobs": len(self.jobs),
            "workers": len(self._threads),
            "cache": self.cache.stats(),
            "breaker": self.breaker.snapshot(),
            "counters": {
                name: value for name, value in sorted(counters.items())
                if name.startswith(("serve.", "driver.", "engine."))
            },
        }


def load_tenants(path) -> Dict[str, TenantBudget]:
    """Parse a ``{"tenant": {"deadline_sec": ..., ...}}`` JSON file."""
    doc = json.loads(Path(path).read_text())
    tenants = {}
    for name, spec in doc.items():
        tenants[name] = TenantBudget(
            name=name,
            deadline_sec=float(spec.get("deadline_sec", 30.0)),
            max_state_bytes=spec.get("max_state_bytes"),
            max_steps=int(spec.get("max_steps", 20_000)),
        )
    return tenants
