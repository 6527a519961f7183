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
   policy.  Inline isolation runs the same attempt body in the worker
   thread.  When the queue is above the pressure threshold, new
   executions run only the cheap baseline rung: a degraded-but-sound
   answer beats a timeout.
3. **Completion**: the rendered result is journaled (``done``), stored
   in the result cache (only clean, non-degraded results), and every
   waiter — including coalesced duplicates — is released.  If retries
   exhaust, the job still completes with an inline baseline answer
   carrying a ``RETRY_EXHAUSTED`` service diagnostic: every accepted
   job terminates with an answer, never a hang.

Every job is one program.  A batch is a loop over :meth:`submit` in the
HTTP layer, so each item gets its own key, limits, cache lookup,
coalescing and journaled job.

Recovery replays the journal on startup: accepted-but-not-done jobs are
re-queued (at-least-once; the cache makes re-execution cheap), done
records stay addressable, and the journal is compacted.
"""

from __future__ import annotations

import json
import os
import queue
import random
import signal
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.checkpoint import cfg_fingerprint
from repro.core.driver import (
    analyze_with_fallback,
    baseline_ladder,
    default_ladder,
    fork_context,
    worst_case_runs,
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
from repro.serve.retry import RetryPolicy, TransientJobError

#: ladder identifier baked into cache keys (rung names, in order)
DEFAULT_LADDER_ID = "cartesian>cartesian-escalated>mpi-cfg"

#: Retry-After seconds advertised on shed responses
RETRY_AFTER_SEC = 1
#: extra seconds on top of the ladder's worst-case deadline before the
#: watchdog declares an attempt hung
TIMEOUT_GRACE_SEC = 5.0
#: result-cache entries held in memory (the disk keeps the rest)
CACHE_ENTRIES = 4096


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
    #: absolute per-attempt watchdog override (None: derived from limits)
    job_timeout_sec: Optional[float] = None
    allow_test_faults: bool = False
    tenants: Dict[str, TenantBudget] = field(default_factory=dict)

    def budget_for(self, tenant: str) -> TenantBudget:
        return self.tenants.get(tenant) or self.tenants.get("default") or TenantBudget()


@dataclass
class Job:
    """One admitted program (a recovered done job keeps only its result)."""

    id: str
    request: Optional[AnalyzeRequest] = None
    key: str = ""
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

    def publish(self, event: dict) -> None:
        for subscriber in list(self.subscribers):
            try:
                subscriber.put_nowait(event)
            except queue.Full:  # pragma: no cover - unbounded by default
                pass

    @property
    def trace_id(self) -> Optional[str]:
        return self.trace.get("trace") if isinstance(self.trace, dict) else None


# -- worker-process attempt execution -----------------------------------------


def _apply_test_fault(fault: Optional[dict]) -> None:
    """Honor a fault-injection directive at the start of an attempt.

    ``{"kind": "crash"}`` raises :class:`TransientJobError`; the worker
    process turns it into a real crash (``os._exit``, no reply, no
    cleanup).  ``{"kind": "hang_if_missing", "path": p}`` hangs unless
    the marker file exists — a crash test restarts the daemon, touches
    the marker, and watches the replayed job succeed.
    ``{"kind": "sleep", "sec": s}`` delays, for queue-pressure tests.
    """
    if not fault:
        return
    kind = fault.get("kind")
    if kind == "crash":
        raise TransientJobError("injected crash")
    if kind == "hang_if_missing":
        if not Path(str(fault.get("path", ""))).exists():
            time.sleep(float(fault.get("sec", 600.0)))
    elif kind == "sleep":
        time.sleep(float(fault.get("sec", 0.1)))


def _ladder(ladder_kind: str, limits: EngineLimits):
    """The rungs an attempt of ``ladder_kind`` may climb."""
    return baseline_ladder(limits) if ladder_kind == "baseline" else default_ladder(limits)


def _attempt(
    source: str,
    limits: EngineLimits,
    ladder_kind: str,
    progress=None,
) -> Tuple[dict, Dict[str, int]]:
    """The one attempt body, in a worker process or inline: parse, climb
    the ladder under a private recorder, render.

    Returns ``(rendered, counters)``, both JSON-plain,
    so the reply crosses a pipe as-is and the parent can journal and
    cache it; the private recorder keeps concurrent jobs' counters apart
    until the parent merges them.
    """
    recorder = obs.Recorder()
    with context.bound(recorder=recorder), obs.span("serve.attempt", ladder=ladder_kind):
        report = analyze_with_fallback(
            parse(source), limits=limits, ladder=_ladder(ladder_kind, limits),
            progress=progress,
        )
        rendered = render_report(report)
    return rendered, dict(recorder.counters)


#: how often an attempt child checks that the daemon that forked it lives
_PARENT_POLL_SEC = 0.2


def _exit_with_parent(parent_pid: int) -> None:
    """End this attempt child once the daemon that forked it is gone.

    A SIGKILLed daemon cannot kill its children, and an EOF on a pipe
    cannot tell: a sibling child forked at the same moment inherits the
    write end.  Re-parenting can: ``getppid()`` stops naming the daemon.
    A poll thread rather than ``prctl(PR_SET_PDEATHSIG)``, which would
    import ``ctypes`` into every attempt and exists only on Linux.
    """

    def watch():
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_SEC)
        os._exit(4)

    threading.Thread(target=watch, name="parent-watch", daemon=True).start()


def _attempt_child(
    conn, parent_pid, source, limits, ladder_kind, fault, trace_ctx, trace_sink, stream
):
    """Worker-process wrapper around :func:`_attempt`: ships its result
    as an ``("ok", rendered, counters)`` reply.
    ``trace_ctx``/``trace_sink`` re-establish the request's trace context
    in this process (its spans land in a shard file of its own); with
    ``stream`` the ladder's progress events are forwarded over the pipe
    as ``("progress", event)`` messages ahead of the reply.  The child
    exits on its own if ``parent_pid``, the daemon, dies first."""
    # a fork copies the daemon's fault plane: faults are decided parent-side
    faults.uninstall()
    # a fork inherits the daemon's drain handler; terminate() must end us
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _exit_with_parent(parent_pid)
    try:
        try:
            _apply_test_fault(fault)
        except TransientJobError:
            os._exit(3)
        if trace_sink:
            obs.configure_sink(trace_sink, "worker")
        progress = None
        if stream:
            def progress(event, _conn=conn):
                try:
                    _conn.send(("progress", dict(event)))
                except Exception:  # a dead pipe must not kill the attempt
                    pass
        with context.bound(trace=context.TraceContext.from_dict(trace_ctx)):
            reply = ("ok",) + _attempt(source, limits, ladder_kind, progress)
        conn.send(reply)
    except BaseException as exc:  # the reply channel must never go silent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}", None))
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
        self.cache = ResultCache(self.state_dir / "cache", max_entries=CACHE_ENTRIES)
        self.journal = JobJournal(self.state_dir / "journal.jsonl")
        self.queue: "queue.Queue[Job]" = queue.Queue(maxsize=config.queue_size)
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
            job = Job(id=job_id, state="done")
            job.result = record.get("result")
            job.done.set()
            self.jobs[job_id] = job
        requeued = 0
        for job_id, record in sorted(pending.items(), key=lambda kv: kv[1].get("seq", 0)):
            job = self._rebuild_job(job_id, record)
            if job is None:
                # ended here, so the next restart does not drop it again
                self.journal.append(
                    {"event": "done", "job": job_id, "result": None, "dropped": True}
                )
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
        """The job a pending ``accepted`` record describes, or None
        (counted in ``serve.recovery_dropped``) when the record holds no
        runnable request: an unparseable one, or a multi-program
        ``batch`` record journaled by an older daemon."""
        try:
            request = AnalyzeRequest.from_json(record.get("request", {}))
            key, limits = self._admission_identity(request)
        except (ValueError, TypeError, ParseError):
            obs.incr("serve.recovery_dropped")
            return None
        shipped = record.get("trace")
        return Job(
            id=job_id, request=request, key=key, limits=limits,
            trace=shipped if isinstance(shipped, dict) else None,
        )

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

    def _admission_identity(self, request: AnalyzeRequest) -> Tuple[str, EngineLimits]:
        """Parse + fingerprint + key.  Raises ParseError for client bugs."""
        program = parse(request.program)
        cfg = build_cfg(program)
        cfg_fp = cfg_fingerprint(cfg)
        limits = self.effective_limits(request)
        key = compute_key(cfg_fp, DEFAULT_LADDER_ID, limits)
        return key, limits

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
            key, limits = self._admission_identity(request)
        except ParseError as exc:
            obs.incr("serve.rejected")
            return "rejected", f"parse error: {exc}"
        entry = self.cache.lookup(key)
        if entry is not None:
            obs.incr("serve.served_from_cache")
            return "hit", entry["result"]
        if self._draining.is_set():
            obs.incr("serve.shed.draining")
            return "shed", {"reason": "draining", "retry_after_sec": RETRY_AFTER_SEC}
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None and not inflight.done.is_set():
                obs.incr("serve.coalesced")
                if subscriber is not None:
                    inflight.subscribers.append(subscriber)
                return "accepted", inflight
            job = Job(
                id=uuid.uuid4().hex[:12], request=request,
                key=key, limits=limits,
                trace=span_ctx.to_dict() if span_ctx is not None else None,
            )
            if subscriber is not None:
                job.subscribers.append(subscriber)
            # journal-first: the 202 promise must survive a SIGKILL that
            # lands before the queue drains
            accepted_record = {
                "event": "accepted",
                "job": job.id,
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
                    {"event": "done", "job": job.id, "result": None, "shed": True}
                )
                obs.incr("serve.shed.queue_full")
                return "shed", {"reason": "queue_full", "retry_after_sec": RETRY_AFTER_SEC}
            self.jobs[job.id] = job
            self._inflight[key] = job
        obs.incr("serve.accepted")
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
                ), obs.span("serve.job", job=job.id):
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
        per_run = limits.deadline_sec or 30.0
        runs = worst_case_runs(_ladder(ladder_kind, limits))
        return per_run * runs + TIMEOUT_GRACE_SEC

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
        attempt = 0
        while True:
            try:
                rendered = self._execute_attempt(
                    job, ladder_kind, exec_limits, progress=progress
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
        if not degraded:
            self.cache.store(job.key, DEFAULT_LADDER_ID, job.limits, rendered)
        self._finish(job, rendered)

    def _execute_attempt(
        self,
        job: Job,
        ladder_kind: str,
        limits: Optional[EngineLimits] = None,
        progress=None,
    ) -> dict:
        """One attempt, isolated per config.  Raises TransientJobError on
        worker loss or watchdog timeout.  ``progress`` (when the job has
        streaming subscribers) receives the ladder's rung/heartbeat
        events."""
        request = job.request
        limits = limits if limits is not None else job.limits
        fault = request.test_fault if self.config.allow_test_faults else None
        if faults.check("daemon.worker.kill") is not None:
            # decided parent-side so the plane's coverage accounting stays
            # in one process; in process isolation the child honors the
            # same crash directive the SIGKILL crash suite uses
            fault = {"kind": "crash"}
        if self.config.isolation == "inline":
            _apply_test_fault(fault)
            rendered, counters = _attempt(request.program, limits, ladder_kind, progress)
        else:
            rendered, counters = self._attempt_in_child(
                request.program, limits, ladder_kind, fault, progress
            )
        obs.merge_counters(counters)
        return rendered

    def _attempt_in_child(self, source, limits, ladder_kind, fault, progress):
        """Run :func:`_attempt` in a disposable worker process under the
        watchdog; the child forwards progress events over the reply pipe
        and this side fans them out."""
        timeout = self._attempt_timeout(limits, ladder_kind)
        span_ctx = context.current().trace
        sink = obs.sink()
        ctx = fork_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_attempt_child,
            args=(
                child_conn, os.getpid(), source, limits, ladder_kind, fault,
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
        status, payload, counters = reply
        if status != "ok":
            # an exception inside the ladder is a daemon-side bug (the
            # driver is supposed to be total); retry in case it was
            # environmental, degrade if it persists
            raise TransientJobError(f"attempt failed: {payload}")
        return payload, counters

    # -- completion ------------------------------------------------------------

    def _complete_degraded(self, job: Job, reason: str) -> None:
        """Terminal fallback: answer with the inline baseline (total,
        cheap, cannot fail) plus a service diagnostic.  Every accepted
        job ends here at the latest — an answer, never a hang."""
        try:
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
        done_record = {"event": "done", "job": job.id, "result": document}
        if job.trace_id:
            done_record["trace"] = job.trace_id
        self.journal.append(done_record)
        job.result = document
        job.state = "done"
        with self._lock:
            if job.key and self._inflight.get(job.key) is job:
                del self._inflight[job.key]
        if job.request is not None:
            obs.observe(
                f"serve.tenant.latency_ms.{job.request.tenant}",
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
