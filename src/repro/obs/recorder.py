"""Structured tracing and metrics for the pCFG engine.

The observability layer has exactly two states:

* **disabled** (the default): the active recorder is a :class:`NullRecorder`
  whose every operation is a no-op, so instrumented hot paths pay only a
  couple of function calls per event.  Tier-1 timings must not regress.
* **enabled**: the active recorder is a :class:`Recorder` aggregating
  hierarchical *spans* (nested timed regions, with self-time attribution),
  *counters* (monotonic event counts), and *histograms* (value
  distributions: count/total/min/max).

Instrumented code never branches on the state — it calls the module-level
:func:`span` / :func:`incr` / :func:`observe` helpers, which dispatch to
whatever recorder is currently installed.

Concurrency model
-----------------

The default recorder is process-global and unlocked, matching the
single-threaded analysis engine.  The analysis *service* runs concurrent
jobs in worker threads, which needs two extra pieces:

* **per-job isolation** (the fast path): :func:`job_recording` installs a
  private recorder for the current thread only — the same snapshot/merge
  pattern the PR 7 process pools use, so a job's counters never race with
  another job's and are folded into the shared recorder in one locked
  :func:`merge_counters` call at job end;
* **a locked fallback**: ``Recorder(locked=True)`` serializes counter and
  histogram updates (and keeps a per-thread span stack), so the *shared*
  recorder that absorbs those merges — and any stray unisolated
  ``incr`` from a service thread — stays consistent under concurrency.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Union


class _NullSpan:
    """Reusable no-op context manager handed out by the disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """The disabled recorder: every operation is a no-op."""

    __slots__ = ()

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def incr(self, name: str, amount: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge_counters(self, counters: Dict[str, int]) -> None:
        pass

    def reset(self) -> None:
        pass

    def snapshot(self) -> Dict[str, dict]:
        return {"spans": {}, "counters": {}, "histograms": {}}


@dataclass
class SpanStats:
    """Aggregated timing of one span name."""

    count: int = 0
    #: wall time inside the span, children included
    total_time: float = 0.0
    #: wall time inside the span minus time inside child spans
    self_time: float = 0.0


#: retained samples per histogram for the percentile summaries; beyond it
#: the reservoir is overwritten cyclically (a recent-window estimate)
RESERVOIR_SIZE = 1024

#: percentile points reported in snapshots (p50/p90/p99)
PERCENTILES = (0.50, 0.90, 0.99)


def percentile(values, q: float) -> Optional[float]:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1]).

    The one percentile definition in the codebase: histogram snapshots,
    the metrics exposition, and the load generator's latency summary all
    route through it, so their numbers agree by construction.  Returns
    None for an empty series — never NaN.
    """
    if not values:
        return None
    ordered = sorted(values)
    last = len(ordered) - 1
    return ordered[min(last, int(q * last + 0.5))]


@dataclass
class HistogramStats:
    """Summary statistics of one observed value stream."""

    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        if value != value:  # NaN would poison total/mean/percentiles and
            return          # serialize as invalid JSON; drop it at the door
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < RESERVOIR_SIZE:
            self._samples.append(value)
        else:
            self._samples[(self.count - 1) % RESERVOIR_SIZE] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentiles(self) -> Optional[Dict[str, float]]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` from the sample
        reservoir, or None for an empty series — never NaN.  Estimated by
        nearest-rank over up to ``RESERVOIR_SIZE`` retained samples."""
        if not self._samples:
            return None
        return {f"p{int(q * 100)}": percentile(self._samples, q) for q in PERCENTILES}

    def samples(self) -> List[float]:
        """A copy of the retained sample reservoir (for re-summarizing at
        other percentile points, e.g. the metrics exposition)."""
        return list(self._samples)


class _Span:
    """A live span: measures one enter/exit and feeds the recorder."""

    __slots__ = ("_recorder", "name", "_start", "_child_time")

    def __init__(self, recorder: "Recorder", name: str):
        self._recorder = recorder
        self.name = name

    def __enter__(self) -> "_Span":
        self._child_time = 0.0
        self._recorder._stack.append(self)
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = perf_counter() - self._start
        recorder = self._recorder
        stack = recorder._stack
        stack.pop()
        lock = recorder._lock
        if lock is not None:
            with lock:
                stats = recorder.spans.setdefault(self.name, SpanStats())
                stats.count += 1
                stats.total_time += elapsed
                stats.self_time += elapsed - self._child_time
        else:
            stats = recorder.spans.setdefault(self.name, SpanStats())
            stats.count += 1
            stats.total_time += elapsed
            stats.self_time += elapsed - self._child_time
        if stack:
            stack[-1]._child_time += elapsed
        return False


class Recorder:
    """The enabled recorder: aggregates spans, counters, and histograms.

    ``locked=True`` makes counter/histogram updates and merges
    thread-safe and keeps one span stack *per thread*, so a recorder
    shared by concurrent service threads aggregates consistently.  The
    default (unlocked) recorder stays free of any synchronization cost.
    """

    enabled = True

    def __init__(self, locked: bool = False) -> None:
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, int] = {}
        self.histograms: Dict[str, HistogramStats] = {}
        self._lock: Optional[threading.Lock] = threading.Lock() if locked else None
        self._tls: Optional[threading.local] = threading.local() if locked else None
        self._serial_stack: List[_Span] = []

    @property
    def _stack(self) -> List["_Span"]:
        if self._tls is None:
            return self._serial_stack
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name: str) -> _Span:
        """A context manager timing one region under ``name``."""
        return _Span(self, name)

    def incr(self, name: str, amount: int = 1) -> None:
        """Bump a monotonic counter."""
        lock = self._lock
        if lock is not None:
            with lock:
                self.counters[name] = self.counters.get(name, 0) + amount
        else:
            self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        """Record one value into a histogram."""
        lock = self._lock
        if lock is not None:
            with lock:
                self.histograms.setdefault(name, HistogramStats()).add(value)
        else:
            self.histograms.setdefault(name, HistogramStats()).add(value)

    def merge_counters(self, counters: Dict[str, int]) -> None:
        """Fold a counter snapshot from another process into this recorder.

        Worker processes (:func:`repro.core.driver.pool_map` workers, the
        daemon's attempt children) cannot share the parent's recorder;
        they enable a private one, return ``dict(recorder.counters)`` with
        their result, and the parent merges it here so ``engine.*``/``sweep.*`` counts survive
        the pool.  Service job threads use the same pattern through
        :func:`job_recording`.  Spans and histograms are deliberately not
        merged: their wall-clock attribution is only meaningful within
        one process.
        """
        lock = self._lock
        if lock is not None:
            with lock:
                for name, amount in counters.items():
                    self.counters[name] = self.counters.get(name, 0) + amount
        else:
            for name, amount in counters.items():
                self.counters[name] = self.counters.get(name, 0) + amount

    def reset(self) -> None:
        """Drop everything collected so far."""
        self.spans.clear()
        self.counters.clear()
        self.histograms.clear()
        self._stack.clear()

    def metrics_view(self):
        """A consistent ``(counters, histograms)`` copy for exposition.

        ``histograms`` maps name -> ``(count, total, samples)``.  Taken
        under the lock when this recorder is the locked shared instance,
        so a /metrics scrape never races a job thread mid-update (dict
        iteration during mutation raises RuntimeError).
        """
        lock = self._lock
        if lock is not None:
            with lock:
                return dict(self.counters), {
                    name: (h.count, h.total, h.samples())
                    for name, h in self.histograms.items()
                }
        return dict(self.counters), {
            name: (h.count, h.total, h.samples())
            for name, h in self.histograms.items()
        }

    def snapshot(self) -> Dict[str, dict]:
        """A JSON-serializable copy of all aggregates."""
        return {
            "spans": {
                name: {
                    "count": s.count,
                    "total_time": s.total_time,
                    "self_time": s.self_time,
                }
                for name, s in self.spans.items()
            },
            "counters": dict(self.counters),
            "histograms": {
                name: {
                    "count": h.count,
                    "total": h.total,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                    "mean": h.mean,
                    # None (never NaN) for an empty series, so the profile
                    # JSON stays strictly valid
                    "percentiles": h.percentiles(),
                }
                for name, h in self.histograms.items()
            },
        }


AnyRecorder = Union[Recorder, NullRecorder]

_NULL = NullRecorder()
_active: AnyRecorder = _NULL

#: per-thread recorder override (see :func:`job_recording`); checked before
#: the process-global recorder so concurrent jobs stay isolated
_tls = threading.local()


def active_recorder() -> AnyRecorder:
    """The currently installed recorder (Null when disabled).

    A thread-local override installed by :func:`job_recording` shadows
    the process-global recorder for the current thread.
    """
    override = getattr(_tls, "override", None)
    if override is not None:
        return override
    return _active


def enabled() -> bool:
    """True iff observability is currently collecting."""
    return active_recorder().enabled


def enable(recorder: Optional[Recorder] = None) -> Recorder:
    """Install (and return) an aggregating recorder.

    With no argument, keeps the current recorder if one is already enabled,
    otherwise installs a fresh one.
    """
    global _active
    if recorder is None:
        if isinstance(_active, Recorder):
            return _active
        recorder = Recorder()
    _active = recorder
    return recorder


def disable() -> None:
    """Return to the zero-cost disabled state (collected data is kept on
    the old recorder object if the caller holds a reference)."""
    global _active
    _active = _NULL


def reset() -> None:
    """Disable and drop all collected data: the pristine default state.

    Also clears the *current thread's* job-recording override, so test
    isolation fixtures return this thread to the global recorder."""
    global _active
    if isinstance(_active, Recorder):
        _active.reset()
    _active = _NULL
    _tls.override = None


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Temporarily install ``recorder`` (default: a fresh one), restoring
    the previous state on exit.  This is how profiling drivers isolate
    their measurements from the global recorder.  The swap is
    process-global; concurrent job threads should use
    :func:`job_recording` instead."""
    global _active
    previous = _active
    installed = recorder if recorder is not None else Recorder()
    _active = installed
    try:
        yield installed
    finally:
        _active = previous


@contextmanager
def job_recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Install a private recorder for the *current thread only*.

    The per-request isolation the analysis service uses: each concurrent
    job records into its own recorder (no locks on the hot path, no
    cross-job races), and the caller folds ``dict(recorder.counters)``
    into the shared recorder with one :func:`merge_counters` call when
    the job finishes — the same snapshot/merge pattern the PR 7 process
    pools established.  Nesting restores the previous override on exit.
    """
    installed = recorder if recorder is not None else Recorder()
    previous = getattr(_tls, "override", None)
    _tls.override = installed
    try:
        yield installed
    finally:
        _tls.override = previous


def span(name: str):
    """Time a region: ``with obs.span("engine.step"): ...``"""
    return active_recorder().span(name)


def incr(name: str, amount: int = 1) -> None:
    """Bump a counter on the active recorder."""
    active_recorder().incr(name, amount)


def observe(name: str, value: float) -> None:
    """Record a histogram value on the active recorder."""
    active_recorder().observe(name, value)


def merge_counters(counters: Optional[Dict[str, int]]) -> None:
    """Fold a worker's counter snapshot into the active recorder (no-op
    when disabled or when the snapshot is None/empty)."""
    if counters:
        active_recorder().merge_counters(counters)


def counter_snapshot() -> Optional[Dict[str, int]]:
    """A plain-dict copy of the active recorder's counters for shipping
    across a process boundary, or None when observability is disabled."""
    recorder = active_recorder()
    if isinstance(recorder, Recorder):
        return dict(recorder.counters)
    return None
