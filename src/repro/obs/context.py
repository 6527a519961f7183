"""The per-thread observability context: where this thread reports.

One engine step or served request reports into four places: a
recorder (span/counter aggregates), a trace (span shards stitched by
``repro trace``), a progress hook (the streaming job endpoint) and a
provenance flight recorder (the causal journal behind ``repro explain``).
A :class:`Context` names all four for the current thread, and
:func:`bound` installs one for a scope.  Each process/thread boundary
binds what it owns, once:

* HTTP admission binds a fresh ``trace`` (:func:`mint`);
* the daemon's job thread binds the trace the job was admitted under,
  and a private ``recorder`` around in-thread work, so concurrent jobs
  never race on counters;
* a process-isolated attempt child binds the shipped trace and the
  recorder whose counters travel home with its reply;
* the precision ladder binds the caller's ``progress`` hook around each
  rung, so engine heartbeats reach it without any signature change;
* :func:`repro.obs.provenance.recording` binds a fresh ``provenance``
  recorder, which the engine reads once per run.

Readers are :func:`repro.obs.recorder.span` (recorder plus, for
request-level layers, a shard record), :func:`repro.obs.slog.log`
(``trace``/``span`` fields), :func:`emit` (progress events), and the
engine, the checkpointer and the symbolic client (``provenance``).  A
thread that never bound anything holds no context at all, so disabled
mode costs one thread-local read per span.

Trace identity crosses processes explicitly: a journal record or pipe
message carries ``TraceContext.to_dict()`` and the far side rebinds
``TraceContext.from_dict(...)``.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterator, Optional

ProgressHook = Callable[[dict], None]

#: span-name prefixes of the request-level layers: only these spans reach
#: trace shards, so a stitched request shows admission, job, attempt and
#: rungs while engine/client/cgraph/hsm spans stay in the recorder
REQUEST_LAYERS = ("http.", "serve.", "driver.rung.")


@dataclass(frozen=True)
class TraceContext:
    """The identity a request carries across process boundaries."""

    trace_id: str
    span_id: str
    parent_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Optional[str]]:
        return {"trace": self.trace_id, "span": self.span_id, "parent": self.parent_id}

    @classmethod
    def from_dict(cls, document) -> Optional["TraceContext"]:
        """Rebuild a shipped context; None for anything malformed (a peer
        speaking an older protocol must not crash the receiver)."""
        if not isinstance(document, dict):
            return None
        trace_id = document.get("trace")
        span_id = document.get("span")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        if not isinstance(span_id, str) or not span_id:
            return None
        parent = document.get("parent")
        return cls(trace_id, span_id, parent if isinstance(parent, str) else None)


def mint_id() -> str:
    """A fresh 16-hex-digit id (trace or span)."""
    return uuid.uuid4().hex[:16]


def mint(trace_id: Optional[str] = None) -> TraceContext:
    """A fresh root trace (admission mints one per request).

    ``trace_id`` lets a client-supplied id (``X-Repro-Trace`` header)
    win, so callers can correlate with their own systems; ids are
    sanitized to at most 64 name-safe characters.
    """
    if trace_id:
        cleaned = "".join(c for c in str(trace_id) if c.isalnum() or c in "-_")[:64]
        trace_id = cleaned or None
    return TraceContext(trace_id or mint_id(), mint_id(), None)


@dataclass(frozen=True)
class Context:
    """What the current thread reports into; None fields fall back to the
    process defaults (the global recorder; no trace; no progress; no
    provenance)."""

    trace: Optional[TraceContext] = None
    #: a :class:`repro.obs.recorder.Recorder` shadowing the global one
    recorder: Optional[Any] = None
    progress: Optional[ProgressHook] = None
    #: a :class:`repro.obs.provenance.ProvenanceRecorder` journaling the
    #: engine's state-changing events
    provenance: Optional[Any] = None


_EMPTY = Context()
_local = threading.local()


def current() -> Context:
    """The current thread's context (an empty one when nothing is bound)."""
    return getattr(_local, "ctx", None) or _EMPTY


@contextmanager
def bound(**fields) -> Iterator[Context]:
    """Install the current context with ``fields`` replaced, for the
    current thread and the scope of the ``with``.

    Binding values that are already bound installs nothing, so a thread
    outside any job keeps the no-context fast path.
    """
    previous = getattr(_local, "ctx", None)
    base = previous or _EMPTY
    if all(getattr(base, name) is value for name, value in fields.items()):
        yield base
        return
    _local.ctx = ctx = replace(base, **fields)
    try:
        yield ctx
    finally:
        _local.ctx = previous


def reset() -> None:
    """Drop the current thread's context (test isolation)."""
    _local.ctx = None


def emit(event: dict) -> None:
    """Deliver one progress event to the bound hook.  Events are small
    JSON-plain dicts; subscriber exceptions are swallowed, because
    telemetry must never abort the analysis it watches."""
    hook = current().progress
    if hook is None:
        return
    try:
        hook(event)
    except Exception:
        pass
