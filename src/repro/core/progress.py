"""Ambient progress-hook switchboard for live streaming diagnostics.

The streaming job endpoint needs heartbeats from deep inside the
analysis — engine step counts and ladder rung starts — but the engines
are constructed many layers below the code that owns the event sink
(the daemon's job runner), inside rung runner functions whose
signatures the analyses own.  Threading a callback
through every one of those layers would turn a diagnostic feature into
an API migration.

Instead, the hook is *ambient per thread*, mirroring how
:func:`repro.obs.recorder.job_recording` isolates per-job counters: the
driver installs the job's callback with :func:`installed` around each
rung, and :class:`~repro.core.engine.PCFGEngine` captures
:func:`current` at construction.  Analyses stay untouched; concurrent
service jobs cannot see each other's hooks.

Discipline for emitters:

* events are small plain dicts (``{"event": "progress", ...}``) that
  must survive ``json.dumps`` and a multiprocessing pipe;
* emit through :func:`emit` (or guard the callable yourself) — a
  throwing subscriber must never abort an analysis;
* keep the cadence coarse (the engine heartbeats every
  ``HEARTBEAT_EVERY_STEPS`` steps), because each event may cross a
  process boundary and an HTTP chunk.

With no hook installed the cost is one thread-local read at engine
construction and one ``is None`` test per heartbeat gate — disabled
mode stays within the telemetry overhead budget.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

ProgressHook = Callable[[dict], None]

#: engine steps between heartbeat events — coarse enough that a 20k-step
#: budget emits at most ~80 events, fine enough to watch convergence
HEARTBEAT_EVERY_STEPS = 256

_local = threading.local()


def current() -> Optional[ProgressHook]:
    """The current thread's progress hook, or None."""
    return getattr(_local, "hook", None)


@contextmanager
def installed(hook: Optional[ProgressHook]) -> Iterator[None]:
    """Install ``hook`` for the current thread (None is a no-op)."""
    if hook is None:
        yield
        return
    previous = getattr(_local, "hook", None)
    _local.hook = hook
    try:
        yield
    finally:
        _local.hook = previous


def emit(event: dict) -> None:
    """Deliver one event to the current hook; subscriber exceptions are
    swallowed (telemetry must never abort the analysis it watches)."""
    hook = getattr(_local, "hook", None)
    if hook is None:
        return
    try:
        hook(event)
    except Exception:
        pass
