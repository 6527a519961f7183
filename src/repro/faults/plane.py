"""Deterministic, seeded cross-layer fault plane.

This module is the package's one fault injector: the switchboard every
layer of the pipeline registers with, so one seeded schedule can
misbehave anywhere from a client-analysis callback to the HTTP response,
and the invariant harness (:mod:`repro.faults.invariants`) can check the
end-to-end answer stays sound.  (The crash suite's SIGKILLs of the
daemon are the one fault it does not model.)

Design:

* **Named injection points** (:data:`CATALOG`) live at trust boundaries:
  disk writes in the checkpointer/cache/journal, cache reads, the
  daemon's attempt worker, queue and clock, the HTTP response path, the
  ``/metrics`` render, and the engine's client-callback guard.
  Instrumented code calls :func:`check(point) <check>`; the call
  answers ``None`` ("behave") or a :class:`PlannedFault` ("misbehave
  now, like this").
* **The client boundary** is ``PCFGEngine._call``, the guard that turns
  any exception escaping a client callback into a ``CLIENT_FAULT``.  Its
  ``client.*`` points make a bare client raise :class:`InjectedFault` or
  answer a :class:`CorruptedState`, so the shipping guard contains them.
* **Zero cost when disabled**: the process-global plane is ``None`` by
  default and :func:`check` is a single attribute test — production
  code pays one ``is None`` branch per boundary crossing.
* **Deterministic schedules**: a :class:`FaultSchedule` derives entirely
  from ``(base_seed, case_index)``.  Case *k* of a sweep always forces
  catalog point ``k mod len(CATALOG)`` to fire on its first arrival
  (so a full rotation exercises every point) plus a seeded handful of
  extra faults.  ``REPRO_FAULT_SEED=<base>[:<case>]`` replays any
  failing case exactly (:meth:`FaultSchedule.from_env`).
* **Coverage accounting**: the plane counts arrivals (``hits``) and
  injections (``fired``) per point; :meth:`FaultPlane.coverage` is what
  the harness folds into its never-exercised report.

Faults that simulate a crash *mid-write* (torn/fsync-then-crash) must
not actually kill the calling process — they manifest as an ``OSError``
after partial bytes hit the temp file, with the rename skipped, so the
target keeps its old content exactly as a real crash would leave it.
Real SIGKILLs are reserved for disposable worker processes.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from random import Random
from typing import Dict, Iterator, List, Optional

#: environment variable replaying one schedule: ``<base_seed>[:<case>]``
SEED_ENV = "REPRO_FAULT_SEED"

#: every registered injection point, name -> where it bites.  Ordered:
#: case ``k`` of a sweep forces point ``k mod len(CATALOG)``, so the
#: ordering is part of the replay contract — append, never reorder.
CATALOG: "Dict[str, str]" = {
    "ckpt.write.enospc": "checkpoint atomic write fails with ENOSPC mid-write",
    "ckpt.write.eio": "checkpoint atomic write fails with EIO at fsync",
    "ckpt.write.torn": "checkpoint write crashes mid-write (partial temp file)",
    "ckpt.write.crash": "checkpoint write crashes after fsync, before rename",
    "cache.write.enospc": "result-cache entry write fails with ENOSPC",
    "cache.read.corrupt": "result-cache entry read returns bit-flipped bytes",
    "journal.append.enospc": "journal append fails with ENOSPC before writing",
    "journal.append.torn": "journal append crashes mid-line (torn tail)",
    "daemon.worker.kill": "the daemon's attempt worker dies mid-attempt",
    "daemon.clock.pressure": "the attempt deadline collapses to near zero",
    "daemon.queue.overflow": "the admission queue reports full",
    "http.client.disconnect": "the HTTP client hangs up before the response",
    "metrics.render.fail": "the /metrics registry render raises mid-scrape",
    "client.callback.raise": "a guarded client-analysis callback raises",
    "client.state.corrupt": "a state-returning client callback returns a CorruptedState",
}

#: the guarded client callbacks whose return value is a client state:
#: the ones ``client.state.corrupt`` can answer with a
#: :class:`CorruptedState` instead of calling the client
STATE_CALLBACKS = frozenset({
    "initial", "transfer", "buffer_send", "merge_psets", "remove_pset",
    "rename", "drop_dead", "join", "widen",
})


class InjectedFault(RuntimeError):
    """What a ``client.*`` fault raises: an exception the engine never
    expects from a client, so its callback guard must contain it."""


class CorruptedState:
    """A client-state stand-in that raises on any attribute access.

    Models a client bug that returns garbage: the damage surfaces only
    when a later callback touches the state, far from where it was made.
    """

    def __init__(self, origin: str):
        object.__setattr__(self, "_origin", origin)

    def __getattr__(self, name):
        raise InjectedFault(
            f"corrupted state (injected at {self._origin!r}) accessed via .{name}"
        )

    def __repr__(self):
        return f"<CorruptedState from {self._origin!r}>"


@dataclass(frozen=True)
class PlannedFault:
    """One scheduled misbehavior: fire at the ``hit``-th arrival (1-based)
    at ``point``, for ``count`` consecutive arrivals.  ``arg`` is a
    point-specific knob (e.g. the fraction of bytes a torn write lands)."""

    point: str
    hit: int = 1
    count: int = 1
    arg: float = 0.5

    def covers(self, arrival: int) -> bool:
        return self.hit <= arrival < self.hit + self.count


class FaultSchedule:
    """A deterministic set of planned faults, replayable from its label."""

    def __init__(self, plans: List[PlannedFault], label: str = "", focus: str = ""):
        self.plans = list(plans)
        self.label = label
        self.focus = focus
        self.points = sorted({plan.point for plan in self.plans})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({self.label!r}, focus={self.focus!r}, plans={self.plans!r})"

    @classmethod
    def for_case(cls, base_seed: int, case_index: int) -> "FaultSchedule":
        """The schedule of sweep case ``case_index`` under ``base_seed``.

        The *focus* fault — catalog point ``case_index mod len(CATALOG)``,
        firing on its first arrival — guarantees a full sweep rotation
        exercises every registered point.  A seeded 0-2 extra faults land
        on other points at later arrivals, so cases also probe fault
        *combinations*, not just singletons.  Extras are drawn from the
        ``client.*`` points only when the focus is one: a client fault
        can end an engine run before the focus point is ever reached.
        """
        names = list(CATALOG)
        rng = Random(f"repro-faults:{base_seed}:{case_index}")
        focus = names[case_index % len(names)]
        client = focus.startswith("client.")
        extras = [name for name in names if client or not name.startswith("client.")]
        plans = [
            PlannedFault(
                point=focus,
                hit=1,
                count=1 + rng.randrange(2),
                arg=0.1 + 0.8 * rng.random(),
            )
        ]
        for _ in range(rng.randrange(3)):
            extra = rng.choice(extras)
            plans.append(
                PlannedFault(
                    point=extra,
                    hit=1 + rng.randrange(3),
                    count=1,
                    arg=0.1 + 0.8 * rng.random(),
                )
            )
        return cls(plans, label=f"{base_seed}:{case_index}", focus=focus)

    @classmethod
    def from_env(cls, value: Optional[str] = None) -> Optional["FaultSchedule"]:
        """Rebuild the schedule named by ``REPRO_FAULT_SEED`` (or an
        explicit ``value``) — ``"<base>"`` means case 0, ``"<base>:<case>"``
        any case.  None when unset/unparseable (never raises: a bad env
        var must not take the process down)."""
        raw = value if value is not None else os.environ.get(SEED_ENV, "")
        raw = raw.strip()
        if not raw:
            return None
        base, _, case = raw.partition(":")
        try:
            return cls.for_case(int(base), int(case) if case else 0)
        except ValueError:
            return None


class FaultPlane:
    """The live switchboard: arrival counting + planned-fault matching.

    Thread-safe — daemon worker threads, HTTP request threads, and the
    parent side of process pools all consult the same plane.  Worker
    *processes* run without one: a fork copies the live plane, so the
    daemon's attempt child and the driver's pool workers uninstall it
    first thing (a child's arrivals would never reach the parent's
    coverage).  Process-crossing faults are decided in the parent and
    shipped with the task.
    """

    def __init__(self, schedule: FaultSchedule):
        self.schedule = schedule
        self._lock = threading.Lock()
        self._arrivals: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}

    def check(self, point: str) -> Optional[PlannedFault]:
        """Count one arrival at ``point``; return the planned fault if
        this arrival is scheduled to misbehave, else None."""
        with self._lock:
            arrival = self._arrivals.get(point, 0) + 1
            self._arrivals[point] = arrival
            for plan in self.schedule.plans:
                if plan.point == point and plan.covers(arrival):
                    self._fired[point] = self._fired.get(point, 0) + 1
                    return plan
        return None

    def coverage(self) -> Dict[str, Dict[str, int]]:
        """Per-catalog-point arrival/injection counts (zero-filled)."""
        with self._lock:
            return {
                point: {
                    "hits": self._arrivals.get(point, 0),
                    "fired": self._fired.get(point, 0),
                }
                for point in CATALOG
            }

    def fired_points(self) -> List[str]:
        with self._lock:
            return sorted(point for point, n in self._fired.items() if n)


# -- the process-global switchboard -------------------------------------------

_active: Optional[FaultPlane] = None


def active() -> Optional[FaultPlane]:
    return _active


def install(schedule: FaultSchedule) -> FaultPlane:
    """Engage a schedule process-globally; returns the live plane."""
    global _active
    plane = FaultPlane(schedule)
    _active = plane
    return plane


def uninstall() -> None:
    global _active
    _active = None


def reset() -> None:
    """Test isolation hook (see :func:`repro.testing.reset_state`)."""
    uninstall()


@contextmanager
def engaged(schedule: FaultSchedule) -> Iterator[FaultPlane]:
    """Scoped installation: the plane is live inside the ``with`` body."""
    plane = install(schedule)
    try:
        yield plane
    finally:
        uninstall()


def check(point: str) -> Optional[PlannedFault]:
    """The one call instrumented code makes.  Disabled: a single ``is
    None`` test.  Enabled: count the arrival, maybe return a fault."""
    plane = _active
    if plane is None:
        return None
    return plane.check(point)


def corrupt_bytes(raw: bytes, arg: float) -> bytes:
    """Deterministically damage a byte payload for read-corruption faults:
    flip one bit at a position derived from ``arg`` (or truncate when the
    payload is long enough that truncation is the nastier damage)."""
    if not raw:
        return b"\xff"
    index = int(arg * (len(raw) - 1))
    if arg > 0.6 and len(raw) > 8:
        return raw[: max(1, index)]  # truncated tail
    flipped = raw[index] ^ 0x20
    return raw[:index] + bytes([flipped]) + raw[index + 1:]


__all__ = [
    "CATALOG",
    "SEED_ENV",
    "PlannedFault",
    "FaultSchedule",
    "FaultPlane",
    "active",
    "install",
    "uninstall",
    "reset",
    "engaged",
    "check",
    "corrupt_bytes",
    "STATE_CALLBACKS",
    "InjectedFault",
    "CorruptedState",
]
