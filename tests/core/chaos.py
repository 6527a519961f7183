"""Fault-injection harness for the resilient pCFG engine.

``ChaosClient`` wraps a real :class:`~repro.core.client.ClientAnalysis`
and, on a seeded schedule, makes its callbacks misbehave the way buggy
client code does in practice:

* raise an arbitrary exception (``ChaosError``) out of any callback;
* return a :class:`CorruptedState` — an object that explodes on *any*
  attribute access — from a state-producing callback, so the damage
  surfaces later, inside a different callback, far from the fault site.

Everything is driven by one ``random.Random(seed)``: a given
``(program, seed, fault_rate)`` triple replays the exact same fault
schedule, which is what the CI chaos job relies on (it prints the seed on
failure).  The injection log records every fault for debugging.

This module deliberately lives under ``tests/``: it is test
infrastructure, not a shipping feature.
"""

from __future__ import annotations

import os
import random
from typing import List, Optional

from repro.core.client import ClientAnalysis
from repro.faults.plane import SEED_ENV


def default_seed() -> int:
    """The harness-wide base seed: the base of ``REPRO_FAULT_SEED``
    (``<base>[:<case>]``, the fault plane's replay convention), default 1337.

    Reading the environment at call time (not import time) lets a test
    process tighten the seed mid-session, matching the reproduction
    instructions CI prints on failure.
    """
    base = os.environ.get(SEED_ENV, "").strip().partition(":")[0]
    return int(base) if base else 1337


#: callbacks the engine routes through its fault guard; chaos can hit any
FAULTABLE = (
    "initial",
    "num_psets",
    "describe_pset",
    "transfer",
    "branch",
    "try_match",
    "can_buffer",
    "buffer_send",
    "pending_sites",
    "is_empty",
    "merge_psets",
    "remove_pset",
    "rename",
    "drop_dead",
    "join",
    "widen",
    "states_equal",
    "state_fingerprint",
)

#: callbacks whose return value is (or contains) a client state — these can
#: additionally be corrupted instead of raising, so the failure surfaces in
#: a *later* callback that tries to use the state
CORRUPTIBLE = (
    "initial",
    "transfer",
    "merge_psets",
    "remove_pset",
    "rename",
    "drop_dead",
    "join",
    "widen",
)


class ChaosError(RuntimeError):
    """The injected fault: an arbitrary exception the engine never expects."""


class CorruptedState:
    """A state stand-in that raises on any attribute access.

    Models a client bug that returns garbage: the engine (or the wrapped
    client) only discovers the corruption when it next touches the state.
    """

    def __init__(self, origin: str):
        object.__setattr__(self, "_origin", origin)

    def __getattr__(self, name):
        raise ChaosError(
            f"corrupted state (injected at {self._origin!r}) accessed "
            f"via .{name}"
        )

    def __repr__(self):
        return f"<CorruptedState from {object.__getattribute__(self, '_origin')!r}>"


class ChaosClient(ClientAnalysis):
    """Seeded fault-injection wrapper around a real client analysis.

    Its hooks are generated below, one per public ClientAnalysis method:
    each FAULTABLE callback draws a fault first, every other hook is
    forwarded to the inner client untouched.
    """

    def __init__(
        self,
        inner: ClientAnalysis,
        seed: Optional[int] = None,
        fault_rate: float = 0.05,
        corrupt_rate: float = 0.3,
        only: Optional[List[str]] = None,
    ):
        self.inner = inner
        self.seed = default_seed() if seed is None else seed
        self.rng = random.Random(self.seed)
        self.fault_rate = fault_rate
        #: of the injected faults on CORRUPTIBLE callbacks, the fraction
        #: that corrupt the return value instead of raising
        self.corrupt_rate = corrupt_rate
        self.only = set(only) if only is not None else None
        #: (callback, kind) pairs in injection order, for debugging
        self.log: List[tuple] = []

    def _maybe_fault(self, callback: str):
        if self.only is not None and callback not in self.only:
            return None
        if self.rng.random() >= self.fault_rate:
            return None
        if callback in CORRUPTIBLE and self.rng.random() < self.corrupt_rate:
            self.log.append((callback, "corrupt"))
            return CorruptedState(callback)
        self.log.append((callback, "raise"))
        raise ChaosError(f"injected fault in {callback!r}")

    def _dispatch(self, callback: str, *args, **kwargs):
        corrupted = self._maybe_fault(callback)
        if corrupted is not None:
            return corrupted
        return getattr(self.inner, callback)(*args, **kwargs)


def _faulted(callback: str):
    def hook(self, *args, **kwargs):
        return self._dispatch(callback, *args, **kwargs)

    return hook


def _forwarded(name: str):
    # never faulted: drawing from the rng here would shift the fault
    # schedule of every seeded run
    def hook(self, *args, **kwargs):
        return getattr(self.inner, name)(*args, **kwargs)

    return hook


#: every public method of the client protocol; a hook added to
#: ClientAnalysis later reaches the inner client without an edit here
HOOKS = tuple(
    name
    for name, member in vars(ClientAnalysis).items()
    if callable(member) and not name.startswith("_")
)
assert set(FAULTABLE) <= set(HOOKS), set(FAULTABLE) - set(HOOKS)

for _name in HOOKS:
    _hook = _faulted(_name) if _name in FAULTABLE else _forwarded(_name)
    _hook.__name__, _hook.__qualname__ = _name, f"ChaosClient.{_name}"
    setattr(ChaosClient, _name, _hook)
del _name, _hook
