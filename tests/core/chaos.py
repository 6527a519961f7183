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
    """Seeded fault-injection wrapper around a real client analysis."""

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

    def _dispatch(self, callback: str, *args):
        corrupted = self._maybe_fault(callback)
        if corrupted is not None:
            return corrupted
        return getattr(self.inner, callback)(*args)

    # -- the full ClientAnalysis surface, uniformly wrapped ------------------

    def initial(self):
        return self._dispatch("initial")

    def num_psets(self, state):
        return self._dispatch("num_psets", state)

    def describe_pset(self, state, pos):
        return self._dispatch("describe_pset", state, pos)

    def transfer(self, state, pos, node):
        return self._dispatch("transfer", state, pos, node)

    def branch(self, state, pos, node):
        return self._dispatch("branch", state, pos, node)

    def try_match(self, state, locs, blocked, cfg):
        return self._dispatch("try_match", state, locs, blocked, cfg)

    def can_buffer(self, state, pos, node):
        return self._dispatch("can_buffer", state, pos, node)

    def buffer_send(self, state, pos, node):
        return self._dispatch("buffer_send", state, pos, node)

    def pending_sites(self, state):
        return self._dispatch("pending_sites", state)

    def is_empty(self, state, pos):
        return self._dispatch("is_empty", state, pos)

    def merge_psets(self, state, i, j):
        return self._dispatch("merge_psets", state, i, j)

    def remove_pset(self, state, pos):
        return self._dispatch("remove_pset", state, pos)

    def rename(self, state, perm):
        return self._dispatch("rename", state, perm)

    def drop_dead(self, state, locs, cfg):
        return self._dispatch("drop_dead", state, locs, cfg)

    def join(self, left, right):
        return self._dispatch("join", left, right)

    def widen(self, prev, new):
        return self._dispatch("widen", prev, new)

    def states_equal(self, left, right):
        return self._dispatch("states_equal", left, right)

    def state_fingerprint(self, state):
        return self._dispatch("state_fingerprint", state)

    # -- provenance and checkpoint hooks: forwarded, never faulted -----------
    # They are outside FAULTABLE; drawing from the rng here would shift the
    # fault schedule of every seeded run.

    def describe_transfer(self, old, new):
        return self.inner.describe_transfer(old, new)

    def match_explanation(self):
        return self.inner.match_explanation()

    def checkpoint_extra(self):
        return self.inner.checkpoint_extra()

    def restore_extra(self, data):
        return self.inner.restore_extra(data)
