"""Host-speed calibration for the timed figures.

The shared 2-CPU host runs the same CPU work 30-60% slower in some
phases than in others (other tenants contend for its cores and caches),
flipping within a second and drifting over tens of minutes.  After each
answer the benchmark times a fixed stdlib-only loop (dicts, tuples,
frozensets, method calls: the program's own mix, with no code of the
program in it, so no change to the program can move it) and scales the
answer's CPU time by ``NOMINAL_REFERENCE_S`` over the mean of the
readings just before and after it.  A figure thus reads as the time on
a host that runs the loop in ``NOMINAL_REFERENCE_S``, the loop's time
on an idle host of this class.  A ``paper_cold`` answer is CPU time
through and through; of a service latency, which is wall-clock, only
the part that the daemon, its attempt child and the client spent on a
CPU is scaled, and the waiting (a delayed ACK, an fsync) is kept as
measured.  A set-up probe scales its CPU time by readings it takes
just before and just after its set-up (``common.measure_setup``).
"""

from __future__ import annotations

from collections import defaultdict
from time import thread_time
from typing import Dict, List, Optional

#: the reference loop's CPU time on an idle 2-CPU host of this class
NOMINAL_REFERENCE_S = 0.001
#: short enough to read after every answer: the host's speed flips
#: within a second, and a reading every half second tracked it too late
#: (`paper_cold` spreads of 7-12% instead of 1-5%)
REFERENCE_ROUNDS = 1000
#: reference loops per reading; the reading is the fastest, since other
#: tenants' interference only ever slows a loop down
REFERENCE_REPEATS = 3


class _Node:
    __slots__ = ("seen", "tags")

    def __init__(self, seen: int, tags: frozenset) -> None:
        self.seen, self.tags = seen, tags

    def weight(self, step: int) -> int:
        return len(self.tags) + (step & 3) + (self.seen & 1)


def _reference_loop() -> float:
    began = thread_time()
    table: dict = {}
    total = 0
    for step in range(REFERENCE_ROUNDS):
        key = (step % 97, step % 89)
        node = table.get(key)
        if node is None:
            node = table[key] = _Node(step, frozenset((step % 7, step % 11, step % 13)))
        total += node.weight(step)
        if step % 5 == 0:
            table.pop((step % 31, step % 29), None)
    return thread_time() - began


def reference_seconds() -> float:
    """One reading: the least CPU time of a few reference loops."""
    return min(_reference_loop() for _ in range(REFERENCE_REPEATS))


def nominal(cpu_seconds: float, reference: float) -> float:
    """``cpu_seconds`` spent while the loop took ``reference``, on the
    nominal host."""
    return cpu_seconds * NOMINAL_REFERENCE_S / reference


class ScaledSamples:
    """Per-input latencies whose CPU part is scaled by the readings taken
    just before and just after the answer; the rest of a latency (waiting
    on a timer, the disk, a peer) is kept as measured."""

    def __init__(self) -> None:
        self.samples: Dict[object, List[float]] = defaultdict(list)
        self._last = reference_seconds()

    def add(self, key, seconds: float, cpu: Optional[float] = None) -> None:
        """One latency of ``seconds``, of which ``cpu`` (all of it if
        omitted) was CPU time.  Takes the reading after it, so call it
        between answers, outside any timed interval."""
        cpu = seconds if cpu is None else min(max(cpu, 0.0), seconds)
        reading = reference_seconds()
        scaled = nominal(cpu, (self._last + reading) / 2.0)
        self.samples[key].append(seconds - cpu + scaled)
        self._last = reading
