"""Retry policy and per-rung circuit breaker for the analysis service.

Two distinct failure domains get two distinct mechanisms:

* **Attempt-level faults** — a worker process dying, a hung worker hit
  by its watchdog timeout — are *transient*: the job is retried with
  exponential backoff plus full jitter (``RetryPolicy``), bounded by
  ``max_retries``.  Jitter matters even in a single daemon: a burst of
  jobs that all hit the same sick worker pool must not retry in
  lockstep.
* **Rung-level faults** — a precision rung of the fallback ladder
  repeatedly giving up or throwing client faults — are *systemic*: a
  per-rung ``CircuitBreaker`` opens after ``threshold`` consecutive
  failures and closes again on a success.  The breaker is a health
  report, not a scheduler input: its state appears in ``/stats`` and
  ``/metrics``, and the scheduler skips no rung because of it, since
  history-dependent rung skipping would make a cached answer depend on
  the timing of earlier jobs.  (:meth:`CircuitBreaker.allows`, with its
  half-open probe after ``cooldown_sec``, is for a caller that gates on
  the breaker; the scheduler does not.)  The baseline rung is not
  tracked.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs import recorder as obs

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class TransientJobError(RuntimeError):
    """An attempt-level fault worth retrying (worker lost, watchdog
    timeout, unpicklable reply).  Anything else escaping a job attempt is
    treated as a permanent fault and degrades without retrying."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with full jitter."""

    max_retries: int = 2
    backoff_base_sec: float = 0.05
    backoff_cap_sec: float = 2.0

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The sleep before retry number ``attempt`` (0-based): uniform
        in ``[0, min(cap, base * 2**attempt)]`` — AWS-style full jitter."""
        ceiling = min(self.backoff_cap_sec, self.backoff_base_sec * (2 ** attempt))
        draw = (rng or random).random()
        return ceiling * draw


class _Circuit:
    __slots__ = ("state", "failures", "opened_at")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0


class CircuitBreaker:
    """Per-name (per-rung) three-state circuit breaker.  Thread-safe."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown_sec: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.threshold = max(1, int(threshold))
        self.cooldown_sec = float(cooldown_sec)
        self._clock = clock
        self._lock = threading.Lock()
        self._circuits: Dict[str, _Circuit] = {}

    def _get(self, name: str) -> _Circuit:
        circuit = self._circuits.get(name)
        if circuit is None:
            circuit = self._circuits[name] = _Circuit()
        return circuit

    def allows(self, name: str) -> bool:
        """Whether ``name`` may run now.

        An open circuit whose cooldown has elapsed transitions to
        half-open and admits exactly one probe; while the probe is in
        flight further calls are refused.
        """
        with self._lock:
            circuit = self._get(name)
            if circuit.state == CLOSED:
                return True
            if circuit.state == OPEN:
                if self._clock() - circuit.opened_at >= self.cooldown_sec:
                    circuit.state = HALF_OPEN
                    obs.incr("serve.breaker.probes")
                    return True
                return False
            # HALF_OPEN: one probe is already out
            return False

    def record_success(self, name: str) -> None:
        with self._lock:
            circuit = self._get(name)
            if circuit.state == HALF_OPEN:
                obs.incr("serve.breaker.closed")
            circuit.state = CLOSED
            circuit.failures = 0

    def record_failure(self, name: str) -> None:
        with self._lock:
            circuit = self._get(name)
            circuit.failures += 1
            if circuit.state == HALF_OPEN or circuit.failures >= self.threshold:
                if circuit.state != OPEN:
                    obs.incr("serve.breaker.opened")
                circuit.state = OPEN
                circuit.opened_at = self._clock()
                circuit.failures = 0

    def state(self, name: str) -> str:
        with self._lock:
            return self._get(name).state

    def snapshot(self) -> Dict[str, str]:
        """Rung name -> state, for ``/stats``."""
        with self._lock:
            return {name: c.state for name, c in self._circuits.items()}
