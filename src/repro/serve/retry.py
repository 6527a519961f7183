"""Retry policy for the analysis service's attempts.

Attempt-level faults — a worker process dying, a hung worker hit by its
watchdog timeout — are *transient*: the job is retried with exponential
backoff plus full jitter (``RetryPolicy``), bounded by ``max_retries``.
Jitter matters even in a single daemon: a burst of jobs that all hit the
same sick worker pool must not retry in lockstep.  When the retries run
out, the scheduler answers with the baseline rung instead.

A precision rung that gives up is not a fault here: the fallback ladder
climbs past it within the one attempt, so its outcome depends only on
the program and the limits, never on the history of earlier jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


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
