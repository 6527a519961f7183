"""Concrete execution substrate for MPL programs.

This package implements the Section III execution model operationally: ``np``
processes run the same program, sends are non-blocking and buffered on FIFO
per-pair channels, receives block until a message from the designated sender
arrives.  It provides the *ground truth* against which the static analyses
are validated:

* :class:`~repro.runtime.interpreter.Machine` — runs a program under a
  pluggable scheduler and records a :class:`~repro.runtime.trace.Trace`.
* :mod:`~repro.runtime.scheduler` — deterministic and randomized interleaving
  schedulers, used to test the model's interleaving-obliviousness property
  (paper Appendix).
* :func:`~repro.runtime.interpreter.run_program` — one-call helper.
"""

from repro.runtime.channels import ChannelNetwork
from repro.runtime.interpreter import (
    DeadlockError,
    InputExhaustedError,
    Machine,
    MPLAssertionError,
    Observation,
    StepLimitError,
    observe_program,
    run_program,
)
from repro.runtime.scheduler import (
    RandomScheduler,
    ReverseScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from repro.runtime.trace import MatchEvent, Topology, Trace

__all__ = [
    "Machine",
    "run_program",
    "observe_program",
    "Observation",
    "DeadlockError",
    "InputExhaustedError",
    "MPLAssertionError",
    "StepLimitError",
    "ChannelNetwork",
    "Scheduler",
    "RoundRobinScheduler",
    "ReverseScheduler",
    "RandomScheduler",
    "Trace",
    "MatchEvent",
    "Topology",
]
