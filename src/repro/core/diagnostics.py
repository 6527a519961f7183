"""Structured diagnostics for the resilient analysis engine.

Section VI defines ``T`` (top) as the *sound local answer* when the
client's inference power runs out.  The engine does not treat every
failure as a global abort: each recoverable failure — an unprovable
send-receive match, a lost process-set bound, an unexpected exception in
a client callback, a tripped resource budget, a structurally malformed
CFG — is recorded as a :class:`Diagnostic` carrying a stable code, the
pCFG node it poisoned, and enough detail to act on (which knob to turn;
see the README troubleshooting table).

``AnalysisResult.diagnostics`` collects the records in occurrence order
and ``AnalysisResult.confidence`` summarizes the run:

``exact``
    no degradation: the topology and invariants are the full answer;
``partial``
    some pCFG nodes fell to ``T`` or a resource budget tripped, but the
    surviving topology, final states, and node invariants are sound;
``gave_up``
    the run aborted before establishing anything useful (entry-state
    failure), or ``EngineLimits.strict`` turned the first failure into a
    global abort (the paper-fidelity behavior).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

from repro.core.pcfg import PCFGNodeKey

# -- stable diagnostic codes --------------------------------------------------

#: no provable send-receive match while process sets are blocked (Sec. VI T)
GIVEUP_NO_MATCH = "GIVEUP_NO_MATCH"
#: a process-set bound was lost (widening / merge / overwrite) or the
#: configuration exceeded the ``max_psets`` split budget (the paper's ``p``)
GIVEUP_PSET_BOUND = "GIVEUP_PSET_BOUND"
#: an unexpected exception escaped a client callback (isolated to local T)
CLIENT_FAULT = "CLIENT_FAULT"
#: the ``max_steps`` budget tripped
BUDGET_STEPS = "BUDGET_STEPS"
#: the wall-clock ``deadline_sec`` budget tripped
BUDGET_DEADLINE = "BUDGET_DEADLINE"
#: the ``max_state_bytes`` retained-state budget tripped
BUDGET_MEMORY = "BUDGET_MEMORY"
#: the CFG violated a structural invariant (successor arity)
CFG_MALFORMED = "CFG_MALFORMED"
#: a checkpoint snapshot failed integrity checks (bad JSON, bad checksum,
#: undecodable payload); the engine degraded to a cold start
CHECKPOINT_CORRUPT = "CHECKPOINT_CORRUPT"
#: a checkpoint snapshot was well-formed but belongs to a different format
#: version, program/CFG, or client analysis; the engine degraded to a cold start
CHECKPOINT_MISMATCH = "CHECKPOINT_MISMATCH"
#: a checkpoint snapshot could not be *written* (disk full, permissions,
#: directory vanished); the analysis continued without crash-safety for
#: that snapshot instead of crashing on the OSError
CHECKPOINT_IO = "CHECKPOINT_IO"

ALL_CODES = (
    GIVEUP_NO_MATCH,
    GIVEUP_PSET_BOUND,
    CLIENT_FAULT,
    BUDGET_STEPS,
    BUDGET_DEADLINE,
    BUDGET_MEMORY,
    CFG_MALFORMED,
    CHECKPOINT_CORRUPT,
    CHECKPOINT_MISMATCH,
    CHECKPOINT_IO,
)

#: the resource-budget codes: a budget trip cuts the run short without making
#: anything recorded wrong, so these are stripped when a run is resumed from
#: the trip's snapshot (the resumed run re-evaluates its own budgets)
BUDGET_CODES = (BUDGET_STEPS, BUDGET_DEADLINE, BUDGET_MEMORY)

# -- severities ---------------------------------------------------------------

ERROR = "error"      #: precision was lost at the diagnostic's node
WARNING = "warning"  #: the run was cut short but nothing recorded is wrong
INFO = "info"        #: noteworthy event that does not degrade the result
                     #: (e.g. a rejected checkpoint followed by a cold start)

# -- confidence levels --------------------------------------------------------

EXACT = "exact"
PARTIAL = "partial"
GAVE_UP = "gave_up"


@dataclass(frozen=True)
class Diagnostic:
    """One recorded degradation event.

    ``blocked`` carries the (CFG node id, process-set description) pairs
    that were blocked on communication when a ``GIVEUP_NO_MATCH`` fired —
    the bug detectors consume these.  ``callback`` names the originating
    client callback for ``CLIENT_FAULT`` records.
    """

    code: str
    message: str
    severity: str = ERROR
    #: the pCFG node poisoned to T (None for run-level diagnostics)
    node_key: Optional[PCFGNodeKey] = None
    blocked: Tuple[Tuple[int, str], ...] = ()
    callback: str = ""
    #: id of the provenance event recording this degradation — links the
    #: diagnostic into the flight recorder's derivation DAG, so
    #: ``repro explain --why-top`` can walk its causal chain.  None when
    #: provenance was disabled during the run.
    provenance_id: Optional[int] = None

    def format(self) -> str:
        """One-line human-readable rendering."""
        where = f" at pCFG node {self.node_key[0]}" if self.node_key else ""
        via = f" (client callback {self.callback!r})" if self.callback else ""
        return f"[{self.code}] {self.message}{where}{via}"


def summarize(diagnostics: Iterable[Diagnostic]) -> str:
    """Compact ``3x GIVEUP_NO_MATCH, 1x CLIENT_FAULT``-style tally."""
    counts = {}
    for diag in diagnostics:
        counts[diag.code] = counts.get(diag.code, 0) + 1
    if not counts:
        return "no diagnostics"
    return ", ".join(f"{count}x {code}" for code, count in sorted(counts.items()))
