"""The pCFG dataflow engine: Fig. 4's ``propagate``, operationalized.

The engine maintains abstract *configurations*: a tuple of CFG locations
(one per process set, positionally aligned with the client state's process
sets) plus the client state.  Configuration identity — the pCFG node — is
the sorted location tuple together with the multiset of in-flight send
sites.  Each engine step consumes one configuration and produces its pCFG
successors by, in priority order:

1. an exact send-receive match (``matchSendsRecvs``),
2. a CFG transition of one unblocked process set (transfer / branch,
   including rank-dependent branch *splits*),
3. buffering a send (the Section X non-blocking extension, when the client
   allows it),
4. termination, or the conservative ``T`` give-up when process sets are
   blocked on communication that cannot be matched.

Successor states are merged into previously-visited pCFG nodes via the
client's ``join``; nodes revisited more than ``widen_after`` times are
widened so loops converge to their invariant.

Scheduling and sharing
----------------------

The worklist is a priority queue keyed by reverse-postorder over the CFG:
a configuration's priority is the sorted tuple of RPO ranks of its
process-set locations, so upstream configurations are stabilized before
their downstream consumers and loop bodies settle before loop exits are
re-examined.  Ties break FIFO.  A membership set suppresses duplicate
enqueues (counted as ``engine.worklist.dedup``).

Canonicalized states are *interned* in a per-run hash-consing table keyed
by the client's ``state_fingerprint``: when a newly produced state is
semantically identical to one already seen, the existing object is reused
(``engine.intern.hits``), which turns the client's join / fixed-point
equality checks into pointer comparisons on the hot revisit path.

Resilience
----------

Section VI's ``T`` is a *local* answer, and the engine treats it as one:
a ``GiveUp`` (or an unexpected exception escaping a client callback, or a
malformed-CFG error) poisons only the offending configuration — the node
is marked ``T``, a :class:`~repro.core.diagnostics.Diagnostic` is
recorded, and the worklist keeps draining, so the rest of the topology,
final states and node invariants survive as a sound partial result.
Resource budgets (``max_steps``, ``deadline_sec``, ``max_state_bytes``)
end the run with a ``partial`` result plus a budget diagnostic, never an
exception.  ``EngineLimits.strict`` restores the paper-fidelity
abort-on-first-failure behavior; in either mode ``run()`` never raises.

Checkpoint/resume
-----------------

The engine's fixpoint state is *capturable*: a budget trip snapshots the
live worklist, per-node states, visit counts and step accounting into
``AnalysisResult.snapshot`` (see :mod:`repro.core.checkpoint`), and a
configured :class:`~repro.core.checkpoint.Checkpointer` additionally
persists snapshots to disk — periodically (``every_steps``), at every
budget trip, and from an ``atexit`` hook when the interpreter dies with a
run in flight.  ``run(resume=...)`` warm-starts from a snapshot object or
file after verifying the CFG fingerprint and client class; any rejected
snapshot degrades to a cold start with a ``CHECKPOINT_CORRUPT`` /
``CHECKPOINT_MISMATCH`` diagnostic.  Budget-trip snapshots are taken at a
step boundary, so a resumed run replays the remaining schedule exactly and
converges to the identical result (same topology, states and step count)
as an uninterrupted run.
"""

from __future__ import annotations

import atexit
import heapq
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core import checkpoint as checkpoint_mod
from repro.core import diagnostics
from repro.core.client import ClientAnalysis, ClientState
from repro.core.diagnostics import EXACT, Diagnostic
from repro.core.errors import ClientFault, GiveUp, MalformedCFG
from repro.core.pcfg import ExploredPCFG, PCFGNodeKey
from repro.core.step import RECOVERABLE, StepCore
from repro.core.topology import MatchRecord, StaticTopology
from repro.lang.cfg import CFG
from repro.obs import context, provenance, slog
from repro.obs import recorder as obs

#: engine steps between progress heartbeats: coarse enough that a
#: 20k-step budget emits at most ~80 events (each may cross a pipe and an
#: HTTP chunk), fine enough to watch convergence
HEARTBEAT_EVERY_STEPS = 256

#: recoverable-failure type -> provenance event kind / slog event name
_FAILURE_KINDS = {
    ClientFault: "client_fault",
    MalformedCFG: "cfg_malformed",
    GiveUp: "giveup",
}


@dataclass
class EngineLimits:
    """Safety, precision, and resource-budget knobs."""

    #: maximum engine steps before ending the run (runaway guard)
    max_steps: int = 20_000
    #: joins at a pCFG node before switching to widening
    widen_after: int = 2
    #: maximum process sets per configuration (the paper's ``p``)
    max_psets: int = 12
    #: wall-clock budget for one ``run()`` in seconds (None: unlimited)
    deadline_sec: Optional[float] = None
    #: retained-state budget in bytes (None: unlimited).  Measured with
    #: ``tracemalloc`` when tracing is active, otherwise approximated by
    #: shallow ``sys.getsizeof`` over the per-node state table — an
    #: order-of-magnitude guard, not an exact accounting.
    max_state_bytes: Optional[int] = None
    #: steps between memory-budget samples (the sample is not free)
    memory_check_every: int = 64
    #: paper-fidelity mode: abort the whole run on the first failure
    #: instead of localizing ``T`` to the offending pCFG node
    strict: bool = False


@dataclass
class AnalysisResult:
    """Everything the analysis established."""

    topology: StaticTopology
    #: True when any degradation occurred (the result is not exact)
    gave_up: bool = False
    #: first degradation's message (see ``diagnostics`` for all of them)
    give_up_reason: str = ""
    #: configurations where every process set reached the CFG exit
    final_states: List[ClientState] = field(default_factory=list)
    #: configurations that were blocked but only by possibly-empty psets
    vacuous_blocks: List[str] = field(default_factory=list)
    explored: ExploredPCFG = field(default_factory=ExploredPCFG)
    steps: int = 0
    #: (CFG node id, process-set description) pairs blocked when giving up
    blocked_at_giveup: List = field(default_factory=list)
    #: states per pCFG node (for inspecting loop invariants etc.)
    node_states: Dict[PCFGNodeKey, ClientState] = field(default_factory=dict)
    #: structured degradation records, in occurrence order
    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: ``exact`` | ``partial`` | ``gave_up`` (see :mod:`repro.core.diagnostics`)
    confidence: str = EXACT  # the `diagnostics` field shadows the module here
    #: pCFG nodes that fell to ``T`` (localized degradation)
    top_nodes: Set[PCFGNodeKey] = field(default_factory=set)
    #: budget-trip snapshot of the live fixpoint state (resume source for
    #: later runs / the fallback ladder); None when the run completed or
    #: the state could not be captured
    snapshot: Optional[object] = field(default=None, repr=False, compare=False)
    #: where this run warm-started from ("" = cold start)
    resumed_from: str = ""
    #: last checkpoint file written during this run, if any
    checkpoint_path: Optional[str] = None

    @property
    def matches(self):
        """The (send CFG node, recv CFG node) match relation."""
        return self.topology.node_edges()

    @property
    def match_records(self) -> List[MatchRecord]:
        """Symbolic match records."""
        return self.topology.records


class PCFGEngine(StepCore):
    """Runs a client analysis over a program's pCFG.

    The per-configuration semantics (match/transfer/branch/buffer and the
    join/widen lattice merges) live in :class:`repro.core.step.StepCore`;
    this class owns the *scheduling*: the priority worklist, budgets,
    degradation, and checkpoint/resume.  ``run()`` never raises: every
    failure mode — client give-up, client callback fault, malformed CFG,
    tripped budget — lands in ``AnalysisResult.diagnostics`` with a stable
    code.
    """

    def __init__(
        self,
        cfg: CFG,
        client: ClientAnalysis,
        limits: Optional[EngineLimits] = None,
        intern_states: bool = True,
        checkpointer: Optional["checkpoint_mod.Checkpointer"] = None,
    ):
        self.cfg = cfg
        self.client = client
        self.limits = limits or EngineLimits()
        self.intern_states = intern_states
        #: on-disk checkpoint sink (None: budget-trip snapshots stay in memory)
        self.checkpointer = checkpointer
        #: live streaming heartbeat sink: the progress hook of the thread's
        #: observability context (the driver binds it around each rung)
        self._progress = context.current().progress
        #: per-run hash-consing table: state fingerprint -> canonical state
        self._intern: Dict[Any, ClientState] = {}
        #: live fixpoint state while a run is in flight (the atexit hook's view)
        self._live: Optional[tuple] = None
        #: CFG node id -> reverse-postorder rank (worklist priority domain)
        self._rpo: Dict[int, int] = cfg.rpo_index()
        #: the provenance flight recorder active for the current run (None
        #: when disabled — every emit site guards on this, so a disabled
        #: run pays one attribute check per site)
        self._prov: Optional[provenance.ProvenanceRecorder] = None
        #: provenance id of the current run's root event
        self._run_event: Optional[int] = None

    # -- driving -----------------------------------------------------------------

    def run(self, resume=None) -> AnalysisResult:
        """Explore to fixed point and return the analysis result.

        ``resume`` optionally warm-starts the fixpoint from a
        :class:`~repro.core.checkpoint.Snapshot`, or a path to a snapshot
        file.  A snapshot that fails integrity or identity checks is
        rejected with a ``CHECKPOINT_CORRUPT`` / ``CHECKPOINT_MISMATCH``
        diagnostic and the run degrades to a cold start — resuming never
        raises and never taints the result.
        """
        with obs.span("engine.run"):
            return self._run(resume)

    def _run(self, resume=None) -> AnalysisResult:
        limits = self.limits
        result = AnalysisResult(topology=StaticTopology())
        client = self.client
        prov = self._prov = provenance.active()
        if prov is not None:
            self._run_event = prov.emit(
                "run_start",
                detail=f"client={type(client).__name__}",
                data={"cfg_nodes": len(self.cfg.nodes), "limits": {
                    "max_steps": limits.max_steps,
                    "widen_after": limits.widen_after,
                    "max_psets": limits.max_psets,
                    "strict": limits.strict,
                }},
            )
        else:
            self._run_event = None
        deadline = None
        if limits.deadline_sec is not None:
            deadline = time.monotonic() + limits.deadline_sec

        states: Dict[PCFGNodeKey, ClientState] = {}
        visits: Dict[PCFGNodeKey, int] = {}
        self._intern = {}

        # Priority worklist: process configurations in reverse-postorder of
        # their CFG locations so predecessors stabilize before successors.
        # The sequence number breaks priority ties FIFO.
        worklist: List[Tuple[tuple, int, PCFGNodeKey]] = []
        pending = set()
        seq_box = [0]

        def enqueue(key: PCFGNodeKey) -> None:
            if key in pending:
                obs.incr("engine.worklist.dedup")
                return
            pending.add(key)
            heapq.heappush(worklist, (self._priority(key), seq_box[0], key))
            seq_box[0] += 1

        restored = None
        if resume is not None:
            restored = self._try_resume(resume, result)
        if restored is not None:
            restored_run, source = restored
            result.steps = restored_run.steps
            seq_box[0] = restored_run.seq
            worklist = restored_run.worklist
            heapq.heapify(worklist)  # serialized in heap order; cheap re-check
            states = restored_run.states
            visits = restored_run.visits
            result.topology = restored_run.topology
            result.final_states = restored_run.final_states
            result.vacuous_blocks = restored_run.vacuous_blocks
            result.explored = restored_run.explored
            result.blocked_at_giveup = restored_run.blocked_at_giveup
            result.top_nodes = restored_run.top_nodes
            # Budget diagnostics describe only the interrupted run — the
            # resumed run re-evaluates its own budgets — so strip them and
            # recompute the give-up summary from what remains.
            kept = [
                diag
                for diag in restored_run.diagnostics
                if diag.code not in diagnostics.BUDGET_CODES
            ]
            result.diagnostics.extend(kept)
            result.gave_up = any(
                diag.severity != diagnostics.INFO for diag in kept
            )
            result.give_up_reason = next(
                (
                    diag.message
                    for diag in kept
                    if diag.severity != diagnostics.INFO
                ),
                "",
            )
            # re-intern restored states so identity fast paths fire again
            for key in list(states):
                states[key] = self._interned(states[key])
            pending.update(key for _, _, key in worklist)
            result.resumed_from = source
            obs.incr("engine.ckpt.resumes")
            if prov is not None:
                # splice the interrupted run's journal in front of ours so
                # the resumed causal history is seamless, then record the
                # stitch point
                if restored_run.provenance:
                    prov.preload(restored_run.provenance)
                self._run_event = prov.emit(
                    "checkpoint_resume",
                    parents=(prov.last_event_id,),
                    detail=source,
                    step=result.steps,
                )
            slog.info("engine.resume", source=source, steps=result.steps)
        else:
            try:
                initial = self._call("initial", client.initial)
            except RECOVERABLE as failure:
                self._degrade(result, None, failure)
                self._finalize(result, aborted=True)
                return result
            try:
                entry_key = self._canonicalize_into(
                    states, visits, None, [self.cfg.entry], initial, "entry", "",
                    result,
                )
            except RECOVERABLE as failure:
                # a client raising from is_empty/merge_psets/join on the very
                # first state must yield a gave_up result, not a traceback
                self._degrade(result, None, failure)
                result.node_states = states
                self._finalize(result, aborted=True)
                return result
            if entry_key is not None:
                enqueue(entry_key)

        #: key popped for the current iteration, not yet fully processed —
        #: an atexit flush must put it back to capture a consistent boundary
        inflight_box: List[Optional[PCFGNodeKey]] = [None]
        if self.checkpointer is not None:
            self._live = (result, states, visits, worklist, seq_box, inflight_box)
            atexit.register(self._atexit_flush)

        aborted = False
        tripped = False
        try:
            while worklist:
                result.steps += 1
                obs.incr("engine.steps")
                obs.observe("engine.worklist.length", len(worklist))
                if self._progress is not None and (
                    result.steps == 1
                    or result.steps % HEARTBEAT_EVERY_STEPS == 0
                ):
                    try:
                        self._progress({
                            "event": "progress",
                            "phase": "engine",
                            "steps": result.steps,
                            "worklist": len(worklist),
                        })
                    except Exception:
                        self._progress = None
                if result.steps > limits.max_steps:
                    self._record_budget(
                        result,
                        diagnostics.BUDGET_STEPS,
                        f"engine step limit {limits.max_steps} exceeded",
                    )
                    tripped = True
                    break
                if deadline is not None and time.monotonic() > deadline:
                    self._record_budget(
                        result,
                        diagnostics.BUDGET_DEADLINE,
                        f"wall-clock deadline {limits.deadline_sec}s exceeded "
                        f"after {result.steps} steps",
                    )
                    tripped = True
                    break
                if (
                    limits.max_state_bytes is not None
                    and result.steps % max(1, limits.memory_check_every) == 0
                ):
                    usage = self._state_bytes(states)
                    if usage > limits.max_state_bytes:
                        self._record_budget(
                            result,
                            diagnostics.BUDGET_MEMORY,
                            f"retained state ~{usage} bytes exceeds budget "
                            f"{limits.max_state_bytes}",
                        )
                        tripped = True
                        break
                _, _, key = heapq.heappop(worklist)
                pending.discard(key)
                inflight_box[0] = key
                visits[key] = visits.get(key, 0) + 1
                state = states[key]
                try:
                    with obs.span("engine.step"):
                        successors = self._step(key, state, result)
                except RECOVERABLE as failure:
                    if self._degrade(result, key, failure):
                        continue
                    aborted = True
                    break
                for locs, succ_state, kind, detail in successors:
                    try:
                        succ_key = self._canonicalize_into(
                            states, visits, key, locs, succ_state, kind, detail,
                            result,
                        )
                    except RECOVERABLE as failure:
                        # poison the producing node: this successor is lost,
                        # siblings already enqueued stay valid
                        if self._degrade(result, key, failure):
                            continue
                        aborted = True
                        break
                    if succ_key is not None:
                        enqueue(succ_key)
                if aborted:
                    break
                inflight_box[0] = None
                if (
                    self.checkpointer is not None
                    and self.checkpointer.every_steps > 0
                    and result.steps % self.checkpointer.every_steps == 0
                ):
                    with obs.span("engine.checkpoint"):
                        snap = self._capture(
                            result, states, visits, worklist, seq_box[0]
                        )
                        if snap is not None:
                            self._write_checkpoint(snap, result)
        finally:
            if self.checkpointer is not None:
                atexit.unregister(self._atexit_flush)
                self._live = None
        if tripped:
            # The tripping iteration popped nothing, so the snapshot records
            # one step fewer: a resumed run then completes with exactly the
            # step count an uninterrupted run would report.
            snap = self._capture(
                result,
                states,
                visits,
                worklist,
                seq_box[0],
                steps_override=result.steps - 1,
            )
            if snap is not None:
                result.snapshot = snap
                if self.checkpointer is not None:
                    self._write_checkpoint(snap, result)
        result.node_states = states
        self._finalize(result, aborted)
        return result

    # -- checkpoint/resume plumbing ---------------------------------------------

    def _try_resume(self, resume, result: AnalysisResult):
        """Validate and decode a resume source.

        Returns ``(RestoredRun, source_description)`` on success, None on
        any failure — recording an INFO-severity ``CHECKPOINT_*``
        diagnostic so the cold start that follows is still ``exact`` if
        nothing else degrades.
        """
        try:
            if isinstance(resume, (str, Path)):
                source = f"checkpoint:{resume}"
                snapshot = checkpoint_mod.load_snapshot(resume)
            elif isinstance(resume, checkpoint_mod.Snapshot):
                snapshot = resume
                source = snapshot.describe()
            else:
                raise checkpoint_mod.SnapshotError(
                    diagnostics.CHECKPOINT_MISMATCH,
                    f"unsupported resume source {type(resume).__name__}",
                )
            restored_run = checkpoint_mod.restore_run(snapshot, self)
        except checkpoint_mod.SnapshotError as exc:
            prov = self._prov
            event_id = None
            if prov is not None:
                event_id = prov.emit(
                    "checkpoint_rejected",
                    parents=(self._run_event,),
                    detail=f"{exc.code}: {exc}",
                )
            result.diagnostics.append(
                Diagnostic(
                    code=exc.code,
                    message=f"{exc}; falling back to a cold start",
                    severity=diagnostics.INFO,
                    provenance_id=event_id,
                )
            )
            if exc.code == diagnostics.CHECKPOINT_CORRUPT:
                obs.incr("engine.ckpt.corrupt")
            else:
                obs.incr("engine.ckpt.mismatch")
            slog.warning("engine.resume_rejected", code=exc.code, error=str(exc))
            return None
        return restored_run, source

    def _capture(
        self, result, states, visits, worklist, seq_next, steps_override=None
    ):
        """Best-effort snapshot of the live fixpoint state (None on failure).

        Capture exercises the client's snapshot codecs; a client without
        registered codecs simply opts out — the run itself is never
        affected by a failed capture.
        """
        saved = result.steps
        if steps_override is not None:
            result.steps = steps_override
        try:
            return checkpoint_mod.capture_run(
                self, result, states, visits, worklist, seq_next
            )
        except Exception:
            obs.incr("engine.ckpt.capture_errors")
            return None
        finally:
            result.steps = saved

    def _write_checkpoint(self, snap, result: AnalysisResult) -> None:
        """Persist a snapshot; a failed write never fails the run.

        An I/O failure (``CHECKPOINT_IO``) is surfaced once per run as an
        INFO diagnostic — the analysis result stays sound (and can stay
        ``exact``), but the caller learns crash-safety silently lapsed.
        """
        try:
            path = self.checkpointer.write(snap)
            result.checkpoint_path = str(path)
        except Exception as exc:
            obs.incr("engine.ckpt.write_errors")
            code = getattr(exc, "code", diagnostics.CHECKPOINT_IO)
            if not any(d.code == code for d in result.diagnostics):
                result.diagnostics.append(
                    Diagnostic(
                        code=code,
                        message=f"checkpoint write failed: {exc}; "
                                "the run continues without this snapshot",
                        severity=diagnostics.INFO,
                    )
                )
            slog.warning("engine.checkpoint_failed", code=code, error=str(exc))
            return
        prov = self._prov
        if prov is not None:
            prov.emit(
                "checkpoint_write",
                parents=(
                    prov.last_event_id
                    if prov.last_event_id is not None
                    else self._run_event,
                ),
                detail=str(path),
                step=result.steps,
            )
        slog.info("engine.checkpoint", path=str(path), steps=result.steps)

    def _atexit_flush(self) -> None:
        """Interpreter exiting with a run in flight: flush a last snapshot.

        The flush may land mid-iteration: the current key is popped, its
        visit already counted, but its successors not yet enqueued.  The
        snapshot rolls that iteration back — re-enqueue the key, undo its
        visit and step — so it captures the last consistent boundary.
        """
        live = self._live
        if live is None or self.checkpointer is None:
            return
        result, states, visits, worklist, seq_box, inflight_box = live
        steps = result.steps
        inflight = inflight_box[0]
        if inflight is not None:
            worklist = list(worklist) + [
                (self._priority(inflight), seq_box[0], inflight)
            ]
            visits = dict(visits)
            visits[inflight] = visits.get(inflight, 1) - 1
            steps -= 1
        snap = self._capture(
            result, states, visits, worklist, seq_box[0], steps_override=steps
        )
        if snap is not None:
            self._write_checkpoint(snap, result)
            obs.incr("engine.ckpt.atexit_writes")

    # -- degradation and budgets ---------------------------------------------------

    def _degrade(
        self,
        result: AnalysisResult,
        key: Optional[PCFGNodeKey],
        failure: Exception,
    ) -> bool:
        """Record ``failure`` and poison ``key`` with a local ``T``.

        Returns True when the run may continue draining the worklist
        (non-strict mode), False when it must abort (strict mode)."""
        prov = self._prov
        event_id = None
        if prov is not None:
            parent = prov.node_event.get(key) if key is not None else None
            event_id = prov.emit(
                _FAILURE_KINDS[type(failure)],
                node_key=key,
                parents=(parent if parent is not None else self._run_event,),
                detail=str(failure),
                step=result.steps,
            )
        if isinstance(failure, ClientFault):
            diag = Diagnostic(
                code=diagnostics.CLIENT_FAULT,
                message=str(failure),
                node_key=key,
                callback=failure.callback,
                provenance_id=event_id,
            )
            obs.incr("engine.recover.client_fault")
        elif isinstance(failure, MalformedCFG):
            diag = Diagnostic(
                code=diagnostics.CFG_MALFORMED,
                message=str(failure),
                node_key=key,
                provenance_id=event_id,
            )
        else:  # GiveUp
            diag = Diagnostic(
                code=failure.code,
                message=failure.reason,
                node_key=key,
                blocked=tuple((nid, desc) for nid, desc in failure.blocked),
                provenance_id=event_id,
            )
            result.blocked_at_giveup.extend(failure.blocked)
        result.diagnostics.append(diag)
        slog.warning(
            "engine.degrade",
            code=diag.code,
            node=list(key[0]) if key is not None else None,
            step=result.steps,
            strict=self.limits.strict,
            message=diag.message,
        )
        result.gave_up = True
        if not result.give_up_reason:
            result.give_up_reason = diag.message
        if self.limits.strict:
            return False
        if key is not None:
            result.top_nodes.add(key)
        obs.incr("engine.recover.local_top")
        return True

    def _record_budget(self, result: AnalysisResult, code: str, message: str) -> None:
        """A resource budget tripped: end the run as a sound partial result."""
        prov = self._prov
        event_id = None
        if prov is not None:
            event_id = prov.emit(
                "budget_trip",
                parents=(
                    prov.last_event_id
                    if prov.last_event_id is not None
                    else self._run_event,
                ),
                detail=f"{code}: {message}",
                step=result.steps,
            )
        result.diagnostics.append(
            Diagnostic(
                code=code,
                message=message,
                severity=diagnostics.WARNING,
                provenance_id=event_id,
            )
        )
        result.gave_up = True
        if not result.give_up_reason:
            result.give_up_reason = message
        obs.incr(f"engine.budget.{code.split('_', 1)[1].lower()}")
        slog.warning(
            "engine.budget", code=code, step=result.steps, message=message
        )

    def _finalize(self, result: AnalysisResult, aborted: bool) -> None:
        # INFO diagnostics (e.g. a rejected checkpoint followed by a cold
        # start) record noteworthy events without degrading the result
        meaningful = [
            diag
            for diag in result.diagnostics
            if diag.severity != diagnostics.INFO
        ]
        if not meaningful:
            result.confidence = diagnostics.EXACT
        elif aborted:
            result.confidence = diagnostics.GAVE_UP
        else:
            result.confidence = diagnostics.PARTIAL

    def _state_bytes(self, states: Dict[PCFGNodeKey, ClientState]) -> int:
        """Approximate retained-state footprint for the memory budget."""
        if tracemalloc.is_tracing():
            return tracemalloc.get_traced_memory()[0]
        total = sys.getsizeof(states) + sys.getsizeof(self._intern)
        for state in states.values():
            total += sys.getsizeof(state)
        return total
