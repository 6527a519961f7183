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
Every client callback passes through one guard, ``_call``, which is also
where the fault plane injects client faults.
Resource budgets (``max_steps``, ``deadline_sec``, ``max_state_bytes``)
end the run with a ``partial`` result plus a budget diagnostic, never an
exception.  ``EngineLimits.strict`` restores the paper-fidelity
abort-on-first-failure behavior; in either mode ``run()`` never raises.

Checkpoint/resume
-----------------

All of one ``run()``'s fixpoint state lives in one :class:`Run`: the
:class:`AnalysisResult` being built (its ``node_states`` is the live
per-node state table), the visit counts, and the worklist heap with its
sequence counter.  A snapshot is that object, encoded (see
:mod:`repro.core.checkpoint`): a budget trip stores one in
``AnalysisResult.snapshot``, and a configured
:class:`~repro.core.checkpoint.Checkpointer` also persists them to disk —
periodically (``every_steps``), at every budget trip, and from an
``atexit`` hook when the interpreter dies with a run in flight.  A capture
taken inside an iteration (the budget trip's, or an ``atexit`` flush
mid-step) rolls that iteration back to the last step boundary, so a
resumed run replays the remaining schedule exactly and converges to the
identical result (same topology, states, diagnostics and step count) as
an uninterrupted run.  ``run(resume=...)`` decodes a snapshot object or
file into the run the loop continues, after verifying the CFG fingerprint
and client class; any rejected snapshot degrades to a cold start with a
``CHECKPOINT_CORRUPT`` / ``CHECKPOINT_MISMATCH`` diagnostic.
"""

from __future__ import annotations

import atexit
import heapq
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core import checkpoint as checkpoint_mod
from repro.core import diagnostics
from repro.core.client import (
    Alternatives,
    ClientAnalysis,
    ClientState,
    Decided,
    MatchResult,
    Split,
)
from repro.core.diagnostics import EXACT, INFO, Diagnostic
from repro.core.errors import ClientFault, GiveUp, MalformedCFG
from repro.core.pcfg import ExploredPCFG, PCFGEdge, PCFGNodeKey
from repro.core.topology import MatchRecord, StaticTopology
from repro.faults import plane as faults
from repro.lang.cfg import CFG, NodeKind
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

#: exceptions the engine localizes to a ``T`` at one pCFG node
RECOVERABLE = tuple(_FAILURE_KINDS)


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
    #: configurations where every process set reached the CFG exit
    final_states: List[ClientState] = field(default_factory=list)
    #: configurations that were blocked but only by possibly-empty psets
    vacuous_blocks: List[str] = field(default_factory=list)
    explored: ExploredPCFG = field(default_factory=ExploredPCFG)
    steps: int = 0
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
    #: the run's first non-INFO diagnostic was a ``GIVEUP_NO_MATCH`` that
    #: fired before the first widening, in a cold run.  Up to that give-up
    #: no precision knob had mattered (no widening, no split past
    #: ``max_psets``, no step trip), so a rerun with each knob at least as
    #: large replays the same steps to the same give-up; the fallback
    #: ladder skips such reruns (see :mod:`repro.core.driver`)
    giveup_before_widening: bool = False
    #: last checkpoint file written during this run, if any
    checkpoint_path: Optional[str] = None

    @property
    def gave_up(self) -> bool:
        """True when any degradation occurred (the result is not exact)."""
        return any(diag.severity != INFO for diag in self.diagnostics)

    @property
    def give_up_reason(self) -> str:
        """The first degradation's message ("" when none occurred)."""
        return next(
            (diag.message for diag in self.diagnostics if diag.severity != INFO), ""
        )

    @property
    def blocked_at_giveup(self) -> List[Tuple[int, str]]:
        """(CFG node id, process-set description) pairs blocked when giving up."""
        return [pair for diag in self.diagnostics for pair in diag.blocked]

    @property
    def matches(self):
        """The (send CFG node, recv CFG node) match relation."""
        return self.topology.node_edges()

    @property
    def match_records(self) -> List[MatchRecord]:
        """Symbolic match records."""
        return self.topology.records


@dataclass
class Run:
    """The fixpoint state of one ``run()``; a snapshot is this, encoded.

    ``result.node_states`` is the live per-node state table.  The worklist
    is a heap of ``(priority, seq, key)``: the sequence number breaks
    priority ties FIFO, and ``pending`` (its key set) suppresses duplicate
    enqueues.  ``open`` marks an iteration whose step is counted but not
    finished, and ``inflight`` the key it popped: a capture rolls both back
    (see :func:`repro.core.checkpoint.capture_run`).
    """

    result: AnalysisResult
    visits: Dict[PCFGNodeKey, int] = field(default_factory=dict)
    worklist: List[Tuple[tuple, int, PCFGNodeKey]] = field(default_factory=list)
    seq: int = 0
    pending: Set[PCFGNodeKey] = field(init=False)
    open: bool = field(default=False, init=False)
    inflight: Optional[PCFGNodeKey] = field(default=None, init=False)

    def __post_init__(self) -> None:
        heapq.heapify(self.worklist)  # a decoded heap: cheap re-check
        self.pending = {key for _, _, key in self.worklist}

    def push(self, key: PCFGNodeKey, priority: tuple) -> None:
        if key in self.pending:
            obs.incr("engine.worklist.dedup")
            return
        self.pending.add(key)
        heapq.heappush(self.worklist, (priority, self.seq, key))
        self.seq += 1

    def pop(self) -> PCFGNodeKey:
        _, _, key = heapq.heappop(self.worklist)
        self.pending.discard(key)
        self.inflight = key
        self.visits[key] = self.visits.get(key, 0) + 1
        return key


checkpoint_mod.register_codec(AnalysisResult, "analysis_result")
checkpoint_mod.register_codec(Run, "run")


class PCFGEngine:
    """Runs a client analysis over a program's pCFG.

    ``run()`` owns the scheduling (the priority worklist, budgets,
    degradation, checkpoint/resume); ``_step`` and ``_canonicalize`` are
    the per-configuration semantics (match/transfer/branch/buffer, then
    the join/widen lattice merge).  ``run()`` never raises: every
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
        #: the run in flight (the atexit hook's view)
        self._live_run: Optional[Run] = None
        #: CFG node id -> reverse-postorder rank (worklist priority domain)
        self._rpo: Dict[int, int] = cfg.rpo_index()
        #: the provenance flight recorder active for the current run (None
        #: when disabled — every emit site guards on this, so a disabled
        #: run pays one attribute check per site)
        self._prov: Optional[provenance.ProvenanceRecorder] = None
        #: provenance id of the current run's root event
        self._run_event: Optional[int] = None
        #: whether the current run has entered a widening yet
        self._widened = False
        #: the fault plane armed for the current run (None: disarmed)
        self._plane: Optional[faults.FaultPlane] = None

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
        client = self.client
        prov = self._prov = context.current().provenance
        self._plane = faults.active()
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
        self._intern = {}
        self._widened = False

        run = Run(AnalysisResult(topology=StaticTopology()))
        if resume is not None:
            run = self._resume(resume, run.result) or run
        result = run.result
        if not result.resumed_from:
            try:
                initial = self._call("initial", client.initial)
                entry_key = self._canonicalize(
                    run, None, [self.cfg.entry], initial, "entry", ""
                )
            except RECOVERABLE as failure:
                # a client raising from initial, or from is_empty/merge_psets/
                # join on the very first state, yields a gave_up result
                self._degrade(result, None, failure)
                self._finalize(result, aborted=True)
                return result
            if entry_key is not None:
                run.push(entry_key, self._priority(entry_key))

        if self.checkpointer is not None:
            self._live_run = run
            atexit.register(self._atexit_flush)

        aborted = False
        tripped = False
        try:
            while run.worklist:
                # open the iteration: a capture from here until it finishes
                # rolls it back.  A degraded iteration ends in ``continue``
                # unfinished, so its key is cleared here; left set, a trip
                # on this iteration would put it back on the heap twice
                result.steps += 1
                run.open, run.inflight = True, None
                obs.incr("engine.steps")
                obs.observe("engine.worklist.length", len(run.worklist))
                if self._progress is not None and (
                    result.steps == 1
                    or result.steps % HEARTBEAT_EVERY_STEPS == 0
                ):
                    try:
                        self._progress({
                            "event": "progress",
                            "phase": "engine",
                            "steps": result.steps,
                            "worklist": len(run.worklist),
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
                    usage = self._state_bytes(result.node_states)
                    if usage > limits.max_state_bytes:
                        self._record_budget(
                            result,
                            diagnostics.BUDGET_MEMORY,
                            f"retained state ~{usage} bytes exceeds budget "
                            f"{limits.max_state_bytes}",
                        )
                        tripped = True
                        break
                key = run.pop()
                try:
                    with obs.span("engine.step"):
                        successors = self._step(key, result.node_states[key], result)
                except RECOVERABLE as failure:
                    if self._degrade(result, key, failure):
                        continue
                    aborted = True
                    break
                for locs, succ_state, kind, detail in successors:
                    try:
                        succ_key = self._canonicalize(
                            run, key, locs, succ_state, kind, detail
                        )
                    except RECOVERABLE as failure:
                        # poison the producing node: this successor is lost,
                        # siblings already enqueued stay valid
                        if self._degrade(result, key, failure):
                            continue
                        aborted = True
                        break
                    if succ_key is not None:
                        run.push(succ_key, self._priority(succ_key))
                if aborted:
                    break
                run.open = False
                if (
                    self.checkpointer is not None
                    and self.checkpointer.every_steps > 0
                    and result.steps % self.checkpointer.every_steps == 0
                ):
                    with obs.span("engine.checkpoint"):
                        snap = self._capture(run)
                        if snap is not None:
                            self._write_checkpoint(snap, result)
        finally:
            if self.checkpointer is not None:
                atexit.unregister(self._atexit_flush)
                self._live_run = None
        if tripped:
            # the capture uncounts the tripping iteration, which popped
            # nothing: a resumed run then completes with exactly the step
            # count an uninterrupted run would report
            result.snapshot = self._capture(run)
            if result.snapshot is not None and self.checkpointer is not None:
                self._write_checkpoint(result.snapshot, result)
        self._finalize(result, aborted)
        return result

    # -- the client-callback guard -------------------------------------------------

    def _call(self, callback: str, fn, *args):
        """Invoke one client callback, converting unexpected exceptions
        into :class:`ClientFault` so a buggy client cannot take down the
        engine.  ``GiveUp`` and ``MalformedCFG`` pass through — they are
        the sanctioned control-flow signals.  It is also the fault plane's
        client boundary, so this very ``except`` contains injected faults;
        disarmed, the plane costs one ``is None``."""
        try:
            if self._plane is not None:
                if self._plane.check("client.callback.raise") is not None:
                    raise faults.InjectedFault(f"injected fault in {callback!r}")
                if (
                    callback in faults.STATE_CALLBACKS
                    and self._plane.check("client.state.corrupt") is not None
                ):
                    return faults.CorruptedState(callback)
            return fn(*args)
        except RECOVERABLE:
            raise
        except Exception as exc:
            raise ClientFault(callback, exc) from exc

    @staticmethod
    def _safe_provenance_data(fn, *args):
        """Call a client provenance hook; a buggy hook must never degrade
        the run, so any exception becomes an error marker in the event."""
        try:
            return fn(*args)
        except Exception as exc:
            return {"provenance_hook_error": f"{type(exc).__name__}: {exc}"}

    # -- one configuration -------------------------------------------------------

    def _step(
        self, key: PCFGNodeKey, state: ClientState, result
    ) -> List[Tuple[List[int], ClientState, str, str]]:
        locs = list(key[0])
        client = self.client
        prov = self._prov
        blocked = [self._is_blocking(nid) for nid in locs]

        # 1. send-receive matching (possibly several alternative worlds)
        match_start = time.perf_counter() if prov is not None else 0.0
        with obs.span("engine.match"):
            matches = self._call(
                "try_match", client.try_match, state, locs, blocked, self.cfg
            )
        obs.incr("engine.match.attempts")
        if prov is not None:
            # the client narrates its candidate pairs and verdicts (HSM
            # surjection / identity-composition, world splits); silent
            # steps — nothing blocked, no candidates — emit no event
            explain = self._safe_provenance_data(
                client.match_explanation
            )
            if explain is not None or matches:
                prov.emit(
                    "match_attempt",
                    node_key=key,
                    parents=(prov.node_event.get(key, self._run_event),),
                    detail=f"{len(matches)} match(es)",
                    data=explain,
                    step=result.steps,
                    dur=time.perf_counter() - match_start,
                )
        if matches:
            obs.incr("engine.matches", len(matches))
            return [self._apply_match(locs, match, result) for match in matches]

        # 2. advance one unblocked process set
        for pos, node_id in enumerate(locs):
            node = self.cfg.node(node_id)
            if node.kind in (NodeKind.RECV, NodeKind.SEND, NodeKind.EXIT):
                continue
            if node.kind == NodeKind.BRANCH:
                with obs.span("engine.branch"):
                    return self._apply_branch(locs, pos, node, state)
            with obs.span("engine.transfer"):
                new_state = self._call("transfer", client.transfer, state, pos, node)
            obs.incr("engine.transfers")
            if new_state is None:
                return []  # infeasible: path is dead
            new_locs = list(locs)
            new_locs[pos] = self._single_successor(node_id)
            return [(new_locs, new_state, "transfer", node.describe())]

        # 3. buffer a send (non-blocking extension)
        for pos, node_id in enumerate(locs):
            node = self.cfg.node(node_id)
            if node.kind == NodeKind.SEND and self._call(
                "can_buffer", client.can_buffer, state, pos, node
            ):
                new_state = self._call(
                    "buffer_send", client.buffer_send, state, pos, node
                )
                obs.incr("engine.buffers")
                new_locs = list(locs)
                new_locs[pos] = self._single_successor(node_id)
                return [(new_locs, new_state, "buffer", node.describe())]

        # 4. everything is blocked
        comm_blocked = [
            pos
            for pos, node_id in enumerate(locs)
            if self.cfg.node(node_id).kind in (NodeKind.SEND, NodeKind.RECV)
        ]
        if not comm_blocked:
            # all process sets at the CFG exit: a terminal pCFG node
            result.final_states.append(state)
            return []
        # blocked on communication with no provable match: if every blocked
        # set might be empty, the block may be vacuous — report, don't fail
        verdicts = [
            self._call("is_empty", client.is_empty, state, pos)
            for pos in comm_blocked
        ]
        if all(verdict is None for verdict in verdicts):
            description = ", ".join(
                f"{self._call('describe_pset', client.describe_pset, state, pos)} at "
                f"{self.cfg.node(locs[pos]).describe()}"
                for pos in comm_blocked
            )
            result.vacuous_blocks.append(description)
            return []
        blocked_info = [
            (locs[pos], self._call("describe_pset", client.describe_pset, state, pos))
            for pos in comm_blocked
        ]
        blocked_desc = "; ".join(
            f"{desc} blocked at {self.cfg.node(node_id).describe()}"
            for node_id, desc in blocked_info
        )
        raise GiveUp(
            f"no provable send-receive match: {blocked_desc}", blocked=blocked_info
        )

    # -- transition helpers ----------------------------------------------------------

    def _apply_match(
        self, locs: List[int], match: MatchResult, result
    ) -> Tuple[List[int], ClientState, str, str]:
        client = self.client
        new_count = self._call("num_psets", client.num_psets, match.state)
        new_locs = list(locs) + [0] * (new_count - len(locs))
        if match.sender_pos is not None:
            new_locs[match.sender_pos] = self._single_successor(match.send_node)
        new_locs[match.recv_pos] = self._single_successor(match.recv_node)
        if match.sender_residue is not None:
            new_locs[match.sender_residue] = match.send_node
        if match.recv_residue is not None:
            new_locs[match.recv_residue] = match.recv_node
        send_label = self.cfg.node(match.send_node).label
        recv_label = self.cfg.node(match.recv_node).label
        result.topology.add(
            MatchRecord(
                send_node=match.send_node,
                recv_node=match.recv_node,
                sender_desc=match.sender_desc,
                receiver_desc=match.receiver_desc,
                send_label=send_label,
                recv_label=recv_label,
                mtype_send=match.mtype_send,
                mtype_recv=match.mtype_recv,
            )
        )
        detail = f"{match.sender_desc} -> {match.receiver_desc}"
        return (new_locs, match.state, "match", detail)

    def _apply_branch(
        self, locs: List[int], pos: int, node, state: ClientState
    ) -> List[Tuple[List[int], ClientState, str, str]]:
        outcome = self._call("branch", self.client.branch, state, pos, node)
        obs.incr("engine.branches")
        if isinstance(outcome, Split):
            obs.incr("engine.splits")
        successors: List[Tuple[List[int], ClientState, str, str]] = []
        if isinstance(outcome, Decided):
            new_locs = list(locs)
            new_locs[pos] = self._branch_target(node.node_id, outcome.label)
            successors.append(
                (new_locs, outcome.state, "branch", f"{node.cond}={outcome.label}")
            )
        elif isinstance(outcome, Split):
            new_locs = list(locs)
            new_locs[pos] = self._branch_target(node.node_id, True)
            new_locs.append(self._branch_target(node.node_id, False))
            if len(new_locs) > self.limits.max_psets:
                raise GiveUp(
                    f"process-set count exceeds p={self.limits.max_psets}",
                    code=diagnostics.GIVEUP_PSET_BOUND,
                )
            successors.append((new_locs, outcome.state, "split", str(node.cond)))
        elif isinstance(outcome, Alternatives):
            for label, alt_state in outcome.outcomes:
                new_locs = list(locs)
                new_locs[pos] = self._branch_target(node.node_id, label)
                successors.append(
                    (new_locs, alt_state, "branch", f"{node.cond}={label}?")
                )
        else:
            raise ClientFault(
                "branch", TypeError(f"unknown branch outcome {outcome!r}")
            )
        return successors

    # -- canonicalization and state merging -----------------------------------------

    def _canonical_form(
        self, locs: Sequence[int], state: ClientState
    ) -> Optional[Tuple[PCFGNodeKey, ClientState, List[int]]]:
        """Canonicalize a raw successor into ``(key, state, merged_nodes)``.

        Pure with respect to any state table: prunes provably-empty process
        sets, folds sets that reached the same CFG node, sorts positions,
        lets the client drop dead state (:meth:`ClientAnalysis.drop_dead`),
        and derives the pCFG node key.  Returns None when every process set
        is empty (the successor vanishes).  ``merged_nodes`` lists the CFG
        nodes where folds happened — recorded only while provenance is on.
        """
        client = self.client
        prov = self._prov
        locs = list(locs)

        # prune provably-empty process sets
        pos = 0
        while pos < len(locs):
            if self._call("is_empty", client.is_empty, state, pos) is True:
                state = self._call("remove_pset", client.remove_pset, state, pos)
                del locs[pos]
            else:
                pos += 1
        if not locs:
            return None

        # merge process sets that reached the same CFG node
        merges: List[int] = []
        merged = True
        while merged:
            merged = False
            for i in range(len(locs)):
                for j in range(i + 1, len(locs)):
                    if locs[i] == locs[j]:
                        state = self._call(
                            "merge_psets", client.merge_psets, state, i, j
                        )
                        if prov is not None:
                            merges.append(locs[i])
                        del locs[j]
                        merged = True
                        break
                if merged:
                    break

        # canonical order: sort positions by CFG location (stable)
        perm = sorted(range(len(locs)), key=lambda p: (locs[p], p))
        if perm != list(range(len(locs))):
            state = self._call("rename", client.rename, state, perm)
            locs = [locs[p] for p in perm]
        state = self._call("drop_dead", client.drop_dead, state, locs, self.cfg)

        key: PCFGNodeKey = (
            tuple(locs),
            self._call("pending_sites", client.pending_sites, state),
        )
        return key, state, merges

    def _absorb(
        self,
        run: Run,
        key: PCFGNodeKey,
        state: ClientState,
        src_key: Optional[PCFGNodeKey],
        kind: str,
        detail: str,
        src_event: Optional[int] = None,
    ) -> Optional[PCFGNodeKey]:
        """Merge a canonical ``(key, state)`` into the run's state table.

        First visit inserts; revisits join (then widen past ``widen_after``
        visits) and detect the per-node fixed point.  Returns the key when
        the node's state changed (the caller should re-schedule it), None
        at a fixed point.  Raises :class:`GiveUp` when the lattice cannot
        represent the combination.
        """
        prov = self._prov
        result = run.result
        states = result.node_states
        state = self._interned(state)
        if key not in states:
            states[key] = state
            if prov is not None:
                prov.emit(
                    kind,
                    node_key=key,
                    parents=(src_event,),
                    detail=detail,
                    data=self._safe_provenance_data(
                        self.client.describe_transfer,
                        states.get(src_key) if src_key is not None else None,
                        state,
                    ),
                    step=result.steps,
                )
            return key
        old = states[key]
        if old is state:
            return None  # hash-consed identical state: fixed point, no join
        with obs.span("engine.join"):
            combined = self._call("join", self.client.join, old, state)
        obs.incr("engine.joins")
        if combined is None:
            raise GiveUp(
                f"states at pCFG node {key} cannot be joined",
                code=diagnostics.GIVEUP_PSET_BOUND,
            )
        widened_here = False
        if run.visits.get(key, 0) >= self.limits.widen_after:
            self._widened = True
            with obs.span("engine.widen"):
                widened = self._call("widen", self.client.widen, old, combined)
            obs.incr("engine.widenings")
            if widened is None:
                raise GiveUp(
                    f"widening lost process-set bounds at {key}",
                    code=diagnostics.GIVEUP_PSET_BOUND,
                )
            combined = widened
            widened_here = True
        combined = self._interned(combined)
        if old is combined or self._call(
            "states_equal", self.client.states_equal, old, combined
        ):
            return None  # fixed point at this node
        states[key] = combined
        if prov is not None:
            # a join/widen has two causes: the incoming edge's source and
            # whatever last defined this node's previous state
            prov.emit(
                "widen" if widened_here else "join",
                node_key=key,
                parents=(prov.node_event.get(key), src_event),
                detail=f"via {kind}" + (f" {detail}" if detail else ""),
                data=self._safe_provenance_data(
                    self.client.describe_transfer, old, combined
                ),
                step=result.steps,
            )
        return key

    def _canonicalize(
        self,
        run: Run,
        src_key: Optional[PCFGNodeKey],
        locs: Sequence[int],
        state: ClientState,
        kind: str,
        detail: str,
    ) -> Optional[PCFGNodeKey]:
        """Canonicalize a raw successor and absorb it into the run."""
        with obs.span("engine.canonicalize"):
            formed = self._canonical_form(locs, state)
            if formed is None:
                return None
            key, state, merges = formed
            result = run.result
            if src_key is not None:
                result.explored.add_edge(PCFGEdge(src_key, key, kind, detail))
            else:
                result.explored.add_node(key)

            # causal parent: the event that last defined the source node's
            # state (the run's root event for the entry configuration)
            prov = self._prov
            src_event: Optional[int] = None
            if prov is not None:
                src_event = (
                    prov.node_event.get(src_key) if src_key is not None else None
                )
                if src_event is None:
                    src_event = self._run_event
                if merges:
                    # the fold happened on the way to this node, so it sits
                    # between the source's defining event and the transition
                    src_event = prov.emit(
                        "merge",
                        parents=(src_event,),
                        detail="psets merged at CFG node(s) "
                        + ",".join(str(nid) for nid in merges),
                        step=result.steps,
                    )

            return self._absorb(run, key, state, src_key, kind, detail, src_event)

    def _priority(self, key: PCFGNodeKey) -> tuple:
        """Worklist priority of a pCFG node: the sorted tuple of RPO ranks
        of its CFG locations (lower = scheduled earlier)."""
        default_rank = len(self._rpo)
        return tuple(sorted(self._rpo.get(nid, default_rank) for nid in key[0]))

    def _interned(self, state: ClientState) -> ClientState:
        """Hash-cons ``state``: reuse the canonical object for its fingerprint.

        Clients that cannot fingerprint their states (``state_fingerprint``
        returns None) opt out per state; ``intern_states=False`` disables the
        table entirely.
        """
        if not self.intern_states:
            return state
        fp = self._call(
            "state_fingerprint", self.client.state_fingerprint, state
        )
        if fp is None:
            return state
        cached = self._intern.get(fp)
        if cached is not None:
            obs.incr("engine.intern.hits")
            return cached
        self._intern[fp] = state
        obs.incr("engine.intern.misses")
        return state

    # -- CFG helpers --------------------------------------------------------------

    def _is_blocking(self, node_id: int) -> bool:
        kind = self.cfg.node(node_id).kind
        return kind in (NodeKind.SEND, NodeKind.RECV, NodeKind.EXIT)

    def _single_successor(self, node_id: int) -> int:
        targets = [dst for dst, label in self.cfg.successors(node_id) if label is None]
        if len(targets) != 1:
            raise MalformedCFG(
                node_id, f"expected 1 unlabeled successor, found {len(targets)}"
            )
        return targets[0]

    def _branch_target(self, node_id: int, label: bool) -> int:
        targets = [dst for dst, lbl in self.cfg.successors(node_id) if lbl is label]
        if len(targets) != 1:
            raise MalformedCFG(
                node_id, f"expected 1 {label}-successor, found {len(targets)}"
            )
        return targets[0]

    # -- checkpoint/resume plumbing ---------------------------------------------

    def _resume(self, resume, result: AnalysisResult) -> Optional[Run]:
        """Decode a resume source into the run the loop continues.

        Returns None on any failure, recording an INFO-severity
        ``CHECKPOINT_*`` diagnostic on ``result`` (the cold start's) so the
        cold start that follows is still ``exact`` if nothing else degrades.
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
            run = checkpoint_mod.restore_run(snapshot, self)
            if not isinstance(run, Run):
                raise checkpoint_mod.SnapshotError(
                    diagnostics.CHECKPOINT_CORRUPT,
                    f"snapshot holds a {type(run).__name__}, not a run",
                )
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
        result = run.result
        # Budget diagnostics describe only the interrupted run (the resumed
        # run re-evaluates its own budgets), and the facts about how the
        # interrupted run was started or persisted are not this run's.
        result.diagnostics = [
            diag
            for diag in result.diagnostics
            if diag.code not in diagnostics.BUDGET_CODES
        ]
        result.resumed_from = source
        result.giveup_before_widening = False
        result.checkpoint_path = None
        # re-intern restored states so identity fast paths fire again
        states = result.node_states
        for key in list(states):
            states[key] = self._interned(states[key])
        obs.incr("engine.ckpt.resumes")
        prov = self._prov
        journal = snapshot.payload.get("provenance")
        if prov is not None:
            # take the interrupted run's journal as ours so the resumed
            # causal history is seamless, then record the stitch point
            if journal:
                prov.preload(journal)
            self._run_event = prov.emit(
                "checkpoint_resume",
                parents=(prov.last_event_id,),
                detail=source,
                step=result.steps,
            )
        slog.info("engine.resume", source=source, steps=result.steps)
        return run

    def _capture(self, run: Run):
        """Best-effort snapshot of the run (None on failure).

        Capture exercises the client's snapshot codecs; a client without
        registered codecs simply opts out — the run itself is never
        affected by a failed capture.
        """
        try:
            return checkpoint_mod.capture_run(self, run)
        except Exception:
            obs.incr("engine.ckpt.capture_errors")
            return None

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

        The flush may land mid-iteration; the capture rolls that iteration
        back to the last consistent step boundary.
        """
        run = self._live_run
        if run is None or self.checkpointer is None:
            return
        snap = self._capture(run)
        if snap is not None:
            self._write_checkpoint(snap, run.result)
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
        if not result.gave_up and not result.resumed_from and not self._widened:
            # the run's first non-INFO diagnostic (``diag`` is not yet recorded)
            result.giveup_before_widening = diag.code == diagnostics.GIVEUP_NO_MATCH
        result.diagnostics.append(diag)
        slog.warning(
            "engine.degrade",
            code=diag.code,
            node=list(key[0]) if key is not None else None,
            step=result.steps,
            strict=self.limits.strict,
            message=diag.message,
        )
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
        obs.incr(f"engine.budget.{code.split('_', 1)[1].lower()}")
        slog.warning(
            "engine.budget", code=code, step=result.steps, message=message
        )

    def _finalize(self, result: AnalysisResult, aborted: bool) -> None:
        # INFO diagnostics (e.g. a rejected checkpoint followed by a cold
        # start) record noteworthy events without degrading the result
        if not result.gave_up:
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
