"""Client-analysis interface for the pCFG framework.

The paper's Fig. 4 leaves several operations to the *client analysis*
(underlined in the dataflow formulas): the representation of dataflow state
and process sets, the transfer function, send-receive matching, process-set
splitting and renaming, and the union/widening operators.  This module
defines the contract the engine expects.

A client's analysis state is opaque to the engine except through these
operations.  Process sets are addressed *positionally*: a state tracks
``num_psets()`` sets, and the engine keeps a parallel tuple assigning each
position its current CFG node.  When sets split, merge or die, the client
returns a new state and the engine re-derives positions from the outcome
objects below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.lang.cfg import CFGNode


class ClientState:
    """Marker base class for client analysis states (opaque to the engine)."""


@dataclass
class Decided:
    """Branch outcome: the whole process set takes one side."""

    label: bool
    state: ClientState


@dataclass
class Split:
    """Branch outcome: the set splits on a rank-dependent condition.

    The pset at the branching position keeps the *true* subset; a new pset
    (appended at position ``num_psets()-1`` of ``state``) holds the *false*
    subset.  Either subset may be empty; the engine prunes empties via
    :meth:`ClientAnalysis.is_empty`.
    """

    state: ClientState


@dataclass
class Alternatives:
    """Branch outcome: the set may take either side.

    Two cases return it: an undecidable data-dependent branch, and a
    rank-dependent ``if`` that cannot be split exactly but is local
    (``CFGNode.local_if``: no communication in its arms, nothing they
    assign read afterwards), whose members take both arms at once.  The
    engine explores each ``(label, state)`` as a separate pCFG successor
    (a may-analysis over both paths); for the local ``if`` the states
    assume nothing about the condition and the arms join again at the
    node after it.
    """

    outcomes: List[Tuple[bool, ClientState]]


BranchOutcome = object  # Decided | Split | Alternatives


@dataclass
class MatchResult:
    """A successful exact send-receive match.

    ``state`` reflects the world after the match: psets possibly split
    (matched subsets keep the original positions; residues appended in the
    order ``sender residue, receiver residue``) and received values
    propagated into the receiving set's namespace.

    For a match against a *buffered* (in-flight) send, ``sender_pos`` is
    None.
    """

    state: ClientState
    sender_pos: Optional[int]
    recv_pos: int
    send_node: int
    recv_node: int
    sender_desc: str
    receiver_desc: str
    sender_residue: Optional[int] = None
    recv_residue: Optional[int] = None
    mtype_send: str = "int"
    mtype_recv: str = "int"


class ClientAnalysis:
    """The operations a client must provide (paper Fig. 4, underlined)."""

    # -- lifecycle ------------------------------------------------------------

    def initial(self) -> ClientState:
        """State with a single process set ``[0..np-1]`` (defaultState)."""
        raise NotImplementedError

    def num_psets(self, state: ClientState) -> int:
        """Number of process sets tracked by the state."""
        raise NotImplementedError

    def describe_pset(self, state: ClientState, pos: int) -> str:
        """Printable symbolic description of one process set."""
        raise NotImplementedError

    # -- dataflow --------------------------------------------------------------

    def transfer(
        self, state: ClientState, pos: int, node: CFGNode
    ) -> Optional[ClientState]:
        """Transfer function for a non-branch, non-communication node.

        Returns None when the state becomes infeasible.
        """
        raise NotImplementedError

    def branch(
        self, state: ClientState, pos: int, node: CFGNode
    ) -> BranchOutcome:
        """Resolve a branch for the pset at ``pos``: Decided/Split/Alternatives."""
        raise NotImplementedError

    # -- communication -----------------------------------------------------------

    def try_match(
        self,
        state: ClientState,
        locs: Sequence[int],
        blocked: Sequence[bool],
        cfg,
    ) -> List[MatchResult]:
        """The paper's ``matchSendsRecvs``: find provable exact matches.

        ``locs[pos]`` is the CFG node of each pset; ``blocked[pos]`` says
        whether that pset is currently blocked on its node.  Must be *exact*:
        return an empty list rather than an approximate match.

        Normally returns at most one match (the engine re-runs matching at
        the successor node).  When matching is ambiguous because a symbolic
        comparison is unknown, the client may return several results whose
        states carry the complementary assumptions — the engine explores
        each as a separate pCFG successor (alternative worlds whose union
        covers all executions).
        """
        raise NotImplementedError

    def can_buffer(self, state: ClientState, pos: int, node: CFGNode) -> bool:
        """May the pset at a send advance, leaving the send in flight?

        Rendezvous-only clients return False; buffered clients enforce their
        in-flight budget here (Section X's non-blocking extension).
        """
        return False

    def buffer_send(
        self, state: ClientState, pos: int, node: CFGNode
    ) -> ClientState:
        """Record an in-flight send for the pset at ``pos``."""
        raise NotImplementedError

    def pending_sites(self, state: ClientState) -> Tuple[int, ...]:
        """Sorted CFG node ids of in-flight sends (part of pCFG identity)."""
        return ()

    # -- set structure --------------------------------------------------------------

    def is_empty(self, state: ClientState, pos: int) -> Optional[bool]:
        """Three-valued emptiness of a pset (True => engine deletes it)."""
        raise NotImplementedError

    def merge_psets(
        self, state: ClientState, keep: int, drop: int
    ) -> ClientState:
        """Fold pset ``drop`` into pset ``keep`` (they reached the same node)."""
        raise NotImplementedError

    def remove_pset(self, state: ClientState, pos: int) -> ClientState:
        """Delete an empty pset."""
        raise NotImplementedError

    def rename(self, state: ClientState, perm: Sequence[int]) -> ClientState:
        """Reorder psets: new position ``i`` holds old position ``perm[i]``."""
        raise NotImplementedError

    def drop_dead(
        self, state: ClientState, locs: Sequence[int], cfg
    ) -> ClientState:
        """Forget what no process set at ``locs`` can read any more.

        Called on every canonical successor, once its positions are sorted
        (``locs[pos]`` is the CFG node of the set at ``pos``), before the
        engine keys and stores it.  The result must describe the same
        executions as ``state`` on everything the sets can still observe;
        ``state`` itself may be held elsewhere and must not change.  The
        default keeps everything.
        """
        return state

    # -- lattice -----------------------------------------------------------------

    def join(
        self, old: ClientState, new: ClientState
    ) -> Optional[ClientState]:
        """Union of states at a re-visited pCFG node (None: incompatible)."""
        raise NotImplementedError

    def widen(
        self, old: ClientState, new: ClientState
    ) -> Optional[ClientState]:
        """Widening for convergence (None: bounds lost, engine goes to T)."""
        raise NotImplementedError

    def states_equal(self, left: ClientState, right: ClientState) -> bool:
        """Fixed-point test."""
        raise NotImplementedError

    def state_fingerprint(self, state: ClientState):
        """Hashable semantic identity of ``state``, or None.

        Fingerprint equality must imply ``states_equal`` — the engine uses
        it to hash-cons canonicalized states, so two states with the same
        fingerprint collapse to one object.  Returning None (the default)
        opts the state out of interning.
        """
        return None

    # -- provenance ---------------------------------------------------------------

    def describe_transfer(self, old: Optional[ClientState], new: ClientState):
        """Provenance delta between two states, as JSON-plain data (or None).

        Called by the engine *only* while the provenance flight recorder is
        enabled, once per state-changing event: for a transition, ``old``
        is the source node's state (None for the entry event); for a
        join/widen, ``old`` is the target node's previous state.  The
        returned mapping is attached verbatim to the provenance event —
        clients report whatever makes their derivation auditable
        (constraint-graph edge diffs, pset ranges, prover verdicts).
        Exceptions are contained by the engine and recorded in the event
        instead of degrading the run.  The default reports nothing.
        """
        return None

    def match_explanation(self):
        """The last ``try_match`` call's reasoning, as JSON-plain data.

        Polled by the engine after each match attempt *only* while
        provenance is enabled; returning a mapping attaches a
        ``match_attempt`` event carrying it (candidate pairs considered,
        surjection / identity-composition verdicts, prover traces).
        Returning None (the default) suppresses the event — clients should
        return data only when a candidate pair was actually examined, so
        unblocked steps stay silent.
        """
        return None

    # -- checkpoint/resume --------------------------------------------------------

    def checkpoint_extra(self):
        """Client-side accumulators to include in an engine snapshot.

        The engine's snapshot captures every state it holds, but a client
        may accumulate knowledge *outside* those states (observed print
        values, invariants harvested from ``assert`` transfers) that would
        not be rebuilt by resuming — return it here as codec-encodable
        data.  The default (None) persists nothing.
        """
        return None

    def restore_extra(self, data) -> None:
        """Reinstall data produced by :meth:`checkpoint_extra` on resume."""
