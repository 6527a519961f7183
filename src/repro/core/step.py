"""Pure per-step pCFG transfer/match/join logic, independent of scheduling.

This module is the *functional core* of the fixpoint: everything that
happens to **one configuration** — send-receive matching, CFG transitions,
branch splits, send buffering, canonicalization, and the join/widen lattice
operations — with no knowledge of worklists, budgets or checkpoints.
:class:`StepCore` is a mixin; :class:`repro.core.engine.PCFGEngine`, the
single-process priority worklist orchestrator (the paper's Fig. 4
chaotic iteration), layers the scheduling on top of it at zero dispatch
overhead.

Canonicalization is deliberately factored in two:

``_canonical_form(locs, state)``
    the *pure* part — prune empty process sets, fold sets that reached the
    same CFG node, sort positions — returning the pCFG node key and the
    canonical state without touching any state table.

``_absorb(states, visits, key, state, ...)``
    the *merging* part — intern, first-visit insert, join, visit-counted
    widening, fixed-point detection — against the state table the caller
    passes in.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import diagnostics
from repro.core.client import (
    Alternatives,
    ClientState,
    Decided,
    MatchResult,
    Split,
)
from repro.core.errors import ClientFault, GiveUp, MalformedCFG
from repro.core.pcfg import PCFGEdge, PCFGNodeKey
from repro.core.topology import MatchRecord
from repro.lang.cfg import NodeKind
from repro.obs import recorder as obs

#: exceptions the schedulers localize to a ``T`` at one pCFG node
RECOVERABLE = (GiveUp, ClientFault, MalformedCFG)


class StepCore:
    """Per-configuration pCFG semantics (mixin; see the module docstring).

    Hosts are expected to provide the attributes ``cfg``, ``client``,
    ``limits``, ``intern_states``, ``_intern`` (the hash-consing table),
    ``_rpo`` (CFG node id -> reverse-postorder rank), ``_prov`` (the active
    provenance recorder or None), ``_run_event`` and ``_widened`` (set
    here at the run's first widening).
    """

    # -- client-callback guard ---------------------------------------------------

    def _call(self, callback: str, fn, *args):
        """Invoke one client callback, converting unexpected exceptions
        into :class:`ClientFault` so a buggy client cannot take down the
        engine.  ``GiveUp`` and ``MalformedCFG`` pass through — they are
        the sanctioned control-flow signals."""
        try:
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

        key: PCFGNodeKey = (
            tuple(locs),
            self._call("pending_sites", client.pending_sites, state),
        )
        return key, state, merges

    def _absorb(
        self,
        states: Dict[PCFGNodeKey, ClientState],
        visits: Dict[PCFGNodeKey, int],
        key: PCFGNodeKey,
        state: ClientState,
        src_key: Optional[PCFGNodeKey],
        kind: str,
        detail: str,
        result,
        src_event: Optional[int] = None,
    ) -> Optional[PCFGNodeKey]:
        """Merge a canonical ``(key, state)`` into a state table.

        First visit inserts; revisits join (then widen past ``widen_after``
        visits) and detect the per-node fixed point.  Returns the key when
        the node's state changed (the caller should re-schedule it), None
        at a fixed point.  Raises :class:`GiveUp` when the lattice cannot
        represent the combination.
        """
        prov = self._prov
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
        if visits.get(key, 0) >= self.limits.widen_after:
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

    def _canonicalize_into(
        self,
        states: Dict[PCFGNodeKey, ClientState],
        visits: Dict[PCFGNodeKey, int],
        src_key: Optional[PCFGNodeKey],
        locs: Sequence[int],
        state: ClientState,
        kind: str,
        detail: str,
        result,
    ) -> Optional[PCFGNodeKey]:
        with obs.span("engine.canonicalize"):
            return self._canonicalize(
                states, visits, src_key, locs, state, kind, detail, result
            )

    def _canonicalize(
        self,
        states: Dict[PCFGNodeKey, ClientState],
        visits: Dict[PCFGNodeKey, int],
        src_key: Optional[PCFGNodeKey],
        locs: Sequence[int],
        state: ClientState,
        kind: str,
        detail: str,
        result,
    ) -> Optional[PCFGNodeKey]:
        formed = self._canonical_form(locs, state)
        if formed is None:
            return None
        key, state, merges = formed
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

        return self._absorb(
            states, visits, key, state, src_key, kind, detail, result, src_event
        )

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
