"""Section VII: the simple symbolic send-receive client analysis.

State = a :class:`~repro.cgraph.ConstraintGraph` over per-process-set
variable namespaces.  Process sets = symbolic ranges ``[lb..ub]`` whose
bounds are variables of that graph: range ``k`` of the set with namespace
``uid`` runs from ``ps<uid>::.lb<k>`` to ``ps<uid>::.ub<k>``.  The dot is a
character the lexer never puts in a name, so no program variable (and no
renaming of one) can take these names.  A bound's equal forms, its order
against other bounds, its join and its widening are all the graph's.
Message expressions = affine forms ``var + c`` (with ``id + c`` as the
shifting special case).

An in-flight send owns a namespace too: buffering copies the sender's
bounds and the variables its ``dest`` and ``value`` read into a fresh
namespace, bound equal to the sender's at that moment, so neither a later
assignment on the sender nor a merge of the sender's set changes what the
message says.

Send-receive matching implements the paper's two conditions — the send
expression surjectively maps the matched senders onto the matched receivers,
and the composition of receive and send expressions is the identity on the
matched senders — for four shapes of expression pairs:

=====  ======================  =====================
case   send expression          receive expression
=====  ======================  =====================
A      ``id + c``               ``id + d``  (requires ``c + d == 0``)
C      any affine, singleton    any affine
D      any affine               any affine, singleton receiver
=====  ======================  =====================

When a comparison needed by matching is unknown but expressible, the matcher
splits the world on it (complementary assumptions in the two returned
states), which is how the abstract loop state of the Fig. 7 shift pattern
resolves into the three Fig. 8 matches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cgraph.constraint_graph import ConstraintGraph, edge_diff
from repro.cgraph.namespaces import GLOBALS, namespace_prefix, qualify
from repro.core.client import (
    Alternatives,
    ClientAnalysis,
    ClientState,
    Decided,
    MatchResult,
    Split,
)
from repro.core.errors import GiveUp
from repro.expr.linear import LinearExpr
from repro.lang.ast import (
    Assert,
    Assign,
    BinOp,
    Compare,
    Expr,
    InputExpr,
    Num,
    Print,
    Recv,
    Send,
    UnaryOp,
    Var,
)
from repro.lang.cfg import CFGNode, NodeKind
from repro.obs import context
from repro.obs import recorder as obs
from repro.procset.interval import ProcSet, SymRange, canonical, eq, lt

_NS_PATTERN = re.compile(r"ps\d+::")

#: per-event caps on provenance payloads (match-trace records, diff lines)
#: — explain output stays readable and events stay cheap to serialize
_TRACE_CAP = 32


def _cap_list(items: list, cap: int = _TRACE_CAP) -> list:
    if len(items) <= cap:
        return items
    return items[:cap] + [f"... +{len(items) - cap} more"]


@dataclass(frozen=True)
class Pending:
    """An in-flight (buffered) send awaiting a matching receive."""

    send_node: int
    origin_uid: int
    pset: ProcSet
    dest: Optional[LinearExpr]
    value: Optional[LinearExpr]
    mtype: str


@dataclass(frozen=True)
class PSetEntry:
    """One tracked process set: a stable namespace uid plus its range."""

    uid: int
    pset: ProcSet


@dataclass
class SymbolicState(ClientState):
    """The client's dataflow state: ``(dfState, pSets)`` of the paper."""

    cg: ConstraintGraph
    psets: Tuple[PSetEntry, ...]
    pendings: Tuple[Pending, ...] = ()
    next_uid: int = 1

    def copy(self) -> "SymbolicState":
        return SymbolicState(self.cg.copy(), self.psets, self.pendings, self.next_uid)


@dataclass
class _Ambiguous:
    """A matching attempt stuck on an unknown (but assumable) comparison."""

    lhs: LinearExpr
    rhs: LinearExpr  # the unknown condition is lhs <= rhs


class SimpleSymbolicClient(ClientAnalysis):
    """The Section VII client analysis.

    Parameters
    ----------
    min_np:
        Assumed lower bound on the process count (the paper's examples
        implicitly require enough processes for every role to be non-empty;
        4 covers all corpus patterns).
    buffering:
        Allow sends to advance while in flight (Section X non-blocking
        extension); required for the self-exchange patterns (transpose).
    max_pendings:
        In-flight send budget per configuration.
    """

    def __init__(
        self,
        min_np: int = 4,
        buffering: bool = True,
        max_pendings: int = 4,
        ambiguity_depth: int = 3,
        naive_closure: bool = False,
        naive_copy: bool = False,
    ):
        self.min_np = min_np
        self.buffering = buffering
        self.max_pendings = max_pendings
        self.ambiguity_depth = ambiguity_depth
        #: Section IX ablation: re-close the constraint graph on every query
        self.naive_closure = naive_closure
        #: ablation / property-test oracle: eager deep copies, no COW or memos
        self.naive_copy = naive_copy
        #: node_id -> set of printed constant values (None marks "unknown")
        self.print_observations: Dict[int, Set[Optional[int]]] = {}
        #: provenance narration of the current ``try_match`` call: one
        #: record per candidate pair examined.  None whenever the flight
        #: recorder is disabled, so matching stays trace-free by default.
        self._match_trace: Optional[list] = None
        #: the graph of the state the current ``try_match`` call started
        #: from.  A match describes its sets in it: the world splits below
        #: it are a case analysis of that one match, so a set's bounds
        #: print as the state knows them (a singleton match's partner rank
        #: is already in the form of the world that found it)
        self._shown_cg: Optional[ConstraintGraph] = None
        #: last PRINT-node observation ``(node_id, value)`` — consumed by
        #: ``describe_transfer`` so a print's derived fact lands on the
        #: event of the transition that established it
        self._last_print: Optional[tuple] = None
        #: the CFG ``drop_dead`` last saw, and per ``(uid, node)`` the
        #: qualified names live on entry to that node
        self._live_cfg = None
        self._live_names: Dict[Tuple[int, int], frozenset] = {}

    # ------------------------------------------------------------------ basics

    def initial(self) -> SymbolicState:
        cg = ConstraintGraph(self.naive_closure, self.naive_copy)
        cg.add_lower("np", self.min_np)
        id0 = qualify(0, "id")
        cg.add_lower(id0, 0)
        cg.add_diff("np", id0, -1)  # id <= np - 1
        everyone = _store(cg, 0, ProcSet.range(0, LinearExpr.var("np") - 1))
        return SymbolicState(cg, (PSetEntry(0, everyone),), (), 1)

    def num_psets(self, state: SymbolicState) -> int:
        return len(state.psets)

    def describe_pset(self, state: SymbolicState, pos: int) -> str:
        return _describe(state.cg, state.psets[pos].pset)

    def pending_sites(self, state: SymbolicState) -> Tuple[int, ...]:
        return tuple(sorted(p.send_node for p in state.pendings))

    # --------------------------------------------------------------- expressions

    def affine(self, expr: Expr, uid: int) -> Optional[LinearExpr]:
        """Convert an MPL expression into a qualified affine form (or None)."""
        if isinstance(expr, Num):
            return LinearExpr.const(expr.value)
        if isinstance(expr, Var):
            if expr.name in GLOBALS:
                return LinearExpr.var(expr.name)
            return LinearExpr.var(qualify(uid, expr.name))
        if isinstance(expr, InputExpr):
            return None
        if isinstance(expr, UnaryOp):
            inner = self.affine(expr.operand, uid)
            if inner is None or expr.op != "-":
                return None
            return -inner
        if isinstance(expr, BinOp):
            left = self.affine(expr.left, uid)
            right = self.affine(expr.right, uid)
            if left is None or right is None:
                return None
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                if left.is_constant():
                    return right * left.as_constant()
                if right.is_constant():
                    return left * right.as_constant()
                return None
            if expr.op in ("/", "%"):
                lc, rc = left.as_constant(), right.as_constant()
                if lc is not None and rc is not None and rc != 0:
                    return LinearExpr.const(lc // rc if expr.op == "/" else lc % rc)
                return None
            return None
        return None

    def _uniform(self, expr: LinearExpr, uid: int, cg: ConstraintGraph) -> Optional[LinearExpr]:
        """Rewrite ``expr`` to mention no per-process variables of ``uid``.

        Per-process variables pinned to a constant by the state are
        substituted; any remaining namespace variable makes the expression
        non-uniform across the set (None).
        """
        prefix = f"ps{uid}::"
        bindings = {}
        for name in expr.variables():
            if name.startswith(prefix):
                value = cg.const_value(name)
                if value is None:
                    return None
                bindings[name] = LinearExpr.const(value)
        return expr.substitute(bindings) if bindings else expr

    # ----------------------------------------------------------------- transfer

    def transfer(
        self, state: SymbolicState, pos: int, node: CFGNode
    ) -> Optional[SymbolicState]:
        with obs.span("client.transfer"):
            return self._transfer(state, pos, node)

    def _transfer(
        self, state: SymbolicState, pos: int, node: CFGNode
    ) -> Optional[SymbolicState]:
        entry = state.psets[pos]
        if node.kind in (NodeKind.ENTRY, NodeKind.SKIP):
            return state
        if node.kind == NodeKind.PRINT:
            assert isinstance(node.stmt, Print)
            expr = self.affine(node.stmt.value, entry.uid)
            value = state.cg.eval_const(expr) if expr is not None else None
            self.print_observations.setdefault(node.node_id, set()).add(value)
            if context.current().provenance is not None:
                self._last_print = (node.node_id, value)
            return state
        if node.kind == NodeKind.ASSERT:
            assert isinstance(node.stmt, Assert)
            new = state.copy()
            self._assume(new.cg, node.stmt.cond, entry.uid, True)
            if new.cg.infeasible:
                return None
            return new
        if node.kind == NodeKind.ASSIGN:
            assert isinstance(node.stmt, Assign)
            return self._apply_assign(state, pos, node.stmt)
        raise TypeError(f"transfer on unexpected node kind {node.kind}")

    def _apply_assign(
        self, state: SymbolicState, pos: int, stmt: Assign
    ) -> Optional[SymbolicState]:
        entry = state.psets[pos]
        if stmt.target == "id":
            raise GiveUp("assignment to the read-only variable 'id'")
        if stmt.target == "np":
            raise GiveUp("assignment to the read-only variable 'np'")
        target = qualify(entry.uid, stmt.target)
        rhs = self.affine(stmt.value, entry.uid)
        if rhs is not None and rhs.coeff(target) != 0:
            # x := x + c shifts x in the graph (set bounds are variables of
            # their own, so they keep their values); x := x + y havocs
            if not (rhs - LinearExpr.var(target)).is_constant():
                rhs = None
        new = state.copy()
        new.cg.assign(target, rhs)
        if new.cg.infeasible:
            return None
        return new

    # ------------------------------------------------------------------- branch

    def branch(self, state: SymbolicState, pos: int, node: CFGNode):
        entry = state.psets[pos]
        cond = node.cond
        decided = self._decide(state.cg, cond, entry.uid)
        if decided is not None:
            return Decided(decided, state)
        id_split = self._try_id_split(state, pos, cond)
        if id_split is not None:
            return id_split
        if "id" in cond.free_vars():
            # a rank-dependent branch that could not be split exactly:
            # members take both sides at once.  When no arm can take part
            # in a match and nothing after the ``if`` reads what the arms
            # assigned (``local_if``), flow the whole set down both arms
            # assuming nothing about the condition; the engine joins them
            # at the node after the ``if`` (DESIGN §5).  Anywhere else,
            # one world per side would claim matches no execution makes.
            if node.local_if:
                return Alternatives([(True, state.copy()), (False, state.copy())])
            raise GiveUp(
                f"cannot split process set on rank-dependent branch {cond}"
            )
        # process-uniform data-dependent branch: explore both sides
        outcomes = []
        for label in (True, False):
            alt = state.copy()
            self._assume(alt.cg, cond, entry.uid, label)
            if not alt.cg.infeasible:
                outcomes.append((label, alt))
        return Alternatives(outcomes)

    def _decide(
        self, cg: ConstraintGraph, cond: Expr, uid: int
    ) -> Optional[bool]:
        if isinstance(cond, UnaryOp) and cond.op == "not":
            inner = self._decide(cg, cond.operand, uid)
            return None if inner is None else (not inner)
        if not isinstance(cond, Compare):
            return None
        left = self.affine(cond.left, uid)
        right = self.affine(cond.right, uid)
        if left is None or right is None:
            return None
        if cond.op == "==":
            return cg.entails_eq(left, right)
        if cond.op == "!=":
            verdict = cg.entails_eq(left, right)
            return None if verdict is None else (not verdict)
        if cond.op == "<=":
            return cg.entails_leq(left, right)
        if cond.op == "<":
            return cg.entails_leq(left + 1, right)
        if cond.op == ">=":
            return cg.entails_leq(right, left)
        if cond.op == ">":
            return cg.entails_leq(right + 1, left)
        return None

    def _assume(
        self, cg: ConstraintGraph, cond: Expr, uid: int, label: bool
    ) -> None:
        """Fold ``cond == label`` into the constraint graph (best effort)."""
        if isinstance(cond, UnaryOp) and cond.op == "not":
            self._assume(cg, cond.operand, uid, not label)
            return
        if isinstance(cond, BinOp) and cond.op == "and" and label:
            self._assume(cg, cond.left, uid, True)
            self._assume(cg, cond.right, uid, True)
            return
        if isinstance(cond, BinOp) and cond.op == "or" and not label:
            self._assume(cg, cond.left, uid, False)
            self._assume(cg, cond.right, uid, False)
            return
        if not isinstance(cond, Compare):
            return
        compare = cond if label else cond.negated()
        left = self.affine(compare.left, uid)
        right = self.affine(compare.right, uid)
        if left is None or right is None:
            return
        if compare.op == "==":
            cg.assume_eq(left, right)
        elif compare.op == "<=":
            cg.assume_leq(left, right)
        elif compare.op == "<":
            cg.assume_leq(left + 1, right)
        elif compare.op == ">=":
            cg.assume_leq(right, left)
        elif compare.op == ">":
            cg.assume_leq(right + 1, left)
        # '!=' is a disjunction: not expressible, soundly ignored

    def _try_id_split(
        self, state: SymbolicState, pos: int, cond: Expr
    ) -> Optional[Split]:
        """Split the set on a rank-dependent comparison, when exact."""
        if not isinstance(cond, Compare):
            return None
        entry = state.psets[pos]
        id_name = qualify(entry.uid, "id")
        left = self.affine(cond.left, entry.uid)
        right = self.affine(cond.right, entry.uid)
        if left is None or right is None:
            return None
        # normalize to  id <op> threshold
        if left.coeff(id_name) == 1 and not (left - LinearExpr.var(id_name)).mentions(id_name) \
                and right.coeff(id_name) == 0:
            op = cond.op
            threshold = right - (left - LinearExpr.var(id_name))
        elif right.coeff(id_name) == 1 and left.coeff(id_name) == 0:
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
            op = flip[cond.op]
            threshold = left - (right - LinearExpr.var(id_name))
        else:
            return None
        if threshold.mentions(id_name):
            return None
        threshold = self._uniform(threshold, entry.uid, state.cg)
        if threshold is None:
            return None
        cg = state.cg
        true_all = []
        false_all = []
        for rng in entry.pset.ranges:
            partition = self._partition_range(rng, op, threshold, cg)
            if partition is None:
                return None
            true_all.extend(partition[0])
            false_all.extend(partition[1])
        true_set = ProcSet(true_all).prune_empty(cg)
        false_set = ProcSet(false_all).prune_empty(cg)
        new = self._split_entry(state, pos, true_set, false_set)
        return Split(new)

    def _partition_range(self, rng: SymRange, op: str, threshold: LinearExpr, cg):
        """Partition one range by ``id <op> threshold``; None when unknown."""
        point = threshold
        point_range = SymRange(point, point)

        def eq_partition():
            inside = rng.intersect(point_range, cg)
            outside = rng.difference(point_range, cg)
            if inside is None or outside is None:
                return None
            return [inside], outside

        def below(cut: LinearExpr):
            return rng.intersect(SymRange(rng.lb, cut), cg)

        def above(cut: LinearExpr):
            return rng.intersect(SymRange(cut, rng.ub), cg)

        if op == "==":
            partition = eq_partition()
            if partition is None:
                return None
            return partition
        if op == "!=":
            partition = eq_partition()
            if partition is None:
                return None
            return partition[1], partition[0]
        if op in ("<", "<="):
            cut = point if op == "<=" else point - 1
            low = below(cut)
            high = above(cut + 1)
            if low is None or high is None:
                return None
            return [low], [high]
        if op in (">", ">="):
            cut = point if op == ">=" else point + 1
            high = above(cut)
            low = below(cut - 1)
            if low is None or high is None:
                return None
            return [high], [low]
        return None

    def _split_entry(
        self, state: SymbolicState, pos: int, keep_set: ProcSet, new_set: ProcSet
    ) -> SymbolicState:
        """Refine pset ``pos`` to ``keep_set`` and append ``new_set`` (fresh ns).

        The new namespace receives a copy of the old namespace's constraints
        (paper: the new set's state is a copy of the old set's) and both
        namespaces' ``id`` is re-bounded to the respective subset.
        """
        new = state.copy()
        entry = new.psets[pos]
        # both subsets receive fresh namespace copies; the parent namespace
        # is left untouched, so bounds elsewhere that mention it keep their
        # meaning (re-binding a live namespace silently reinterprets them)
        true_uid = new.next_uid
        false_uid = new.next_uid + 1
        new.next_uid += 2
        self._copy_namespace(new.cg, entry.uid, true_uid)
        self._copy_namespace(new.cg, entry.uid, false_uid)
        keep_set = self._install(new.cg, true_uid, keep_set)
        new_set = self._install(new.cg, false_uid, new_set)
        psets = list(new.psets)
        psets[pos] = PSetEntry(true_uid, keep_set)
        psets.append(PSetEntry(false_uid, new_set))
        new.psets = tuple(psets)
        return new

    def _copy_namespace(self, cg: ConstraintGraph, old_uid: int, new_uid: int) -> None:
        prefix = f"ps{old_uid}::"
        mapping = {
            name: f"ps{new_uid}::{name[len(prefix):]}"
            for name in cg.variables()
            if name.startswith(prefix)
        }
        if mapping:
            cg.copy_namespace_from(mapping.keys(), mapping)

    def _install(self, cg: ConstraintGraph, uid: int, pset: ProcSet) -> ProcSet:
        """Make ``pset`` the set of the fresh namespace ``uid``: constrain
        its ``id`` to the set's outer hull, then store the set without its
        provably empty ranges."""
        if pset.ranges:
            id_expr = LinearExpr.var(qualify(uid, "id"))
            cg.assume_leq(pset.ranges[0].lb, id_expr)
            cg.assume_leq(id_expr, pset.ranges[-1].ub)
        return _store(cg, uid, pset.prune_empty(cg))

    # ------------------------------------------------------------------ matching

    def try_match(self, state, locs, blocked, cfg) -> List[MatchResult]:
        self._match_trace = [] if context.current().provenance is not None else None
        self._shown_cg = state.cg
        return self._match_search(state, locs, cfg, self.ambiguity_depth)

    def match_explanation(self):
        trace = self._match_trace
        if not trace:
            return None
        return {"attempts": trace}

    def describe_transfer(self, old, new):
        data: dict = {}
        new_psets = [_describe(new.cg, entry.pset) for entry in new.psets]
        if old is None or new_psets != [
            _describe(old.cg, entry.pset) for entry in old.psets
        ]:
            data["psets"] = new_psets
        diff = edge_diff(old.cg if old is not None else None, new.cg)
        if diff is not None:
            data["constraints"] = {
                key: _cap_list(value) if isinstance(value, list) else value
                for key, value in diff.items()
            }
        if old is not None and new.pendings != old.pendings:
            data["in_flight"] = [p.send_node for p in new.pendings]
        if self._last_print is not None:
            node_id, value = self._last_print
            self._last_print = None
            data["printed"] = {
                "node": node_id,
                "value": value if value is not None else "unknown",
            }
        return data or None

    def _match_search(
        self, state: SymbolicState, locs: Sequence[int], cfg, depth: int
    ) -> List[MatchResult]:
        if state.cg.infeasible:
            return []
        senders = [
            pos for pos, nid in enumerate(locs)
            if cfg.node(nid).kind == NodeKind.SEND
        ]
        receivers = [
            pos for pos, nid in enumerate(locs)
            if cfg.node(nid).kind == NodeKind.RECV
        ]
        # rendezvous matches first, then in-flight sends
        for r_pos in receivers:
            recv_node = cfg.node(locs[r_pos])
            for s_pos in senders:
                send_node = cfg.node(locs[s_pos])
                outcome = self._attempt(
                    state, cfg,
                    s_pos, send_node, None,
                    r_pos, recv_node,
                )
                results = self._resolve(outcome, state, locs, cfg, depth)
                if results:
                    return results
            for index, pending in enumerate(state.pendings):
                outcome = self._attempt(
                    state, cfg,
                    None, cfg.node(pending.send_node), (index, pending),
                    r_pos, recv_node,
                )
                results = self._resolve(outcome, state, locs, cfg, depth)
                if results:
                    return results
        return []

    def _resolve(
        self, outcome, state: SymbolicState, locs, cfg, depth: int
    ) -> List[MatchResult]:
        """Turn an attempt outcome into engine-facing match results."""
        if outcome is None:
            return []
        if isinstance(outcome, MatchResult):
            return [outcome]
        assert isinstance(outcome, _Ambiguous)
        if depth <= 0:
            return []
        obs.incr("client.match.world_splits")
        results: List[MatchResult] = []
        world_true = state.copy()
        world_true.cg.assume_leq(outcome.lhs, outcome.rhs)
        if not world_true.cg.infeasible:
            results.extend(self._match_search(world_true, locs, cfg, depth - 1))
        world_false = state.copy()
        world_false.cg.assume_leq(outcome.rhs + 1, outcome.lhs)
        if not world_false.cg.infeasible:
            results.extend(self._match_search(world_false, locs, cfg, depth - 1))
        return results

    def _attempt(
        self,
        state: SymbolicState,
        cfg,
        s_pos: Optional[int],
        send_node: CFGNode,
        pending: Optional[Tuple[int, Pending]],
        r_pos: int,
        recv_node: CFGNode,
    ):
        """One candidate pair, with provenance narration when enabled."""
        outcome = self._attempt_pair(
            state, cfg, s_pos, send_node, pending, r_pos, recv_node
        )
        trace = self._match_trace
        if trace is not None and len(trace) < _TRACE_CAP:
            if outcome is None:
                verdict = "no provable match"
            elif isinstance(outcome, _Ambiguous):
                verdict = (
                    f"ambiguous: is {outcome.lhs} <= {outcome.rhs}? "
                    "(worlds split on both answers)"
                )
            else:
                verdict = (
                    f"matched {outcome.sender_desc} -> {outcome.receiver_desc}"
                )
            trace.append(
                {
                    "send_node": send_node.node_id,
                    "recv_node": recv_node.node_id,
                    "in_flight": pending[0] if pending else None,
                    "verdict": verdict,
                }
            )
        return outcome

    # The heart: one (sender or pending) x (receiver) matching attempt.
    def _attempt_pair(
        self,
        state: SymbolicState,
        cfg,
        s_pos: Optional[int],
        send_node: CFGNode,
        pending: Optional[Tuple[int, Pending]],
        r_pos: int,
        recv_node: CFGNode,
    ):
        obs.incr("client.match.attempts")
        cg = state.cg
        send_stmt = send_node.stmt
        recv_stmt = recv_node.stmt
        assert isinstance(send_stmt, Send) and isinstance(recv_stmt, Recv)
        if pending is None:
            s_entry = state.psets[s_pos]
            s_uid, s_set = s_entry.uid, s_entry.pset
            s_expr = self.affine(send_stmt.dest, s_uid)
            s_value = self.affine(send_stmt.value, s_uid)
        else:
            _, record = pending
            s_uid, s_set = record.origin_uid, record.pset
            s_expr = record.dest
            s_value = record.value
        r_entry = state.psets[r_pos]
        r_uid, r_set = r_entry.uid, r_entry.pset
        r_expr = self.affine(recv_stmt.src, r_uid)
        if s_expr is None or r_expr is None:
            return None
        s_rng = s_set.single_range()
        r_rng = r_set.single_range()
        if s_rng is None or r_rng is None:
            return None

        id_s = qualify(s_uid, "id")
        id_r = qualify(r_uid, "id")
        plan = self._plan_match(cg, s_rng, s_expr, id_s, s_uid, r_rng, r_expr, id_r, r_uid)
        if plan is None or isinstance(plan, _Ambiguous):
            return plan
        s_procs, r_procs = plan

        # residues (exact differences required; unknown comparisons become
        # world-splits so e.g. "is this the last loop iteration?" resolves)
        s_residue = self._difference_or_split(s_rng, s_procs, cg)
        if isinstance(s_residue, _Ambiguous):
            return s_residue
        r_residue = self._difference_or_split(r_rng, r_procs, cg)
        if isinstance(r_residue, _Ambiguous):
            return r_residue
        if s_residue is None or r_residue is None:
            return None

        new = state.copy()
        # Every subset — matched or residue — gets a FRESH namespace copied
        # from its parent; the parent namespace is never re-tightened.
        # (Re-binding a live namespace would silently reinterpret every
        # other bound expression that mentions it.)  A set matched whole
        # keeps its entry: the matched range provably equals its range.
        s_matched = ProcSet([s_procs])
        r_matched = ProcSet([r_procs])
        psets = list(new.psets)
        residue_positions: List[Optional[int]] = [None, None]

        def fresh_subset(parent_uid: int, subset: ProcSet) -> Tuple[int, ProcSet]:
            uid = new.next_uid
            new.next_uid += 1
            self._copy_namespace(new.cg, parent_uid, uid)
            return uid, self._install(new.cg, uid, subset)

        if pending is None:
            if s_residue:
                m_uid, m_set = fresh_subset(s_uid, s_matched)
                psets[s_pos] = PSetEntry(m_uid, m_set)
                res_uid, res_set = fresh_subset(s_uid, ProcSet(s_residue))
                psets.append(PSetEntry(res_uid, res_set))
                residue_positions[0] = len(psets) - 1
        else:
            index, record = pending
            pendings = list(new.pendings)
            if s_residue:
                residue = _store(new.cg, record.origin_uid, ProcSet(s_residue))
                pendings[index] = replace(record, pset=residue)
            else:
                del pendings[index]
            new.pendings = tuple(pendings)

        if not r_residue:
            recv_uid = r_uid
        else:
            m_uid, m_set = fresh_subset(r_uid, r_matched)
            psets[r_pos] = PSetEntry(m_uid, m_set)
            recv_uid = m_uid
            res_uid, res_set = fresh_subset(r_uid, ProcSet(r_residue))
            psets.append(PSetEntry(res_uid, res_set))
            residue_positions[1] = len(psets) - 1
        new.psets = tuple(psets)

        # value propagation into the matched receivers' namespace
        sender_uid = s_uid if (pending is not None or not s_residue) else psets[s_pos].uid
        self._propagate_value(
            new,
            sender_uid,
            s_procs,
            s_expr,
            id_s,
            s_value,
            recv_uid,
            recv_stmt.target,
            id_r,
        )
        if new.cg.infeasible:
            return None

        return MatchResult(
            state=new,
            sender_pos=s_pos,
            recv_pos=r_pos,
            send_node=send_node.node_id,
            recv_node=recv_node.node_id,
            sender_desc=_describe(self._shown_cg, s_matched),
            receiver_desc=_describe(self._shown_cg, r_matched),
            sender_residue=residue_positions[0],
            recv_residue=residue_positions[1],
            mtype_send=send_stmt.mtype,
            mtype_recv=recv_stmt.mtype,
        )

    def _difference_or_split(self, rng: SymRange, sub: SymRange, cg):
        """``rng - sub`` as range pieces, or the comparison to split on.

        Returns a list of pieces, an :class:`_Ambiguous` naming the unknown
        bound comparison, or None when bounds are incomparable even as a
        split candidate.
        """
        pieces = rng.difference(sub, cg)
        if pieces is not None:
            return pieces
        overlap = rng.intersect(sub, cg)
        if overlap is None:
            return None
        left = lt(cg, rng.lb, overlap.lb)
        if left is None and eq(cg, rng.lb, overlap.lb) is None:
            return _ambiguous(cg, rng.lb + 1, overlap.lb)
        right = lt(cg, overlap.ub, rng.ub)
        if right is None and eq(cg, rng.ub, overlap.ub) is None:
            return _ambiguous(cg, overlap.ub + 1, rng.ub)
        return None

    def _plan_match(
        self, cg, s_rng, s_expr, id_s, s_uid, r_rng, r_expr, id_r, r_uid
    ):
        """Find matched subsets (sProcs, rProcs) or an ambiguity, or None."""
        s_shift = self._as_id_shift(cg, s_expr, id_s, s_uid)
        r_shift = self._as_id_shift(cg, r_expr, id_r, r_uid)

        # case A: both expressions shift the rank by uniform offsets
        if s_shift is not None and r_shift is not None:
            identity = cg.entails_eq(s_shift + r_shift, LinearExpr.const(0))
            if identity is not True:
                return None
            image = s_rng.shift(s_shift)
            return self._clip(cg, image, r_rng, back_shift=s_shift)

        # case C: singleton sender, arbitrary affine expressions
        s_single = s_rng.is_singleton(cg)
        if s_single is True:
            return self._plan_singleton(
                cg, s_rng, s_expr, id_s, r_rng, r_expr, id_r, r_shift, sender=True
            )

        # case D: singleton receiver, arbitrary affine expressions
        r_single = r_rng.is_singleton(cg)
        if r_single is True:
            return self._plan_singleton(
                cg, r_rng, r_expr, id_r, s_rng, s_expr, id_s, s_shift, sender=False
            )
        return None

    def _as_id_shift(self, cg, expr: LinearExpr, id_name: str, uid: int):
        """``expr == id + offset`` with a set-uniform offset, else None."""
        if expr.coeff(id_name) != 1:
            return None
        offset = expr - LinearExpr.var(id_name)
        return self._uniform(offset, uid, cg)

    def _clip(self, cg, image: SymRange, r_rng: SymRange, back_shift):
        """rProcs = image(S) intersect R; sProcs = its preimage.

        Unknown bound comparisons become ambiguities so the engine can split
        the world on them.
        """
        lb, amb = _extreme(cg, image.lb, r_rng.lb, larger=True)
        if amb is not None:
            return amb
        ub, amb = _extreme(cg, image.ub, r_rng.ub, larger=False)
        if amb is not None:
            return amb
        r_procs = SymRange(lb, ub)
        empty = r_procs.is_empty(cg)
        if empty is True:
            return None
        if empty is None:
            return _ambiguous(cg, lb, ub)
        s_procs = r_procs.shift(-1 * back_shift)
        # sProcs is within S by construction (image clipped then shifted back)
        return (s_procs, r_procs)

    def _plan_singleton(
        self, cg, one_rng, one_expr, id_one, other_rng, other_expr, id_other,
        other_shift, sender: bool,
    ):
        """Cases C and D: the singleton side's expression names one partner,
        which must lie in the other side's range, and the other side's
        expression at that partner must name the singleton back.

        The singleton's rank enters ``one_expr`` in its canonical form (a
        constant when there is one), so the partner is a ``var + c`` form
        whenever one exists; it is kept in its canonical form in this
        world.  Returns ``(sProcs, rProcs)``.
        """
        partner = _form(cg, one_expr.substitute({id_one: _form(cg, one_rng.lb)}))
        inside_lo = cg.entails_leq(other_rng.lb, partner)
        inside_hi = cg.entails_leq(partner, other_rng.ub)
        if inside_lo is False or inside_hi is False:
            return None
        if inside_lo is None:
            return _ambiguous(cg, other_rng.lb, partner)
        if inside_hi is None:
            return _ambiguous(cg, partner, other_rng.ub)
        # identity: the other side's expression at the partner names us
        if other_shift is not None:
            back = partner + other_shift
        else:
            back = other_expr.substitute({id_other: partner})
        if eq(cg, back, one_rng.lb) is not True:
            return None
        target = SymRange(partner, partner)
        return (one_rng, target) if sender else (target, one_rng)

    def _propagate_value(
        self, state, s_uid, s_procs, s_expr, id_s, s_value, r_uid, target, id_r
    ) -> None:
        """Assign the received value into the matched receivers' namespace."""
        target_name = qualify(r_uid, target)
        if s_value is None:
            state.cg.assign(target_name, None)
            return
        singleton = s_procs.is_singleton(state.cg)
        if singleton is True:
            # one sender: the receiver's value equals the sender's expression
            state.cg.assign(target_name, None)
            if s_value.is_constant() or s_value.is_var_plus_const():
                state.cg.assign(target_name, s_value)
            else:
                constant = state.cg.eval_const(s_value)
                if constant is not None:
                    state.cg.assign(target_name, LinearExpr.const(constant))
            return
        # shifting match: representable when the value is rank-uniform or a
        # pure function of the sender's rank
        if s_value.coeff(id_s) != 0:
            offset = s_value - LinearExpr.var(id_s) * s_value.coeff(id_s)
            uniform = self._uniform(offset, s_uid, state.cg)
            shift = self._as_id_shift(state.cg, s_expr, id_s, s_uid)
            if uniform is not None and shift is not None and s_value.coeff(id_s) == 1:
                # receiver r got value (r - shift) + offset
                received = LinearExpr.var(qualify(r_uid, "id")) - shift + uniform
                state.cg.assign(target_name, None)
                if received.is_var_plus_const() or received.is_constant():
                    state.cg.assign(target_name, received)
                return
            state.cg.assign(target_name, None)
            return
        uniform = self._uniform(s_value, s_uid, state.cg)
        state.cg.assign(target_name, None)
        if uniform is not None and (uniform.is_constant() or uniform.is_var_plus_const()):
            state.cg.assign(target_name, uniform)

    # ----------------------------------------------------------------- buffering

    def can_buffer(self, state: SymbolicState, pos: int, node: CFGNode) -> bool:
        if not self.buffering or len(state.pendings) >= self.max_pendings:
            return False
        assert isinstance(node.stmt, Send)
        entry = state.psets[pos]
        return self.affine(node.stmt.dest, entry.uid) is not None

    def buffer_send(self, state: SymbolicState, pos: int, node: CFGNode) -> SymbolicState:
        """Put the send in flight in a namespace of its own.

        The message's bounds and the variables its ``dest`` and ``value``
        read are bound equal to the sender's now, so they keep their
        values whatever the sender does next.
        """
        assert isinstance(node.stmt, Send)
        entry = state.psets[pos]
        new = state.copy()
        uid = new.next_uid
        new.next_uid += 1
        dest = self.affine(node.stmt.dest, uid)
        value = self.affine(node.stmt.value, uid)
        pset = _stored(uid, len(entry.pset.ranges))
        names = _bound_names(pset)
        for expr in (dest, value):
            if expr is not None:
                names.update(expr.variables())
        own, theirs = namespace_prefix(uid), namespace_prefix(entry.uid)
        for name in sorted(names):
            if name.startswith(own):
                origin = theirs + name[len(own):]
                new.cg.assign(name, LinearExpr.var(origin))
        new.pendings = new.pendings + (
            Pending(node.node_id, uid, pset, dest, value, node.stmt.mtype),
        )
        return new

    # --------------------------------------------------------------- set algebra

    def is_empty(self, state: SymbolicState, pos: int) -> Optional[bool]:
        return state.psets[pos].pset.is_empty(state.cg)

    def merge_psets(self, state: SymbolicState, keep: int, drop: int) -> SymbolicState:
        keep_entry, drop_entry = state.psets[keep], state.psets[drop]
        # The engine fixes positions (the entry at ``drop`` goes away), but
        # the *namespace* that survives is the smaller uid: merged sets
        # (e.g. everyone at the exit) then keep a stable namespace across
        # loop iterations, which join()'s positional uid alignment requires.
        survivor_uid = min(keep_entry.uid, drop_entry.uid)
        doomed_uid = max(keep_entry.uid, drop_entry.uid)
        merged = keep_entry.pset.union_with(drop_entry.pset, state.cg)
        stored, moves = _moves(survivor_uid, merged.prune_empty(state.cg))
        # the merged namespace over-approximates both sets' variable states,
        # and its bounds are the merged bounds on either side of the fold
        cg = state.cg.fold_namespace(survivor_uid, doomed_uid, dict(moves))
        psets = [e for i, e in enumerate(state.psets) if i != drop]
        psets[keep if keep < drop else keep - 1] = PSetEntry(survivor_uid, stored)
        return SymbolicState(cg, tuple(psets), state.pendings, state.next_uid)

    def remove_pset(self, state: SymbolicState, pos: int) -> SymbolicState:
        new = state.copy()
        new.psets = tuple(e for i, e in enumerate(new.psets) if i != pos)
        return new

    def rename(self, state: SymbolicState, perm: Sequence[int]) -> SymbolicState:
        new = state.copy()
        new.psets = tuple(state.psets[p] for p in perm)
        return new

    def drop_dead(self, state: SymbolicState, locs: Sequence[int], cfg) -> SymbolicState:
        """Project out the variables no process set can read any more.

        A set keeps its bound variables and the variables live on entry to
        its CFG node; an in-flight send keeps its bound variables and what
        its ``dest`` and ``value`` read.  Everything else goes: every other
        variable of a namespace, and every namespace no set or send owns.
        ``id`` is live everywhere and ``np`` belongs to no namespace, so
        both stay.  Only an exact projection is made
        (:meth:`ConstraintGraph.without`); a widened or infeasible graph
        keeps everything, and the state comes back as it is.
        """
        if cfg is not self._live_cfg:
            self._live_cfg, self._live_names = cfg, {}
        live_names = self._live_names
        keep = set(GLOBALS)
        for entry, node_id in zip(state.psets, locs):
            names = live_names.get((entry.uid, node_id))
            if names is None:
                names = live_names[entry.uid, node_id] = frozenset(
                    qualify(entry.uid, var) for var in cfg.live_in(node_id)
                )
            keep |= names
            keep |= _bound_names(entry.pset)
        for pending in state.pendings:
            keep |= _bound_names(pending.pset)
            for expr in (pending.dest, pending.value):
                if expr is not None:
                    keep.update(expr.variables())
        doomed = state.cg.variables() - keep
        if not doomed:
            return state
        cg = state.cg.without(doomed)
        if cg is state.cg:
            return state
        return SymbolicState(cg, state.psets, state.pendings, state.next_uid)

    # ------------------------------------------------------------------- lattice

    def join(self, old: SymbolicState, new: SymbolicState) -> Optional[SymbolicState]:
        with obs.span("client.join"):
            return self._join(old, new)

    def _join(self, old: SymbolicState, new: SymbolicState) -> Optional[SymbolicState]:
        """Positions and in-flight sends pair up, ``new``'s namespaces take
        ``old``'s uids, and the graphs join: every bound keeps what both
        states know about it.  None when the shapes differ."""
        if old is new:
            return old  # hash-consed identical states: join is the identity
        if len(old.psets) != len(new.psets) or len(old.pendings) != len(new.pendings):
            return None
        for mine, theirs in zip(old.psets, new.psets):
            if len(mine.pset.ranges) != len(theirs.pset.ranges):
                return None
        for a, b in zip(_in_flight_order(old), _in_flight_order(new)):
            if (a.send_node, a.mtype, len(a.pset.ranges)) != (
                b.send_node, b.mtype, len(b.pset.ranges)
            ):
                return None
        aligned = self._align_uids(old, new)
        pendings: List[Pending] = []
        for a, b in zip(_in_flight_order(old), _in_flight_order(aligned)):
            if a.dest != b.dest:
                return None
            pendings.append(replace(a, value=a.value if a.value == b.value else None))
        cg = old.cg.join(aligned.cg)
        return SymbolicState(
            cg, old.psets, tuple(pendings), max(old.next_uid, aligned.next_uid)
        )

    def widen(self, old: SymbolicState, combined: SymbolicState) -> Optional[SymbolicState]:
        cg = old.cg.widen(combined.cg)
        return SymbolicState(cg, combined.psets, combined.pendings, combined.next_uid)

    def states_equal(self, left: SymbolicState, right: SymbolicState) -> bool:
        if left is right:
            return True
        if left.psets != right.psets or left.pendings != right.pendings:
            return False
        return left.cg.equivalent_to(right.cg)

    def state_fingerprint(self, state: SymbolicState):
        """Hashable semantic identity for the engine's hash-consing table.

        Combines the constraint graph's closed-form fingerprint with the
        process-set ranges, the in-flight sends, and the uid allocator, so
        fingerprint-equal states are interchangeable for the rest of the
        exploration.  The Section IX ablations opt out: forcing closures to
        fingerprint would distort the naive profile they exist to measure.
        """
        if self.naive_closure or self.naive_copy:
            return None
        return (state.cg.fingerprint(), state.psets, state.pendings, state.next_uid)

    # -- checkpoint/resume ------------------------------------------------------

    def checkpoint_extra(self):
        """Client accumulators an engine snapshot must carry.

        ``print_observations`` is populated by ``transfer`` at PRINT nodes
        already executed — a resumed run never replays those transfers, so
        the constants report (Fig. 2) would silently lose values without
        this.
        """
        return {
            "print_observations": {
                node_id: set(values)
                for node_id, values in self.print_observations.items()
            },
        }

    def restore_extra(self, data) -> None:
        if not data:
            return
        observations = data.get("print_observations") or {}
        self.print_observations = {
            node_id: set(values) for node_id, values in observations.items()
        }

    def _align_uids(
        self, old: SymbolicState, new: SymbolicState
    ) -> SymbolicState:
        """Rename ``new``'s namespaces so each set position and each
        in-flight send (in :func:`_in_flight_order`) carries ``old``'s uid.

        A target namespace that no set or send of ``new`` owns is projected
        out first (the graph is closed, so projection loses nothing).  The
        graph's rename maps every name at once, so a swap or a cycle of
        uids needs no temporary names.
        """
        mapping: Dict[int, int] = {}
        for mine, theirs in zip(old.psets, new.psets):
            if mine.uid != theirs.uid:
                mapping[theirs.uid] = mine.uid
        for mine, theirs in zip(_in_flight_order(old), _in_flight_order(new)):
            if mine.origin_uid != theirs.origin_uid:
                mapping[theirs.origin_uid] = mine.origin_uid
        if not mapping:
            return new
        aligned = new.copy()
        owned = {e.uid for e in new.psets} | {p.origin_uid for p in new.pendings}
        stale = tuple(
            namespace_prefix(target) for target in mapping.values() if target not in owned
        )
        if stale:
            aligned.cg.remove_vars(
                [n for n in aligned.cg.variables() if n.startswith(stale)]
            )
        namespaces = {f"ps{src}": f"ps{dst}" for src, dst in mapping.items()}
        var_map: Dict[str, str] = {}
        for name in aligned.cg.variables():
            namespace, sep, var = name.partition("::")
            if sep and namespace in namespaces:
                var_map[name] = f"{namespaces[namespace]}::{var}"
        if var_map:
            aligned.cg.rename(var_map)
        bindings = {src: LinearExpr.var(dst) for src, dst in var_map.items()}

        def moved(expr: Optional[LinearExpr]) -> Optional[LinearExpr]:
            return expr.substitute(bindings) if expr is not None else None

        aligned.psets = tuple(
            PSetEntry(uid, _stored(uid, len(e.pset.ranges)))
            for e in aligned.psets
            for uid in [mapping.get(e.uid, e.uid)]
        )
        aligned.pendings = tuple(
            Pending(
                p.send_node, uid, _stored(uid, len(p.pset.ranges)),
                moved(p.dest), moved(p.value), p.mtype,
            )
            for p in aligned.pendings
            for uid in [mapping.get(p.origin_uid, p.origin_uid)]
        )
        return aligned


def _in_flight_order(state: SymbolicState) -> List[Pending]:
    """The in-flight sends in the order a join pairs them: by send node,
    then as they were buffered."""
    return sorted(state.pendings, key=lambda p: p.send_node)


def _bound_var(uid: int, side: str, k: int) -> str:
    """The graph variable of bound ``side`` (``"lb"`` or ``"ub"``) of range
    ``k`` of the set or in-flight send with namespace ``uid``."""
    return f"{namespace_prefix(uid)}.{side}{k}"


@lru_cache(maxsize=4096)
def _stored(uid: int, count: int) -> ProcSet:
    """The set of namespace ``uid`` with ``count`` ranges as a state holds
    it: each bound is its own variable."""
    return ProcSet([
        SymRange(
            LinearExpr.var(_bound_var(uid, "lb", k)),
            LinearExpr.var(_bound_var(uid, "ub", k)),
        )
        for k in range(count)
    ])


def _bound_names(pset: ProcSet) -> Set[str]:
    """The variables a stored set's bounds are."""
    return {name for rng in pset.ranges for name in (*rng.lb.variables(), *rng.ub.variables())}


def _moves(uid: int, pset: ProcSet) -> Tuple[ProcSet, List[Tuple[str, LinearExpr]]]:
    """``pset`` as namespace ``uid`` stores it (:func:`_stored`), and the
    ``(bound variable, bound)`` pair of each of its bounds."""
    stored = _stored(uid, len(pset.ranges))
    moves = [
        (held.variables()[0], bound)
        for kept, rng in zip(stored.ranges, pset.ranges)
        for held, bound in ((kept.lb, rng.lb), (kept.ub, rng.ub))
    ]
    return stored, moves


def _store(cg: ConstraintGraph, uid: int, pset: ProcSet) -> ProcSet:
    """Bind the bound variables of namespace ``uid`` to ``pset``'s bounds
    and return the set as stored.

    The bindings are simultaneous: when a bound reads a variable another
    binding overwrites, every value goes through a temporary first.  A
    bound outside the ``var + c`` fragment leaves its variable
    unconstrained, which is sound: comparisons on it stay unknown.
    """
    stored, moves = _moves(uid, pset)
    moves = [(name, expr) for name, expr in moves if expr != LinearExpr.var(name)]
    targets = {name for name, _ in moves}
    temps: List[str] = []
    if any(
        name != other and other in targets
        for name, expr in moves
        for other in expr.variables()
    ):
        for index, (_, expr) in enumerate(moves):
            temps.append(f".t{index}")
            cg.assign(temps[-1], expr)
        moves = [(name, LinearExpr.var(temp)) for (name, _), temp in zip(moves, temps)]
    for name, expr in moves:
        cg.assign(name, expr)
    if temps:
        cg.remove_vars(temps)
    return stored


def _form(cg: ConstraintGraph, expr: LinearExpr) -> LinearExpr:
    """``expr`` as a reader sees it: the :func:`canonical` one of the forms
    the graph proves equal to it that name no bound variable (``expr``
    itself when every form does)."""
    forms = [
        form for form in cg.equivalents(expr)
        if not any("::." in name for name in form.variables())
    ]
    return canonical(forms) if forms else expr


def _describe(cg: ConstraintGraph, pset: ProcSet) -> str:
    """A printable set: every bound in its :func:`_form`, unqualified."""
    return _pretty(str(ProcSet(
        [SymRange(_form(cg, rng.lb), _form(cg, rng.ub)) for rng in pset.ranges]
    )))


def _ambiguous(cg: ConstraintGraph, lhs: LinearExpr, rhs: LinearExpr) -> "_Ambiguous":
    """The unknown comparison ``lhs <= rhs`` in readable forms."""
    return _Ambiguous(_form(cg, lhs), _form(cg, rhs))


def _extreme(cg: ConstraintGraph, a: LinearExpr, b: LinearExpr, larger: bool):
    """``(the larger or smaller of a and b, None)``, or ``(None, the
    ambiguity)`` when the graph cannot order them."""
    verdict = cg.entails_leq(a, b)
    if verdict is None:
        reverse = cg.entails_leq(b, a)
        if reverse is None:
            return None, _ambiguous(cg, a, b)
        verdict = not reverse
    return (b if verdict == larger else a), None


def _pretty(text: str) -> str:
    """Strip namespace qualifiers for human-readable set descriptions."""
    return _NS_PATTERN.sub("", text)


def analyze_program(program_or_spec, client: Optional[SimpleSymbolicClient] = None,
                    limits=None, *, checkpointer=None, resume=None):
    """Convenience wrapper: parse/build CFG, run the engine, return
    ``(result, cfg, client)``.

    ``checkpointer`` persists crash-safe snapshots during the run;
    ``resume`` warm-starts the engine from a snapshot object or file (see
    :mod:`repro.core.checkpoint`).
    """
    from repro.core.engine import PCFGEngine
    from repro.lang.cfg import build_cfg

    if hasattr(program_or_spec, "parse"):
        program = program_or_spec.parse()
    else:
        program = program_or_spec
    cfg = build_cfg(program)
    client = client or SimpleSymbolicClient()
    engine = PCFGEngine(cfg, client, limits, checkpointer=checkpointer)
    result = engine.run(resume=resume)
    return result, cfg, client


def _register_snapshot_codecs() -> None:
    """Stable serializers for the Section VII client's state types.

    Registered per client analysis as the checkpoint layer requires;
    subclasses (Cartesian, constant propagation) share the state types and
    therefore the codecs.
    """
    from repro.core.checkpoint import register_codec

    register_codec(PSetEntry, "pset_entry")
    register_codec(Pending, "pending_send")
    register_codec(SymbolicState, "symbolic_state")


_register_snapshot_codecs()
