"""Section VII: the simple symbolic send-receive client analysis.

State = a :class:`~repro.cgraph.ConstraintGraph` over per-process-set
variable namespaces.  Process sets = symbolic ranges ``[lb..ub]`` whose
bounds carry equivalence sets of ``var + c`` expressions.  Message
expressions = affine forms ``var + c`` (with ``id + c`` as the shifting
special case).

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
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.cgraph.constraint_graph import ConstraintGraph, edge_diff
from repro.cgraph.namespaces import GLOBALS, qualify
from repro.core.client import (
    Alternatives,
    ClientAnalysis,
    ClientState,
    Decided,
    MatchResult,
    Split,
)
from repro.core.diagnostics import GIVEUP_PSET_BOUND
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
from repro.procset.interval import Bound, ProcSet, SymRange

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
        pset = ProcSet(
            [SymRange(Bound.of(0), Bound.of(LinearExpr.var("np") - 1))]
        )
        return SymbolicState(cg, (PSetEntry(0, pset),), (), 1)

    def num_psets(self, state: SymbolicState) -> int:
        return len(state.psets)

    def describe_pset(self, state: SymbolicState, pos: int) -> str:
        return _pretty(str(state.psets[pos].pset))

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
        new = state.copy()
        if rhs is not None and rhs.coeff(target) == 1 and len(rhs.coeffs) >= 1:
            # self-increment  x := x + c : occurrences of x in symbolic
            # bounds now denote the *new* x, so substitute x -> x - c
            offset = rhs - LinearExpr.var(target)
            if offset.is_constant():
                delta = offset.as_constant()
                bindings = {target: LinearExpr.var(target) - delta}
                new.psets = tuple(
                    PSetEntry(e.uid, e.pset.substitute(bindings)) for e in new.psets
                )
                new.pendings = tuple(
                    replace(
                        p,
                        pset=p.pset.substitute(bindings),
                        dest=p.dest.substitute(bindings) if p.dest else None,
                        value=p.value.substitute(bindings) if p.value else None,
                    )
                    for p in new.pendings
                )
                new.cg.assign(target, rhs)
                return new
            rhs = None  # e.g. x := x + y — treat as havoc below
        # non-self assignment: bounds mentioning the target must be repaired
        new = self._repair_bounds(new, target)
        if rhs is not None and rhs.coeff(target) != 0:
            rhs = None
        new.cg.assign(target, rhs)
        if new.cg.infeasible:
            return None
        return new

    def _repair_bounds(self, state: SymbolicState, target: str) -> SymbolicState:
        """Rewrite symbolic bounds so they no longer mention ``target``."""
        mentions = any(
            r.lb.mentions(target) or r.ub.mentions(target)
            for e in state.psets
            for r in e.pset.ranges
        )
        if not mentions:
            return state
        repair = partial(
            _reexpress,
            cg=state.cg,
            stale=lambda expr: expr.mentions(target),
            dropped=_pretty(target),
        )
        state.psets = tuple(
            PSetEntry(e.uid, e.pset.map_bounds(repair)) for e in state.psets
        )
        return state

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
        point = Bound(cg.equivalents(threshold))
        point_range = SymRange(point, point)

        def eq_partition():
            inside = rng.intersect(point_range, cg)
            outside = rng.difference(point_range, cg)
            if inside is None or outside is None:
                return None
            return [inside], outside

        def below(cut: Bound):
            return rng.intersect(SymRange(rng.lb, cut), cg)

        def above(cut: Bound):
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
            cut = point if op == "<=" else point.shift(-1)
            low = below(cut)
            high = above(cut.shift(1))
            if low is None or high is None:
                return None
            return [low], [high]
        if op in (">", ">="):
            cut = point if op == ">=" else point.shift(1)
            high = above(cut)
            low = below(cut.shift(-1))
            if low is None or high is None:
                return None
            return [high], [low]
        return None

    def _intersect_exact(
        self, a: SymRange, b: SymRange, cg: ConstraintGraph
    ) -> Optional[SymRange]:
        return a.intersect(b, cg)

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
        self._constrain_id(new.cg, true_uid, keep_set)
        self._constrain_id(new.cg, false_uid, new_set)
        keep_set = self._enrich(keep_set, new.cg)
        new_set = self._enrich(new_set, new.cg)
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

    def _constrain_id(self, cg: ConstraintGraph, uid: int, pset: ProcSet) -> None:
        """Bound the namespace's ``id`` by the set's outer hull."""
        if not pset.ranges:
            return
        id_expr = LinearExpr.var(qualify(uid, "id"))
        first, last = pset.ranges[0], pset.ranges[-1]
        for lb_expr in first.lb.exprs:
            cg.assume_leq(lb_expr, id_expr)
        for ub_expr in last.ub.exprs:
            cg.assume_leq(id_expr, ub_expr)

    def _enrich(self, pset: ProcSet, cg: ConstraintGraph) -> ProcSet:
        """Drop provably-empty ranges, then extend every bound with all
        provably-equal expressions.

        A bound's expressions are all equal, so they usually form one
        equality class, and :meth:`ConstraintGraph.equivalents_union` asks
        the graph once per class rather than once per expression.  A bound
        that gains nothing comes back as it is, and so does a set when no
        range or bound changes.
        """

        def enrich_bound(bound: Bound) -> Bound:
            exprs = cg.equivalents_union(bound.exprs)
            return bound if len(exprs) == len(bound.exprs) else Bound(exprs)

        return pset.prune_empty(cg).map_bounds(enrich_bound)

    # ------------------------------------------------------------------ matching

    def try_match(self, state, locs, blocked, cfg) -> List[MatchResult]:
        self._match_trace = [] if context.current().provenance is not None else None
        return self._match_search(state, locs, cfg, self.ambiguity_depth)

    def match_explanation(self):
        trace = self._match_trace
        if not trace:
            return None
        return {"attempts": trace}

    def describe_transfer(self, old, new):
        data: dict = {}
        new_psets = [_pretty(str(entry.pset)) for entry in new.psets]
        if old is None or new_psets != [
            _pretty(str(entry.pset)) for entry in old.psets
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
        # other bound expression that mentions it.)  Enrichment follows the
        # id constraints so each subset's bounds pick up their
        # own-namespace ``id`` form, the anchor that loop widening keeps.
        s_matched = ProcSet([s_procs])
        r_matched = ProcSet([r_procs])
        psets = list(new.psets)
        residue_positions: List[Optional[int]] = [None, None]

        def fresh_subset(parent_uid: int, subset: ProcSet) -> Tuple[int, ProcSet]:
            uid = new.next_uid
            new.next_uid += 1
            self._copy_namespace(new.cg, parent_uid, uid)
            self._constrain_id(new.cg, uid, subset)
            return uid, self._enrich(subset, new.cg)

        if pending is None:
            whole_sender = not s_residue
            if whole_sender:
                # the entire set advances: no split, namespace unchanged
                psets[s_pos] = PSetEntry(s_uid, self._enrich(s_matched, new.cg))
            else:
                m_uid, m_set = fresh_subset(s_uid, s_matched)
                psets[s_pos] = PSetEntry(m_uid, m_set)
                res_uid, res_set = fresh_subset(s_uid, ProcSet(s_residue))
                psets.append(PSetEntry(res_uid, res_set))
                residue_positions[0] = len(psets) - 1
        else:
            index, record = pending
            pendings = list(new.pendings)
            if s_residue:
                pendings[index] = replace(record, pset=ProcSet(s_residue))
            else:
                del pendings[index]
            new.pendings = tuple(pendings)

        if not r_residue:
            psets[r_pos] = PSetEntry(r_uid, self._enrich(r_matched, new.cg))
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
            sender_desc=_pretty(str(ProcSet([s_procs]))),
            receiver_desc=_pretty(str(ProcSet([r_procs]))),
            sender_residue=residue_positions[0],
            recv_residue=residue_positions[1],
            pending_index=pending[0] if pending else None,
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
        left = rng.lb.lt(overlap.lb, cg)
        if left is None and rng.lb.eq(overlap.lb, cg) is None:
            return _Ambiguous(rng.lb.shift(1).canonical(), overlap.lb.canonical())
        right = overlap.ub.lt(rng.ub, cg)
        if right is None and rng.ub.eq(overlap.ub, cg) is None:
            return _Ambiguous(overlap.ub.shift(1).canonical(), rng.ub.canonical())
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
            image = s_rng.translate(s_shift)
            return self._clip(cg, image, r_rng, back_shift=s_shift, s_rng=s_rng)

        # case C: singleton sender, arbitrary affine expressions
        s_single = s_rng.is_singleton(cg)
        if s_single is True:
            return self._plan_singleton_sender(
                cg, s_rng, s_expr, id_s, r_rng, r_expr, id_r, r_shift
            )

        # case D: singleton receiver, arbitrary affine expressions
        r_single = r_rng.is_singleton(cg)
        if r_single is True:
            return self._plan_singleton_receiver(
                cg, s_rng, s_expr, id_s, s_shift, r_rng, r_expr, id_r
            )
        return None

    def _as_id_shift(self, cg, expr: LinearExpr, id_name: str, uid: int):
        """``expr == id + offset`` with a set-uniform offset, else None."""
        if expr.coeff(id_name) != 1:
            return None
        offset = expr - LinearExpr.var(id_name)
        return self._uniform(offset, uid, cg)

    def _clip(self, cg, image: SymRange, r_rng: SymRange, back_shift, s_rng):
        """rProcs = image(S) intersect R; sProcs = its preimage.

        Unknown bound comparisons become ambiguities so the engine can split
        the world on them.
        """
        lb, amb = self._max_bound(cg, image.lb, r_rng.lb)
        if amb is not None:
            return amb
        ub, amb = self._min_bound(cg, image.ub, r_rng.ub)
        if amb is not None:
            return amb
        r_procs = SymRange(lb, ub)
        empty = r_procs.is_empty(cg)
        if empty is True:
            return None
        if empty is None:
            return _Ambiguous(lb.canonical(), ub.canonical())
        s_procs = r_procs.translate(-1 * back_shift)
        # sProcs is within S by construction (image clipped then shifted back)
        return (s_procs, r_procs)

    def _max_bound(self, cg, a: Bound, b: Bound):
        verdict = a.leq(b, cg)
        if verdict is True:
            return b, None
        if verdict is False:
            return a, None
        reverse = b.leq(a, cg)
        if reverse is True:
            return a, None
        if reverse is False:
            return b, None
        return None, _Ambiguous(a.canonical(), b.canonical())

    def _min_bound(self, cg, a: Bound, b: Bound):
        verdict = a.leq(b, cg)
        if verdict is True:
            return a, None
        if verdict is False:
            return b, None
        reverse = b.leq(a, cg)
        if reverse is True:
            return b, None
        if reverse is False:
            return a, None
        return None, _Ambiguous(a.canonical(), b.canonical())

    def _plan_singleton_sender(
        self, cg, s_rng, s_expr, id_s, r_rng, r_expr, id_r, r_shift
    ):
        dest = Bound(
            {s_expr.substitute({id_s: e}) for e in s_rng.lb.exprs}
        )
        dest = Bound(cg.equivalents_union(dest.exprs))
        target = SymRange(dest, dest)
        inside_lo = r_rng.lb.leq(dest, cg)
        inside_hi = dest.leq(r_rng.ub, cg)
        if inside_lo is False or inside_hi is False:
            return None
        if inside_lo is None:
            return _Ambiguous(r_rng.lb.canonical(), dest.canonical())
        if inside_hi is None:
            return _Ambiguous(dest.canonical(), r_rng.ub.canonical())
        # identity: the receive expression at the destination names the sender
        if r_shift is not None:
            back = Bound({e + r_shift for e in dest.exprs})
        else:
            back = Bound({r_expr.substitute({id_r: e}) for e in dest.exprs})
        if self._bounds_equal(cg, back, s_rng.lb) is not True:
            return None
        return (s_rng, target)

    def _plan_singleton_receiver(
        self, cg, s_rng, s_expr, id_s, s_shift, r_rng, r_expr, id_r
    ):
        origin = Bound({r_expr.substitute({id_r: e}) for e in r_rng.lb.exprs})
        origin = Bound(cg.equivalents_union(origin.exprs))
        source = SymRange(origin, origin)
        inside_lo = s_rng.lb.leq(origin, cg)
        inside_hi = origin.leq(s_rng.ub, cg)
        if inside_lo is False or inside_hi is False:
            return None
        if inside_lo is None:
            return _Ambiguous(s_rng.lb.canonical(), origin.canonical())
        if inside_hi is None:
            return _Ambiguous(origin.canonical(), s_rng.ub.canonical())
        if s_shift is not None:
            forward = Bound({e + s_shift for e in origin.exprs})
        else:
            forward = Bound({s_expr.substitute({id_s: e}) for e in origin.exprs})
        if self._bounds_equal(cg, forward, r_rng.lb) is not True:
            return None
        return (source, r_rng)

    def _bounds_equal(self, cg, a: Bound, b: Bound) -> Optional[bool]:
        if a.exprs & b.exprs:
            return True
        return a.eq(b, cg)

    def _propagate_value(
        self, state, s_uid, s_procs, s_expr, id_s, s_value, r_uid, target, id_r
    ) -> None:
        """Assign the received value into the matched receivers' namespace."""
        target_name = qualify(r_uid, target)
        state = self._repair_bounds(state, target_name)
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
        assert isinstance(node.stmt, Send)
        entry = state.psets[pos]
        new = state.copy()
        new.pendings = new.pendings + (
            Pending(
                send_node=node.node_id,
                origin_uid=entry.uid,
                pset=entry.pset,
                dest=self.affine(node.stmt.dest, entry.uid),
                value=self.affine(node.stmt.value, entry.uid),
                mtype=node.stmt.mtype,
            ),
        )
        return new

    # --------------------------------------------------------------- set algebra

    def is_empty(self, state: SymbolicState, pos: int) -> Optional[bool]:
        return state.psets[pos].pset.is_empty(state.cg)

    def _purge_namespace_refs(
        self, state: SymbolicState, doomed_uids: Sequence[int]
    ) -> SymbolicState:
        """Re-express all symbolic bounds without the doomed namespaces.

        Must run while ``state.cg`` still knows the doomed variables: each
        bound expression referencing them is replaced by provably-equal
        expressions over surviving namespaces (e.g. the dying singleton's
        ``id`` becomes the next singleton's ``id - 1``), then the doomed
        forms are dropped.  A bound left with no expression means the
        analysis lost track of a set boundary — GiveUp.
        """
        prefixes = tuple(f"ps{uid}::" for uid in doomed_uids)
        cg = state.cg
        verdicts: Dict[LinearExpr, bool] = {}

        def doomed(expr: LinearExpr) -> bool:
            verdict = verdicts.get(expr)
            if verdict is None:
                verdict = verdicts[expr] = any(
                    name.startswith(prefixes) for name, _ in expr._coeffs
                )
            return verdict

        fix_bound = partial(
            _reexpress,
            cg=cg,
            stale=doomed,
            dropped="namespace " + ", ".join(f"ps{uid}" for uid in doomed_uids),
        )

        def fix_expr(expr: Optional[LinearExpr]) -> Optional[LinearExpr]:
            if expr is None or not doomed(expr):
                return expr
            for alt in cg.equivalents(expr):
                if not doomed(alt):
                    return alt
            return expr  # left dangling: comparisons on it stay unknown

        state.psets = tuple(
            PSetEntry(e.uid, e.pset.map_bounds(fix_bound)) for e in state.psets
        )
        state.pendings = tuple(
            replace(
                p,
                pset=p.pset.map_bounds(fix_bound),
                dest=fix_expr(p.dest),
                value=fix_expr(p.value),
            )
            for p in state.pendings
        )
        return state

    def merge_psets(self, state: SymbolicState, keep: int, drop: int) -> SymbolicState:
        new = state.copy()
        keep_entry, drop_entry = new.psets[keep], new.psets[drop]
        # The engine fixes positions (the entry at ``drop`` goes away), but
        # the *namespace* that survives is the smaller uid: merged sets
        # (e.g. everyone at the exit) then keep a stable namespace across
        # loop iterations, which join()'s positional uid alignment requires.
        survivor_uid = min(keep_entry.uid, drop_entry.uid)
        doomed_uid = max(keep_entry.uid, drop_entry.uid)
        new = self._purge_namespace_refs(new, [doomed_uid])
        keep_entry, drop_entry = new.psets[keep], new.psets[drop]
        # the merged namespace over-approximates both sets' variable states
        merged_cg = new.cg.fold_namespace(survivor_uid, doomed_uid)
        merged_set = keep_entry.pset.union_with(drop_entry.pset, new.cg)
        psets = [e for i, e in enumerate(new.psets) if i != drop]
        psets[keep if keep < drop else keep - 1] = PSetEntry(
            survivor_uid, self._enrich(merged_set, merged_cg)
        )
        new.cg = merged_cg
        new.psets = tuple(psets)
        new.pendings = tuple(
            replace(
                p,
                origin_uid=survivor_uid if p.origin_uid == doomed_uid else p.origin_uid,
            )
            for p in new.pendings
        )
        return new

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

        ``ps<uid>::v`` goes when its namespace belongs to no set and no
        in-flight send, or when ``v`` is not live on entry to its set's CFG
        node, and no in-flight ``dest`` or ``value`` mentions it.  ``id`` is
        live everywhere and ``np`` belongs to no namespace, so both stay.
        A set bound or an in-flight set bound drops its forms over projected
        variables; a bound whose forms all mention one keeps them, and so
        keeps their variables (:func:`_settle_doomed`).  Only an exact
        projection is made (:meth:`ConstraintGraph.without`); a widened or
        infeasible graph keeps everything, and the state comes back as it is.
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
        doomed = state.cg.variables() - keep
        if doomed and state.pendings:
            uids = {entry.uid for entry in state.psets}
            carried = tuple(
                f"ps{p.origin_uid}::" for p in state.pendings if p.origin_uid not in uids
            )
            if carried:
                doomed = {name for name in doomed if not name.startswith(carried)}
            for pending in state.pendings:
                for expr in (pending.dest, pending.value):
                    if expr is not None:
                        doomed.difference_update(expr.variables())
        if doomed:
            doomed = _settle_doomed(state, doomed)
        if not doomed:
            return state
        cg = state.cg.without(doomed)
        if cg is state.cg:
            return state

        def trim(bound: Bound) -> Bound:
            kept = [e for e in bound.exprs if doomed.isdisjoint(e.variables())]
            return bound if len(kept) == len(bound.exprs) else Bound(kept)

        def trim_set(holder):
            pset = holder.pset.map_bounds(trim)
            return holder if pset is holder.pset else replace(holder, pset=pset)

        return SymbolicState(
            cg,
            tuple(map(trim_set, state.psets)),
            tuple(map(trim_set, state.pendings)),
            state.next_uid,
        )

    # ------------------------------------------------------------------- lattice

    def join(self, old: SymbolicState, new: SymbolicState) -> Optional[SymbolicState]:
        with obs.span("client.join"):
            return self._join(old, new)

    def _join(self, old: SymbolicState, new: SymbolicState) -> Optional[SymbolicState]:
        if old is new:
            return old  # hash-consed identical states: join is the identity
        if len(old.psets) != len(new.psets):
            return None
        aligned = self._align_uids(old, new)
        if aligned is None:
            return None
        old_enriched = self._enrich_state(old)
        new_enriched = self._enrich_state(aligned)
        psets: List[PSetEntry] = []
        for mine, theirs in zip(old_enriched.psets, new_enriched.psets):
            widened = mine.pset.widen_with(theirs.pset)
            if widened is None:
                return None
            psets.append(PSetEntry(mine.uid, widened))
        pendings = self._join_pendings(old_enriched, new_enriched)
        if pendings is None:
            return None
        cg = old_enriched.cg.join(new_enriched.cg)
        return SymbolicState(
            cg, tuple(psets), pendings, max(old.next_uid, aligned.next_uid)
        )

    def widen(self, old: SymbolicState, combined: SymbolicState) -> Optional[SymbolicState]:
        cg = old.cg.widen(combined.cg)
        return SymbolicState(cg, combined.psets, combined.pendings, combined.next_uid)

    def states_equal(self, left: SymbolicState, right: SymbolicState) -> bool:
        if left is right:
            return True
        if len(left.psets) != len(right.psets):
            return False
        for a, b in zip(left.psets, right.psets):
            if len(a.pset.ranges) != len(b.pset.ranges):
                return False
            for ra, rb in zip(a.pset.ranges, b.pset.ranges):
                if ra.lb.exprs != rb.lb.exprs or ra.ub.exprs != rb.ub.exprs:
                    return False
        if left.pendings != right.pendings:
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
        return (
            state.cg.fingerprint(),
            tuple((e.uid, e.pset.ranges) for e in state.psets),
            tuple(
                (p.send_node, p.origin_uid, p.pset.ranges, p.dest, p.value, p.mtype)
                for p in state.pendings
            ),
            state.next_uid,
        )

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

    def _enrich_state(self, state: SymbolicState) -> SymbolicState:
        new = state.copy()
        new.psets = tuple(
            PSetEntry(e.uid, self._enrich(e.pset, new.cg)) for e in new.psets
        )
        new.pendings = tuple(
            replace(p, pset=self._enrich(p.pset, new.cg)) for p in new.pendings
        )
        return new

    def _align_uids(
        self, old: SymbolicState, new: SymbolicState
    ) -> Optional[SymbolicState]:
        """Rename ``new``'s namespaces so positions share uids with ``old``.

        The graph's rename and the bounds' substitution map every name at
        once, so a swap or a cycle of uids needs no temporary names.
        """
        mapping: Dict[int, int] = {}
        for mine, theirs in zip(old.psets, new.psets):
            if mine.uid != theirs.uid:
                mapping[theirs.uid] = mine.uid
        if not mapping:
            return new
        aligned = new.copy()
        # clear stale variables of dead namespaces we are renaming into —
        # re-express any bound still using them first, then project them out
        # (the graph is closed, so projection loses nothing)
        live_uids = {entry.uid for entry in new.psets}
        stale_uids = [
            target for target in mapping.values() if target not in live_uids
        ]
        if stale_uids:
            aligned = self._purge_namespace_refs(aligned, stale_uids)
        for target in stale_uids:
            prefix = f"ps{target}::"
            stale = [n for n in aligned.cg.variables() if n.startswith(prefix)]
            if stale:
                aligned.cg.remove_vars(stale)
        namespaces = {f"ps{src}": f"ps{dst}" for src, dst in mapping.items()}
        var_map: Dict[str, str] = {}
        for name in aligned.cg.variables():
            namespace, sep, var = name.partition("::")
            if sep and namespace in namespaces:
                var_map[name] = f"{namespaces[namespace]}::{var}"
        if var_map:
            aligned.cg.rename(var_map)
        bindings = {src: LinearExpr.var(dst) for src, dst in var_map.items()}
        aligned.psets = tuple(
            PSetEntry(mapping.get(e.uid, e.uid), e.pset.substitute(bindings))
            for e in aligned.psets
        )
        aligned.pendings = tuple(
            replace(
                p,
                origin_uid=mapping.get(p.origin_uid, p.origin_uid),
                pset=p.pset.substitute(bindings),
                dest=p.dest.substitute(bindings) if p.dest else p.dest,
                value=p.value.substitute(bindings) if p.value else p.value,
            )
            for p in aligned.pendings
        )
        return aligned

    def _join_pendings(
        self, old: SymbolicState, new: SymbolicState
    ) -> Optional[Tuple[Pending, ...]]:
        if len(old.pendings) != len(new.pendings):
            return None
        mine = sorted(old.pendings, key=lambda p: (p.send_node, p.origin_uid))
        theirs = sorted(new.pendings, key=lambda p: (p.send_node, p.origin_uid))
        joined: List[Pending] = []
        for a, b in zip(mine, theirs):
            if a.send_node != b.send_node or a.dest != b.dest or a.mtype != b.mtype:
                return None
            widened = a.pset.widen_with(b.pset)
            if widened is None:
                return None
            value = a.value if a.value == b.value else None
            joined.append(replace(a, pset=widened, value=value))
        return tuple(joined)


def _settle_doomed(state: SymbolicState, doomed: Set[str]) -> Set[str]:
    """The part of ``doomed`` that every set bound can do without.

    A bound keeps its forms that mention no doomed variable.  A bound with
    no such form stays whole, so the variables of its forms are kept; that
    may give another bound a form back, hence the fixpoint.
    """
    bounds = {
        bound
        for holder in state.psets + state.pendings
        for rng in holder.pset.ranges
        for bound in (rng.lb, rng.ub)
    }
    touched = []
    for bound in bounds:
        forms = [expr.variables() for expr in bound.exprs]
        if not all(doomed.isdisjoint(names) for names in forms):
            touched.append(forms)
    changed = True
    while changed:
        changed = False
        for forms in touched:
            if not any(doomed.isdisjoint(names) for names in forms):
                doomed = doomed.difference(*forms)
                changed = True
    return doomed


def _reexpress(
    bound: Bound,
    cg: ConstraintGraph,
    stale: Callable[[LinearExpr], bool],
    dropped: str,
) -> Bound:
    """``bound`` without its ``stale`` forms: keep the others, add the
    members of ``cg.equivalents_union`` of the stale ones that are not
    stale, and give up when no form is left.  ``dropped`` names what the
    stale forms mention, for the give-up message."""
    rejected = [e for e in bound.exprs if stale(e)]
    if not rejected:
        return bound
    exprs = {e for e in bound.exprs if not stale(e)}
    exprs |= {alt for alt in cg.equivalents_union(rejected) if not stale(alt)}
    if not exprs:
        raise GiveUp(
            f"a process-set bound could not be re-expressed without {dropped}",
            code=GIVEUP_PSET_BOUND,
        )
    return Bound(exprs)


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

    register_codec(
        PSetEntry,
        "pset_entry",
        lambda entry: [entry.uid, entry.pset],
        lambda data: PSetEntry(data[0], data[1]),
    )
    register_codec(
        Pending,
        "pending_send",
        lambda p: [p.send_node, p.origin_uid, p.pset, p.dest, p.value, p.mtype],
        lambda d: Pending(d[0], d[1], d[2], d[3], d[4], d[5]),
    )
    register_codec(
        SymbolicState,
        "symbolic_state",
        lambda s: [s.cg, list(s.psets), list(s.pendings), s.next_uid],
        lambda d: SymbolicState(d[0], tuple(d[1]), tuple(d[2]), d[3]),
    )


_register_snapshot_codecs()
