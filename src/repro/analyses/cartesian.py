"""Section VIII: the Cartesian-topology client analysis (HSM-based).

The simple symbolic client matches ``var + c`` message expressions.  NAS-CG's
transpose uses expressions built from ``* / %`` over grid extents — beyond
the affine fragment.  This client extends the simple client: whenever a
send/receive expression is not affine, it is converted into a Hierarchical
Sequence Map (Section VIII-A) over the process set and matched via the HSM
identity/surjection proofs of Section VIII-B.

Program ``assert`` statements seed the invariant system (``np == nrows *
ncols``, ``ncols == nrows`` / ``ncols == 2 * nrows``), exactly as the
paper's Fig. 6 example relies on the application's own assertions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analyses.simple_symbolic import (
    _TRACE_CAP,
    Pending,
    PSetEntry,
    SimpleSymbolicClient,
    SymbolicState,
    _cap_list,
    _describe,
)
from repro.cgraph.constraint_graph import ConstraintGraph
from repro.cgraph.namespaces import qualify
from repro.core.client import MatchResult
from repro.expr.poly import Poly
from repro.expr.rewrite import InvariantSystem
from repro.hsm.convert import expr_to_hsm, pset_to_hsm
from repro.hsm.hsm import HSM
from repro.hsm.prover import HSMProver
from repro.lang.ast import Assert, Compare, Expr, Recv, Send, Var
from repro.lang.cfg import CFGNode, NodeKind
from repro.procset.interval import canonical


class CartesianClient(SimpleSymbolicClient):
    """Section VIII client: affine matching plus HSM matching.

    The invariant system starts empty and grows as the analysis passes
    ``assert`` statements whose conditions are polynomial equalities.
    """

    def __init__(self, min_np: int = 4, **kwargs):
        super().__init__(min_np=min_np, **kwargs)
        self.invariants = InvariantSystem()
        self.invariants.assume_positive("np")
        self.prover = HSMProver(self.invariants)
        #: provenance narration of the current call's HSM prover queries
        self._proof_trace: Optional[list] = None

    # -- invariant collection ---------------------------------------------------

    def transfer(self, state: SymbolicState, pos: int, node: CFGNode):
        if node.kind == NodeKind.ASSERT:
            assert isinstance(node.stmt, Assert)
            self._collect_invariant(node.stmt.cond, state.psets[pos].uid)
        return super().transfer(state, pos, node)

    def _collect_invariant(self, cond: Expr, uid: int) -> None:
        """Register polynomial equalities like ``np == nrows * ncols``.

        Grid extents are process-uniform runtime parameters; they are
        registered under their *unqualified* names in the invariant system
        (every process reads the same values).
        """
        if not (isinstance(cond, Compare) and cond.op == "=="):
            return
        left = _expr_to_poly(cond.left)
        right = _expr_to_poly(cond.right)
        if left is None or right is None:
            return
        # orient as  var = poly  when one side is a bare variable
        for var_side, poly_side in ((cond.left, right), (cond.right, left)):
            if isinstance(var_side, Var):
                try:
                    self.invariants.add_equality(var_side.name, poly_side)
                except ValueError:
                    continue
                for name in poly_side.variables():
                    self.invariants.assume_positive(name)
                self.invariants.assume_positive(var_side.name)
                return

    # -- checkpoint/resume ------------------------------------------------------

    def checkpoint_extra(self):
        """Persist the harvested invariant system alongside the base data.

        Invariants are collected from ``assert`` transfers that a resumed
        run never replays, so without this the HSM prover would lose
        ``np = nrows * ncols``-style facts and fail matches it proved
        before the interruption.
        """
        data = super().checkpoint_extra() or {}
        data["invariants"] = self.invariants.snapshot_state()
        return data

    def restore_extra(self, data) -> None:
        super().restore_extra(data)
        if data and "invariants" in data:
            self.invariants.restore_state(data["invariants"])
            # fresh prover: memoized verdicts depend on the invariant system
            self.prover = HSMProver(self.invariants)

    # -- uniform-parameter plumbing ------------------------------------------------

    def _depersonalize(self, expr: Expr, uid: int) -> Optional[Expr]:
        """Check the expression only mixes ``id`` with uniform parameters.

        HSM conversion treats every non-``id`` variable as process-uniform;
        that is sound exactly when those variables are runtime parameters
        set identically on all processes (assigned from ``input()`` before
        any branching, like ``nrows``/``ncols``).  We accept variables the
        invariant system knows about, plus ``np``.
        """
        known = set(self.invariants.substitutions) | {"np", "id"}
        for name in expr.free_vars():
            if name not in known and not self.invariants.is_positive(Poly.var(name)):
                if name not in self.invariants.substitutions and name != "np" and name != "id":
                    # unknown uniform parameter: accept only if registered
                    # positive (grid extents register themselves)
                    return None
        return expr

    # -- HSM matching -----------------------------------------------------------------

    def can_buffer(self, state: SymbolicState, pos: int, node: CFGNode) -> bool:
        if not self.buffering or len(state.pendings) >= self.max_pendings:
            return False
        assert isinstance(node.stmt, Send)
        entry = state.psets[pos]
        if self.affine(node.stmt.dest, entry.uid) is not None:
            return True
        return self._hsm_for(node.stmt.dest, entry, state.cg) is not None

    def try_match(self, state, locs, blocked, cfg) -> List[MatchResult]:
        results = super().try_match(state, locs, blocked, cfg)  # arms _match_trace
        self._proof_trace = [] if self._match_trace is not None else None
        self.prover.trace = self._proof_trace
        try:
            if results:
                return results
            return self._hsm_match(state, locs, cfg)
        finally:
            self.prover.trace = None

    def match_explanation(self):
        data = super().match_explanation() or {}
        if self._proof_trace:
            # the raw set/seq-equality queries behind the HSM verdicts
            data["hsm_proofs"] = _cap_list(self._proof_trace)
        return data or None

    def _hsm_match(self, state: SymbolicState, locs: Sequence[int], cfg) -> List[MatchResult]:
        receivers = [
            pos for pos, nid in enumerate(locs)
            if cfg.node(nid).kind == NodeKind.RECV
        ]
        for r_pos in receivers:
            recv_node = cfg.node(locs[r_pos])
            recv_stmt = recv_node.stmt
            assert isinstance(recv_stmt, Recv)
            # rendezvous sender psets
            for s_pos, nid in enumerate(locs):
                send_node = cfg.node(nid)
                if send_node.kind != NodeKind.SEND:
                    continue
                result = self._attempt_hsm(
                    state, cfg, s_pos, send_node, None, r_pos, recv_node
                )
                if result is not None:
                    return [result]
            # in-flight sends
            for index, pending in enumerate(state.pendings):
                send_node = cfg.node(pending.send_node)
                result = self._attempt_hsm(
                    state, cfg, None, send_node, (index, pending), r_pos, recv_node
                )
                if result is not None:
                    return [result]
        return []

    def _hsm_for(
        self, expr: Expr, entry: PSetEntry, cg: ConstraintGraph
    ) -> Optional[HSM]:
        """The HSM of a message expression over a whole process set."""
        rng = entry.pset.single_range()
        if rng is None:
            return None
        size = _range_size_poly(cg, rng)
        start = _bound_poly(cg, rng.lb)
        if size is None or start is None:
            return None
        if self._depersonalize(expr, entry.uid) is None:
            return None
        domain = pset_to_hsm(start, size)
        return expr_to_hsm(expr, domain, self.invariants)

    def _attempt_hsm(
        self,
        state: SymbolicState,
        cfg,
        s_pos: Optional[int],
        send_node: CFGNode,
        pending: Optional[Tuple[int, Pending]],
        r_pos: int,
        recv_node: CFGNode,
    ) -> Optional[MatchResult]:
        send_stmt = send_node.stmt
        recv_stmt = recv_node.stmt
        assert isinstance(send_stmt, Send) and isinstance(recv_stmt, Recv)
        if pending is None:
            s_entry = state.psets[s_pos]
        else:
            _, record = pending
            s_entry = PSetEntry(record.origin_uid, record.pset)
        r_entry = state.psets[r_pos]
        s_rng = s_entry.pset.single_range()
        r_rng = r_entry.pset.single_range()
        if s_rng is None or r_rng is None:
            return None

        # Section VIII-B currently requires sProcs == senders, rProcs == receivers
        cg = state.cg
        send_hsm = self._hsm_for(send_stmt.dest, s_entry, cg)
        if send_hsm is None:
            return None
        r_size = _range_size_poly(cg, r_rng)
        r_start = _bound_poly(cg, r_rng.lb)
        if r_size is None or r_start is None:
            return None
        receiver_set = pset_to_hsm(r_start, r_size)

        trace = self._match_trace
        record = None
        if trace is not None and len(trace) < _TRACE_CAP:
            record = {
                "kind": "hsm",
                "send_node": send_node.node_id,
                "recv_node": recv_node.node_id,
                "in_flight": pending[0] if pending else None,
                "send_hsm": str(send_hsm),
                "receiver_set": str(receiver_set),
            }
            trace.append(record)

        # (ii) surjection: the send expression maps senders onto receivers
        surjection = self.prover.set_equal(send_hsm, receiver_set)
        if record is not None:
            record["surjection"] = surjection
        if not surjection:
            return None
        # (i) identity: receive expr applied to the send image yields senders
        composed = expr_to_hsm(
            recv_stmt.src, send_hsm, self.invariants
        )
        if composed is None:
            if record is not None:
                record["identity"] = "recv expression not HSM-convertible"
            return None
        s_size = _range_size_poly(cg, s_rng)
        s_start = _bound_poly(cg, s_rng.lb)
        if s_size is None or s_start is None:
            return None
        sender_set = pset_to_hsm(s_start, s_size)
        identity = self.prover.seq_equal(composed, sender_set)
        if record is not None:
            record["identity"] = identity
        if not identity:
            return None

        new = state.copy()
        psets = list(new.psets)
        if pending is None:
            pass  # whole sender set matched, no split, no residue
        else:
            index, record = pending
            pendings = list(new.pendings)
            del pendings[index]
            new.pendings = tuple(pendings)
        # whole receiver set matched: havoc the received variable
        new.cg.assign(qualify(r_entry.uid, recv_stmt.target), None)
        new.psets = tuple(psets)
        return MatchResult(
            state=new,
            sender_pos=s_pos,
            recv_pos=r_pos,
            send_node=send_node.node_id,
            recv_node=recv_node.node_id,
            sender_desc=_describe(cg, s_entry.pset),
            receiver_desc=_describe(cg, r_entry.pset),
            pending_index=pending[0] if pending else None,
            mtype_send=send_stmt.mtype,
            mtype_recv=recv_stmt.mtype,
        )


def _expr_to_poly(expr: Expr) -> Optional[Poly]:
    """MPL expression to polynomial (+, -, * only; unqualified names)."""
    from repro.lang.ast import BinOp, Num, UnaryOp

    if isinstance(expr, Num):
        return Poly.const(expr.value)
    if isinstance(expr, Var):
        return Poly.var(expr.name)
    if isinstance(expr, UnaryOp) and expr.op == "-":
        inner = _expr_to_poly(expr.operand)
        return None if inner is None else -inner
    if isinstance(expr, BinOp) and expr.op in ("+", "-", "*"):
        left = _expr_to_poly(expr.left)
        right = _expr_to_poly(expr.right)
        if left is None or right is None:
            return None
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    return None


def _bound_poly(cg: ConstraintGraph, bound) -> Optional[Poly]:
    """A process-set bound as a polynomial over uniform parameters: the
    canonical one of its equal forms that name no namespace variable."""
    forms = [
        form for form in cg.equivalents(bound)
        if all("::" not in name for name in form.variables())
    ]
    return Poly.coerce(canonical(forms)) if forms else None


def _range_size_poly(cg: ConstraintGraph, rng) -> Optional[Poly]:
    """``ub - lb + 1`` as a polynomial over uniform parameters."""
    lb = _bound_poly(cg, rng.lb)
    ub = _bound_poly(cg, rng.ub)
    if lb is None or ub is None:
        return None
    return ub - lb + Poly.const(1)


def analyze_cartesian(program_or_spec, client: Optional[CartesianClient] = None,
                      limits=None, *, checkpointer=None, resume=None):
    """Run the Cartesian client; returns ``(result, cfg, client)``."""
    from repro.analyses.simple_symbolic import analyze_program

    client = client or CartesianClient()
    return analyze_program(
        program_or_spec, client, limits,
        checkpointer=checkpointer, resume=resume,
    )
