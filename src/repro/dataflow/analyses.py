"""Classical sequential analyses over a single-process CFG.

These deliberately ignore communication: a ``receive`` havocs its target.
They are the paper's foil — e.g. sequential constant propagation cannot
prove the Fig. 2 prints emit 5, while the pCFG constant propagation client
can.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from repro.dataflow.lattice import (
    BOTTOM,
    TOP,
    FlatConst,
    FlatLattice,
    Lattice,
    SetLattice,
)
from repro.dataflow.solver import DataflowProblem, solve_forward
from repro.lang.ast import (
    Assign,
    BinOp,
    Compare,
    Expr,
    InputExpr,
    Num,
    Recv,
    UnaryOp,
    Var,
)
from repro.lang.cfg import CFG, CFGNode, NodeKind

ConstEnv = Tuple[Tuple[str, FlatConst], ...]


class _ConstEnvLattice(Lattice[Optional[ConstEnv]]):
    """Environments var -> flat constant; None is the unreachable bottom."""

    def __init__(self) -> None:
        self._flat = FlatLattice()

    def bottom(self) -> Optional[ConstEnv]:
        return None

    def join(self, left: Optional[ConstEnv], right: Optional[ConstEnv]):
        if left is None:
            return right
        if right is None:
            return left
        lmap, rmap = dict(left), dict(right)
        names = set(lmap) | set(rmap)
        joined = {
            name: self._flat.join(lmap.get(name, BOTTOM), rmap.get(name, BOTTOM))
            for name in names
        }
        return tuple(sorted(joined.items(), key=lambda kv: kv[0]))


def eval_const(expr: Expr, env: Dict[str, FlatConst], num_procs: Optional[int] = None) -> FlatConst:
    """Abstract evaluation over the flat constant lattice."""
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, InputExpr):
        return TOP
    if isinstance(expr, Var):
        if expr.name == "np" and num_procs is not None:
            return num_procs
        return env.get(expr.name, TOP)
    if isinstance(expr, UnaryOp):
        value = eval_const(expr.operand, env, num_procs)
        if isinstance(value, int):
            return -value if expr.op == "-" else (0 if value else 1)
        return value
    if isinstance(expr, Compare):
        left = eval_const(expr.left, env, num_procs)
        right = eval_const(expr.right, env, num_procs)
        if isinstance(left, int) and isinstance(right, int):
            verdict = {
                "==": left == right,
                "!=": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[expr.op]
            return 1 if verdict else 0
        if left is BOTTOM or right is BOTTOM:
            return BOTTOM
        return TOP
    if isinstance(expr, BinOp):
        left = eval_const(expr.left, env, num_procs)
        right = eval_const(expr.right, env, num_procs)
        if left is BOTTOM or right is BOTTOM:
            return BOTTOM
        if isinstance(left, int) and isinstance(right, int):
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                return TOP if right == 0 else left // right
            if expr.op == "%":
                return TOP if right == 0 else left % right
            if expr.op == "and":
                return right if left else 0
            if expr.op == "or":
                return left if left else right
        # algebraic short-circuits
        if expr.op == "*" and (left == 0 or right == 0):
            return 0
        return TOP
    return TOP


class ConstantPropagation(DataflowProblem[Optional[ConstEnv]]):
    """Sequential constant propagation; receives havoc their target."""

    def __init__(self, num_procs: Optional[int] = None, proc_id: Optional[int] = None):
        super().__init__(_ConstEnvLattice())
        self._num_procs = num_procs
        self._proc_id = proc_id

    def entry_state(self) -> ConstEnv:
        env = {}
        if self._proc_id is not None:
            env["id"] = self._proc_id
        if self._num_procs is not None:
            env["np"] = self._num_procs
        return tuple(sorted(env.items()))

    def transfer(self, node: CFGNode, state: Optional[ConstEnv]):
        if state is None:
            return None
        env = dict(state)
        if node.kind == NodeKind.ASSIGN:
            assert isinstance(node.stmt, Assign)
            env[node.stmt.target] = eval_const(node.stmt.value, env, self._num_procs)
        elif node.kind == NodeKind.RECV:
            assert isinstance(node.stmt, Recv)
            env[node.stmt.target] = TOP
        return tuple(sorted(env.items()))

    def refine(self, node: CFGNode, state, label):
        if state is None or node.kind != NodeKind.BRANCH or label is None:
            return state
        env = dict(state)
        verdict = eval_const(node.cond, env, self._num_procs)
        if isinstance(verdict, int) and bool(verdict) != label:
            return None  # this edge is dead
        return state


def sequential_constants(
    cfg: CFG, num_procs: Optional[int] = None, proc_id: Optional[int] = None
) -> Dict[int, Dict[str, FlatConst]]:
    """Fixed point of sequential constant propagation as plain dicts."""
    states = solve_forward(cfg, ConstantPropagation(num_procs, proc_id))
    return {
        nid: (dict(state) if state is not None else {})
        for nid, state in states.items()
    }


Definition = Tuple[str, int]


class ReachingDefinitions(DataflowProblem[FrozenSet[Definition]]):
    """Classical reaching definitions: (variable, defining node id) pairs."""

    def __init__(self) -> None:
        super().__init__(SetLattice())

    def entry_state(self) -> FrozenSet[Definition]:
        return frozenset()

    def transfer(self, node: CFGNode, state: FrozenSet[Definition]):
        target = None
        if node.kind == NodeKind.ASSIGN:
            assert isinstance(node.stmt, Assign)
            target = node.stmt.target
        elif node.kind == NodeKind.RECV:
            assert isinstance(node.stmt, Recv)
            target = node.stmt.target
        if target is None:
            return state
        survivors = frozenset(d for d in state if d[0] != target)
        return survivors | {(target, node.node_id)}


class LiveVariables:
    """Classical backward liveness, exposed as a dict.

    The solver is the CFG's own (:meth:`repro.lang.cfg.CFG.live_in`), so
    this class, the local-``if`` marking and the client's projection of
    dead variables agree by construction.
    """

    def __init__(self, cfg: CFG):
        self._cfg = cfg

    def solve(self) -> Dict[int, FrozenSet[str]]:
        """Live-out sets per node."""
        return dict(self._cfg.live_out())
