"""Control-flow graph construction for MPL programs.

The pCFG framework (Section V) is defined over the per-process CFG of the
analyzed program, so every analysis in this library starts here.  Nodes carry
one statement each (or a branch condition); edges are labelled ``True`` /
``False`` out of branches and unlabelled otherwise.

``for`` loops are desugared into ``init; while (var <= stop) { body; var++ }``
which is exactly the shape of the paper's Fig. 5 loop and lets the
constraint-graph client derive the loop invariant through widening.

Liveness (:meth:`CFG.live_in`) is solved once per CFG, on first use, and
cached on it: the local-``if`` marking and the client's projection of dead
variables both read it, while building a CFG only to fingerprint it (a
service cache hit) never pays for it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lang.ast import (
    Assert,
    Assign,
    BinOp,
    Compare,
    Expr,
    For,
    If,
    Num,
    Print,
    Program,
    Recv,
    Send,
    Skip,
    Stmt,
    Var,
    While,
)


class NodeKind(enum.Enum):
    """What a CFG node does."""

    ENTRY = "entry"
    EXIT = "exit"
    ASSIGN = "assign"
    BRANCH = "branch"
    SEND = "send"
    RECV = "recv"
    PRINT = "print"
    ASSERT = "assert"
    SKIP = "skip"


@dataclass
class CFGNode:
    """One CFG node: a statement or a branch condition.

    ``stmt`` holds the originating AST statement (for ``BRANCH`` nodes of
    ``if``/``while`` it is the structured statement, and ``cond`` holds the
    branch condition).
    """

    node_id: int
    kind: NodeKind
    stmt: Optional[Stmt] = None
    cond: Optional[Expr] = None
    label: str = ""
    #: of an ``if`` whose arms hold no send, receive or assert: its graph
    #: and the first node id past its arms (set by the builder)
    quiet_arms: Optional[Tuple["CFG", int]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def local_if(self) -> bool:
        """An ``if`` whose arms neither communicate nor assert and whose
        assignments are dead after it: nothing later can tell which arm a
        process took (see :func:`_is_local_if`).  Reads the graph's
        liveness, so building a CFG does not solve it."""
        if self.quiet_arms is None:
            return False
        cfg, end = self.quiet_arms
        return _is_local_if(cfg, self.node_id, end)

    def is_comm(self) -> bool:
        """True for send/receive nodes (the paper's ``isCommOp``)."""
        return self.kind in (NodeKind.SEND, NodeKind.RECV)

    def uses_defs(self) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """The variables this node reads, and the ones it writes."""
        uses: FrozenSet[str] = frozenset()
        defs: FrozenSet[str] = frozenset()
        if self.kind == NodeKind.ASSIGN:
            uses = frozenset(self.stmt.value.free_vars())
            defs = frozenset({self.stmt.target})
        elif self.kind == NodeKind.BRANCH:
            uses = frozenset(self.cond.free_vars())
        elif self.kind == NodeKind.SEND:
            uses = frozenset(self.stmt.value.free_vars() | self.stmt.dest.free_vars())
        elif self.kind == NodeKind.RECV:
            uses = frozenset(self.stmt.src.free_vars())
            defs = frozenset({self.stmt.target})
        elif self.kind in (NodeKind.PRINT, NodeKind.ASSERT):
            expr = self.stmt.value if self.kind == NodeKind.PRINT else self.stmt.cond
            uses = frozenset(expr.free_vars())
        return uses, defs

    def describe(self) -> str:
        """Human-readable one-line description."""
        if self.kind == NodeKind.ENTRY:
            return "entry"
        if self.kind == NodeKind.EXIT:
            return "exit"
        if self.kind == NodeKind.BRANCH:
            return f"branch {self.cond}"
        return str(self.stmt)

    def __repr__(self) -> str:
        tag = self.label or self.node_id
        return f"<CFGNode {tag}: {self.describe()}>"


@dataclass
class CFG:
    """A control-flow graph with a unique entry and a unique exit node."""

    nodes: Dict[int, CFGNode] = field(default_factory=dict)
    edges: Dict[int, List[Tuple[int, Optional[bool]]]] = field(default_factory=dict)
    entry: int = 0
    exit: int = 0
    #: ``(live_in, live_out)`` per node, solved on first use (see
    #: :meth:`live_in`); the graph must not change after that
    _liveness: Optional[
        Tuple[Dict[int, FrozenSet[str]], Dict[int, FrozenSet[str]]]
    ] = field(default=None, repr=False, compare=False)

    # -- construction helpers ----------------------------------------------

    def add_node(
        self,
        kind: NodeKind,
        stmt: Optional[Stmt] = None,
        cond: Optional[Expr] = None,
    ) -> int:
        """Create a node and return its id."""
        node_id = len(self.nodes)
        self.nodes[node_id] = CFGNode(node_id, kind, stmt, cond)
        self.edges[node_id] = []
        return node_id

    def add_edge(self, src: int, dst: int, label: Optional[bool] = None) -> None:
        """Add a (possibly labelled) edge."""
        if (dst, label) not in self.edges[src]:
            self.edges[src].append((dst, label))

    # -- queries -------------------------------------------------------------

    def node(self, node_id: int) -> CFGNode:
        """The node with the given id."""
        return self.nodes[node_id]

    def successors(self, node_id: int) -> List[Tuple[int, Optional[bool]]]:
        """Outgoing ``(target, label)`` pairs."""
        return list(self.edges[node_id])

    def succ_ids(self, node_id: int) -> List[int]:
        """Outgoing target ids."""
        return [dst for dst, _ in self.edges[node_id]]

    def predecessors(self, node_id: int) -> List[int]:
        """Ids of all nodes with an edge into ``node_id``."""
        return [src for src, targets in self.edges.items()
                if any(dst == node_id for dst, _ in targets)]

    def comm_nodes(self) -> List[CFGNode]:
        """All send/receive nodes."""
        return [node for node in self.nodes.values() if node.is_comm()]

    def reverse_postorder(self) -> List[int]:
        """Reverse postorder node ids from the entry (for worklist seeding)."""
        seen = set()
        order: List[int] = []

        def visit(node_id: int) -> None:
            stack = [(node_id, iter(self.succ_ids(node_id)))]
            seen.add(node_id)
            while stack:
                current, successors = stack[-1]
                advanced = False
                for succ in successors:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.succ_ids(succ))))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self.entry)
        return list(reversed(order))

    def live_in(self, node_id: int) -> FrozenSet[str]:
        """Variables some path from ``node_id`` reads before writing them.

        ``id`` is always live: a process's rank is fixed for its whole run.
        """
        return self._live_sets()[0][node_id]

    def live_out(self) -> Dict[int, FrozenSet[str]]:
        """Classical live-out set of every node (the union of its
        successors' live-in sets, ``id`` only where it is read)."""
        return self._live_sets()[1]

    def _live_sets(
        self,
    ) -> Tuple[Dict[int, FrozenSet[str]], Dict[int, FrozenSet[str]]]:
        if self._liveness is None:
            self._liveness = _solve_liveness(self)
        return self._liveness

    def rpo_index(self) -> Dict[int, int]:
        """Map node id to its reverse-postorder rank."""
        return {node_id: rank for rank, node_id in enumerate(self.reverse_postorder())}

    def assign_letter_labels(self) -> None:
        """Give nodes the paper-style letter labels A, B, C... in RPO."""
        letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
        for rank, node_id in enumerate(self.reverse_postorder()):
            if rank < len(letters):
                self.nodes[node_id].label = letters[rank]
            else:
                self.nodes[node_id].label = f"N{rank}"

    def to_dot(self) -> str:
        """Graphviz rendering (for documentation and debugging)."""
        lines = ["digraph cfg {"]
        for node in self.nodes.values():
            text = node.describe().replace('"', "'")
            lines.append(f'  n{node.node_id} [label="{node.label or node.node_id}: {text}"];')
        for src, targets in self.edges.items():
            for dst, label in targets:
                attr = "" if label is None else f' [label="{label}"]'
                lines.append(f"  n{src} -> n{dst}{attr};")
        lines.append("}")
        return "\n".join(lines)


class _Builder:
    """Translates a statement list into CFG nodes and edges."""

    def __init__(self) -> None:
        self.cfg = CFG()

    def build(self, program: Program) -> CFG:
        entry = self.cfg.add_node(NodeKind.ENTRY)
        self.cfg.entry = entry
        heads, tails = self._build_block(list(program.body))
        exit_id = self.cfg.add_node(NodeKind.EXIT)
        self.cfg.exit = exit_id
        if heads is None:
            self.cfg.add_edge(entry, exit_id)
        else:
            self.cfg.add_edge(entry, heads)
            for tail, label in tails:
                self.cfg.add_edge(tail, exit_id, label)
        self.cfg.assign_letter_labels()
        return self.cfg

    def _build_block(
        self, stmts: List[Stmt]
    ) -> Tuple[Optional[int], List[Tuple[int, Optional[bool]]]]:
        """Build a block; returns (first node id or None, dangling exits)."""
        first: Optional[int] = None
        dangling: List[Tuple[int, Optional[bool]]] = []
        for stmt in stmts:
            head, tails = self._build_stmt(stmt)
            if first is None:
                first = head
            for tail, label in dangling:
                self.cfg.add_edge(tail, head, label)
            dangling = tails
        return first, dangling

    def _build_stmt(self, stmt: Stmt) -> Tuple[int, List[Tuple[int, Optional[bool]]]]:
        if isinstance(stmt, Skip):
            node = self.cfg.add_node(NodeKind.SKIP, stmt)
            return node, [(node, None)]
        if isinstance(stmt, Assign):
            node = self.cfg.add_node(NodeKind.ASSIGN, stmt)
            return node, [(node, None)]
        if isinstance(stmt, Print):
            node = self.cfg.add_node(NodeKind.PRINT, stmt)
            return node, [(node, None)]
        if isinstance(stmt, Assert):
            node = self.cfg.add_node(NodeKind.ASSERT, stmt)
            return node, [(node, None)]
        if isinstance(stmt, Send):
            node = self.cfg.add_node(NodeKind.SEND, stmt)
            return node, [(node, None)]
        if isinstance(stmt, Recv):
            node = self.cfg.add_node(NodeKind.RECV, stmt)
            return node, [(node, None)]
        if isinstance(stmt, If):
            return self._build_if(stmt)
        if isinstance(stmt, While):
            return self._build_while(stmt)
        if isinstance(stmt, For):
            return self._build_for(stmt)
        raise TypeError(f"unknown statement type {type(stmt).__name__}")

    def _build_if(self, stmt: If) -> Tuple[int, List[Tuple[int, Optional[bool]]]]:
        branch = self.cfg.add_node(NodeKind.BRANCH, stmt, cond=stmt.cond)
        exits: List[Tuple[int, Optional[bool]]] = []
        then_head, then_tails = self._build_block(list(stmt.then_body))
        if then_head is None:
            exits.append((branch, True))
        else:
            self.cfg.add_edge(branch, then_head, True)
            exits.extend(then_tails)
        else_head, else_tails = self._build_block(list(stmt.else_body))
        if else_head is None:
            exits.append((branch, False))
        else:
            self.cfg.add_edge(branch, else_head, False)
            exits.extend(else_tails)
        if not any(isinstance(inner, (Send, Recv, Assert)) for inner in stmt.walk()):
            self.cfg.nodes[branch].quiet_arms = (self.cfg, len(self.cfg.nodes))
        return branch, exits

    def _build_while(self, stmt: While) -> Tuple[int, List[Tuple[int, Optional[bool]]]]:
        branch = self.cfg.add_node(NodeKind.BRANCH, stmt, cond=stmt.cond)
        body_head, body_tails = self._build_block(list(stmt.body))
        if body_head is None:
            self.cfg.add_edge(branch, branch, True)
        else:
            self.cfg.add_edge(branch, body_head, True)
            for tail, label in body_tails:
                self.cfg.add_edge(tail, branch, label)
        return branch, [(branch, False)]

    def _build_for(self, stmt: For) -> Tuple[int, List[Tuple[int, Optional[bool]]]]:
        init = Assign(stmt.var, stmt.start)
        init_node = self.cfg.add_node(NodeKind.ASSIGN, init)
        cond = Compare("<=", Var(stmt.var), stmt.stop)
        loop = While(
            cond,
            tuple(stmt.body) + (Assign(stmt.var, BinOp("+", Var(stmt.var), Num(1))),),
        )
        loop_head, loop_tails = self._build_stmt(loop)
        self.cfg.add_edge(init_node, loop_head)
        return init_node, loop_tails


def _is_local_if(cfg: CFG, branch: int, end: int) -> bool:
    """Do the assignments of the quiet ``if`` at ``branch`` die with it?

    The builder emits only structured ``if``/``while``/``for`` (no break,
    goto or return), so the nodes a process can reach from an ``if``
    before its immediate post-dominator are exactly the statements of its
    two arms, node ids ``branch..end-1``, and every edge leaving that range
    enters the post-dominator.  "No send or receive before the ipdom" is
    therefore a walk of the arms' AST (done by the builder), with no
    post-dominator pass.  A variable the arms assign must also be dead at
    the post-dominator, so that no later branch, message or print can
    depend on which arm ran.
    """
    assigned = set()
    for stmt in cfg.nodes[branch].stmt.walk():
        if isinstance(stmt, Assign):
            assigned.add(stmt.target)
        elif isinstance(stmt, For):
            assigned.add(stmt.var)
    ipdom = next(
        succ
        for node_id in range(branch, end)
        for succ in cfg.succ_ids(node_id)
        if not branch <= succ < end
    )
    return assigned.isdisjoint(cfg.live_in(ipdom))


_ID = frozenset({"id"})


def _solve_liveness(
    cfg: CFG,
) -> Tuple[Dict[int, FrozenSet[str]], Dict[int, FrozenSet[str]]]:
    """Backward liveness: ``live_in = uses | (live_out - defs)`` per node.

    Each node's uses and defs are read once.  Nodes start on a stack in
    reverse postorder, so they are popped successors first, and a node
    whose live-in set grows pushes back only its predecessors.  The
    returned live-in sets also hold ``id``.
    """
    uses_defs = {node_id: node.uses_defs() for node_id, node in cfg.nodes.items()}
    preds: Dict[int, List[int]] = {node_id: [] for node_id in cfg.nodes}
    for src, targets in cfg.edges.items():
        for dst, _ in targets:
            preds[dst].append(src)
    work = cfg.reverse_postorder()
    queued = set(work)
    work = [node_id for node_id in cfg.nodes if node_id not in queued] + work
    queued.update(cfg.nodes)
    empty: FrozenSet[str] = frozenset()
    live_in = dict.fromkeys(cfg.nodes, empty)
    live_out = dict.fromkeys(cfg.nodes, empty)
    while work:
        node_id = work.pop()
        queued.discard(node_id)
        out = empty
        for succ, _ in cfg.edges[node_id]:
            out = out | live_in[succ]
        live_out[node_id] = out
        uses, defs = uses_defs[node_id]
        new_in = uses | (out - defs) if defs else uses | out
        if new_in != live_in[node_id]:
            live_in[node_id] = new_in
            for pred in preds[node_id]:
                if pred not in queued:
                    queued.add(pred)
                    work.append(pred)
    return {node_id: live | _ID for node_id, live in live_in.items()}, live_out


def build_cfg(program: Program) -> CFG:
    """Build the control-flow graph of an MPL program."""
    return _Builder().build(program)
