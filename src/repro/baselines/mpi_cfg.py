"""MPI-CFG baseline (Shires et al., Section II).

MPI-CFGs extend the sequential CFG with *communication edges* between send
and receive nodes.  The construction is deliberately sequential-minded:

1. connect **every** send node to **every** receive node;
2. prune edges that sequential information refutes:
   a. declared message types differ;
   b. both partner expressions are constants that contradict each other
      (the send targets rank ``d`` but the receive's constant source can
      never be a process executing that send — checked via sequential
      constant propagation on ``id``-refined branches at a probe ``np``);
   c. sender and receiver node are the same node (a node cannot be both).

The paper notes this approach is orthogonal to (and much less precise than)
the pCFG analysis; the benchmark harness quantifies exactly that: spurious
edges retained by MPI-CFG that the pCFG analysis proves impossible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dataflow.analyses import ConstantPropagation, eval_const
from repro.dataflow.solver import solve_forward
from repro.lang.ast import If, Num, Program, Recv, Send, While
from repro.lang.cfg import CFG, NodeKind, build_cfg

#: process count the pruning pass probes by default; see :func:`probe_np_for`
DEFAULT_PROBE_NP = 6

#: upper bound on an adaptively chosen probe np (keeps the per-rank constant
#: propagation affordable for programs mentioning absurdly large literals)
MAX_PROBE_NP = 32


@dataclass
class MPICFGResult:
    """The communication-edge relation of the MPI-CFG."""

    cfg: CFG
    comm_edges: Set[Tuple[int, int]] = field(default_factory=set)
    pruned: List[Tuple[int, int, str]] = field(default_factory=list)

    def edge_count(self) -> int:
        """Number of retained communication edges."""
        return len(self.comm_edges)

    def spurious_edges(self, true_edges: FrozenSet[Tuple[int, int]]) -> Set[Tuple[int, int]]:
        """Edges retained by MPI-CFG that never occur in a given topology."""
        return self.comm_edges - set(true_edges)


def _endpoint_constants(
    cfg: CFG, endpoints: List[int], probe_np: int
) -> Dict[int, Dict[int, Optional[int]]]:
    """Per-rank constant partner of each endpoint node, for reaching ranks.

    Runs sequential constant propagation once per rank (the classical
    whole-program specialization MPI-CFG implementations use to prune) and
    returns node -> {rank: constant partner, None when not constant}.  A
    rank appears only if its raw in-state at the node is not bottom
    (``sequential_constants`` maps bottom and reachable-empty alike to
    ``{}``, so the raw solver states are consulted).
    """
    exprs = {}
    for node_id in endpoints:
        stmt = cfg.node(node_id).stmt
        exprs[node_id] = stmt.dest if isinstance(stmt, Send) else stmt.src
    consts: Dict[int, Dict[int, Optional[int]]] = {n: {} for n in endpoints}
    for rank in range(probe_np):
        states = solve_forward(cfg, ConstantPropagation(probe_np, rank))
        for node_id, expr in exprs.items():
            state = states[node_id]
            if state is None:
                continue
            env = dict(state)
            env.setdefault("id", rank)
            env.setdefault("np", probe_np)
            value = eval_const(expr, env, probe_np)
            consts[node_id][rank] = value if isinstance(value, int) else None
    return consts


def _rank_literal_bound(program: Program) -> int:
    """Largest integer literal in a rank-relevant position (-1 when none).

    Rank-relevant positions are partner expressions (``send``'s dest,
    ``receive``'s src) and branch/loop conditions that mention ``id`` —
    the places a literal constrains *which process* communicates.  Value
    expressions (``x = 98``) are deliberately excluded so data constants
    cannot inflate the probe.
    """
    bound = -1
    for stmt in program.walk():
        exprs = []
        if isinstance(stmt, Send):
            exprs.append(stmt.dest)
        elif isinstance(stmt, Recv):
            exprs.append(stmt.src)
        elif isinstance(stmt, (If, While)) and "id" in stmt.cond.free_vars():
            exprs.append(stmt.cond)
        for expr in exprs:
            for node in expr.walk():
                if isinstance(node, Num) and isinstance(node.value, int):
                    bound = max(bound, node.value)
    return bound


def probe_np_for(program: Program) -> int:
    """A probe process count at which every mentioned rank is representable.

    Pruning rule (b) is only sound if every rank a literal can name
    actually *exists* at the probe np: probing ``send x -> 6`` at np=6
    (ranks 0..5) makes the guard ``id == 6`` unreachable for every rank
    and wrongly refutes all of that send's edges.  We therefore probe at
    least two ranks past the largest rank-relevant literal (the named
    rank plus one bystander), clamped to :data:`MAX_PROBE_NP`.
    """
    return min(max(DEFAULT_PROBE_NP, _rank_literal_bound(program) + 2), MAX_PROBE_NP)


def _prune_at(cfg: CFG, sends, recvs, probe_np: int):
    """Edge sets (kept, pruned-reason map) from probing at one np."""
    consts = _endpoint_constants(cfg, sends + recvs, probe_np)

    kept: Set[Tuple[int, int]] = set()
    pruned: Dict[Tuple[int, int], str] = {}
    for send_id in sends:
        send_node = cfg.node(send_id)
        assert isinstance(send_node.stmt, Send)
        for recv_id in recvs:
            recv_node = cfg.node(recv_id)
            assert isinstance(recv_node.stmt, Recv)
            # prune rule (a): declared type mismatch
            if send_node.stmt.mtype != recv_node.stmt.mtype:
                pruned[(send_id, recv_id)] = "type-mismatch"
                continue
            # prune rule (b): contradictory constant endpoints at probe np —
            # keep the edge iff SOME (sender rank, receiver rank) pair is
            # consistent: sender targets the receiver and the receiver
            # expects the sender (unknown constants stay consistent)
            consistent = False
            for s_rank, dest in consts[send_id].items():
                for r_rank, src in consts[recv_id].items():
                    dest_ok = dest is None or dest == r_rank
                    src_ok = src is None or src == s_rank
                    if dest_ok and src_ok:
                        consistent = True
                        break
                if consistent:
                    break
            if not consistent:
                pruned[(send_id, recv_id)] = "constant-mismatch"
                continue
            kept.add((send_id, recv_id))
    return kept, pruned


def build_mpi_cfg(
    program: Program, probe_np: Optional[int] = None, cfg: Optional[CFG] = None
) -> MPICFGResult:
    """Construct the MPI-CFG of a program and prune with sequential facts.

    ``probe_np`` defaults to :func:`probe_np_for`, which adapts to the
    ranks the program mentions; when the adaptive probe differs from
    :data:`DEFAULT_PROBE_NP` both process counts are probed and an edge is
    pruned only if *every* probe refutes it, keeping the baseline on the
    over-approximate side (found by the corpus sweep: ``mplg1-b26c6652``).
    """
    cfg = cfg if cfg is not None else build_cfg(program)
    result = MPICFGResult(cfg)
    sends = [n.node_id for n in cfg.nodes.values() if n.kind == NodeKind.SEND]
    recvs = [n.node_id for n in cfg.nodes.values() if n.kind == NodeKind.RECV]

    if probe_np is None:
        probes = sorted({DEFAULT_PROBE_NP, probe_np_for(program)})
    else:
        probes = [probe_np]
    kept: Set[Tuple[int, int]] = set()
    pruned_maps = []
    for probe in probes:
        probe_kept, probe_pruned = _prune_at(cfg, sends, recvs, probe)
        kept |= probe_kept
        pruned_maps.append(probe_pruned)
    result.comm_edges = kept
    for edge, why in sorted(pruned_maps[0].items()):
        if all(edge in pruned for pruned in pruned_maps):
            result.pruned.append((edge[0], edge[1], why))
    return result
