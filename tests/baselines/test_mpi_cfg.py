"""MPI-CFG baseline tests: soundness and (im)precision vs the pCFG analysis."""

from pathlib import Path

import pytest

from repro.analyses.simple_symbolic import analyze_program
from repro.baselines.concrete import concrete_matches
from repro.baselines.mpi_cfg import (
    DEFAULT_PROBE_NP,
    MAX_PROBE_NP,
    build_mpi_cfg,
    probe_np_for,
)
from repro.corpus.generator import generate, seed_stream
from repro.dataflow.analyses import ConstantPropagation, eval_const, sequential_constants
from repro.dataflow.solver import solve_forward
from repro.lang import parse, programs
from repro.lang.ast import Send
from repro.lang.cfg import NodeKind, build_cfg

REGRESSIONS = Path(__file__).resolve().parents[2] / "corpus" / "regressions"


class TestSoundness:
    @pytest.mark.parametrize(
        "name",
        ["pingpong", "exchange_with_root", "broadcast_fanout", "shift_right",
         "mdcask_full"],
    )
    def test_covers_ground_truth(self, name):
        program = programs.get(name).parse()
        mpi = build_mpi_cfg(program)
        truth = concrete_matches(program, 6, cfg=mpi.cfg)
        assert set(truth.node_edges) <= mpi.comm_edges


class TestPruning:
    def test_type_mismatch_pruned(self):
        program = programs.get("type_mismatch").parse()
        mpi = build_mpi_cfg(program)
        assert any(reason == "type-mismatch" for *_edge, reason in mpi.pruned)
        assert mpi.comm_edges == set()

    def test_constant_mismatch_pruned(self):
        source = """
            if id == 0 then
                send 1 -> 1
            elif id == 1 then
                receive y <- 2
            elif id == 2 then
                send 2 -> 1
                skip
            else
                skip
            end
        """
        # the receive expects rank 2; the send from rank 0 cannot match it
        program = parse(source)
        mpi = build_mpi_cfg(program)
        reasons = {reason for *_e, reason in mpi.pruned}
        assert "constant-mismatch" in reasons

    def test_symbolic_endpoints_kept(self):
        program = programs.get("exchange_with_root").parse()
        mpi = build_mpi_cfg(program)
        # the loop-carried destination `i` is not constant: edges survive
        assert mpi.edge_count() >= 2


class TestPrecisionGap:
    @pytest.mark.parametrize("name", ["exchange_with_root", "mdcask_full"])
    def test_pcfg_strictly_more_precise(self, name):
        """The headline comparison: MPI-CFG keeps spurious edges the pCFG
        analysis eliminates."""
        spec = programs.get(name)
        program = spec.parse()
        result, cfg, _ = analyze_program(spec)
        assert not result.gave_up
        mpi = build_mpi_cfg(program, cfg=cfg)
        truth = concrete_matches(program, 8, cfg=cfg)
        mpi_spurious = mpi.spurious_edges(truth.node_edges)
        pcfg_spurious = set(result.matches) - set(truth.node_edges)
        assert len(pcfg_spurious) == 0
        assert len(mpi_spurious) > 0
        assert set(result.matches) < mpi.comm_edges

    @pytest.mark.parametrize(
        "name", ["pingpong", "shift_right", "neighbor_exchange_1d"]
    )
    def test_pcfg_never_less_precise(self, name):
        """Even where MPI-CFG has no spurious edges, pCFG matches a subset."""
        spec = programs.get(name)
        program = spec.parse()
        result, cfg, _ = analyze_program(spec)
        assert not result.gave_up
        mpi = build_mpi_cfg(program, cfg=cfg)
        assert set(result.matches) <= mpi.comm_edges


class TestAdaptiveProbe:
    """Regression mplg1-b26c6652: ranks beyond the fixed probe np.

    Probing constant propagation at np=6 makes a guard like ``id == 6``
    unreachable for every rank, so all edges of a rank-3<->rank-6 exchange
    were wrongly pruned as 'constant-mismatch' and the "sound by
    construction" baseline claimed an empty topology.  The probe np now
    adapts to the largest rank-relevant literal.
    """

    SOURCE = """
        if id == 3 then
            x = id
            send x -> 6
            receive z <- 6
        elif id == 6 then
            receive y <- 3
            send y -> 3
        else
            skip
        end
    """

    def test_probe_np_covers_mentioned_ranks(self):
        program = parse(self.SOURCE)
        assert probe_np_for(program) >= 8

    def test_high_rank_edges_survive(self):
        program = parse(self.SOURCE)
        mpi = build_mpi_cfg(program)
        truth = concrete_matches(program, 7, cfg=mpi.cfg)
        assert set(truth.node_edges) <= mpi.comm_edges
        assert mpi.edge_count() == 2

    def test_data_literals_do_not_inflate_probe(self):
        program = parse("x = 98\nif id == 0 then\nsend x -> 1\nelse\nreceive y <- 0\nend")
        assert probe_np_for(program) == DEFAULT_PROBE_NP

    def test_probe_is_clamped(self):
        program = parse(
            "if id == 500 then\nsend 1 -> 0\nelse\nreceive y <- 500\nend"
        )
        assert probe_np_for(program) == MAX_PROBE_NP

    def test_explicit_probe_np_still_honored(self):
        program = parse(self.SOURCE)
        mpi = build_mpi_cfg(program, probe_np=6)
        assert mpi.comm_edges == set()  # the caller asked for np=6 facts


def _reference_constant_endpoint(cfg, node_id, probe_np):
    """rank -> constant partner of one node, one constant solve per rank."""
    node = cfg.node(node_id)
    expr = node.stmt.dest if isinstance(node.stmt, Send) else node.stmt.src
    values = {}
    for rank in range(probe_np):
        env = dict(sequential_constants(cfg, num_procs=probe_np, proc_id=rank)[node_id])
        env.setdefault("id", rank)
        env.setdefault("np", probe_np)
        value = eval_const(expr, env, probe_np)
        values[rank] = value if isinstance(value, int) else None
    return values


def _reference_reachable_by(cfg, node_id, probe_np):
    """Ranks whose raw constant-propagation in-state at the node is not bottom."""
    return {
        rank
        for rank in range(probe_np)
        if solve_forward(cfg, ConstantPropagation(probe_np, rank))[node_id] is not None
    }


def _reference_prune_at(cfg, sends, recvs, probe_np):
    consts = {n: _reference_constant_endpoint(cfg, n, probe_np) for n in sends + recvs}
    reach = {n: _reference_reachable_by(cfg, n, probe_np) for n in sends + recvs}
    kept, pruned = set(), {}
    for send_id in sends:
        send = cfg.node(send_id).stmt
        for recv_id in recvs:
            recv = cfg.node(recv_id).stmt
            if send.mtype != recv.mtype:
                pruned[(send_id, recv_id)] = "type-mismatch"
            elif any(
                (consts[send_id][s] is None or consts[send_id][s] == r)
                and (consts[recv_id][r] is None or consts[recv_id][r] == s)
                for s in reach[send_id]
                for r in reach[recv_id]
            ):
                kept.add((send_id, recv_id))
            else:
                pruned[(send_id, recv_id)] = "constant-mismatch"
    return kept, pruned


def _reference_mpi_cfg(program, cfg, probe_np=None):
    """(comm_edges, pruned) from the per-node helpers, probe by probe."""
    sends = [n.node_id for n in cfg.nodes.values() if n.kind == NodeKind.SEND]
    recvs = [n.node_id for n in cfg.nodes.values() if n.kind == NodeKind.RECV]
    if probe_np is None:
        probes = sorted({DEFAULT_PROBE_NP, probe_np_for(program)})
    else:
        probes = [probe_np]
    kept, pruned_maps = set(), []
    for probe in probes:
        probe_kept, probe_pruned = _reference_prune_at(cfg, sends, recvs, probe)
        kept |= probe_kept
        pruned_maps.append(probe_pruned)
    pruned = [
        (edge[0], edge[1], why)
        for edge, why in sorted(pruned_maps[0].items())
        if all(edge in p for p in pruned_maps)
    ]
    return kept, pruned


def _reference_cases():
    cases = [(name, programs.get(name).parse()) for name in programs.names()]
    cases += [(p.stem, parse(p.read_text())) for p in sorted(REGRESSIONS.glob("*.mpl"))]
    generated = [generate(seed) for seed in seed_stream(1337, 30)]
    cases += [(gen.corpus_id, gen.parse()) for gen in generated]
    return cases


_CASES = _reference_cases()


class TestAgainstPerNodeReference:
    """One constant solve per (probe, rank) yields the per-node helpers' edges."""

    @pytest.mark.parametrize("probe_np", [None, 4], ids=["default-probes", "np4"])
    @pytest.mark.parametrize("name,program", _CASES, ids=[name for name, _ in _CASES])
    def test_matches_reference(self, name, program, probe_np):
        cfg = build_cfg(program)
        mpi = build_mpi_cfg(program, probe_np=probe_np, cfg=cfg)
        kept, pruned = _reference_mpi_cfg(program, cfg, probe_np)
        assert mpi.comm_edges == kept
        assert mpi.pruned == pruned

    def test_corpus_exercises_both_prune_rules(self):
        reasons = {
            why for _name, program in _CASES for *_edge, why in build_mpi_cfg(program).pruned
        }
        assert reasons == {"type-mismatch", "constant-mismatch"}
