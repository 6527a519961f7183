"""pCFG engine behaviour tests."""

from repro.analyses.simple_symbolic import SimpleSymbolicClient, _form, analyze_program
from repro.core.engine import EngineLimits
from repro.lang import programs
from repro.lang.cfg import NodeKind


class TestBasicRuns:
    def test_sequential_program_no_matches(self):
        result, _, _ = analyze_program(programs.get("sequential_only"))
        assert not result.gave_up
        assert result.matches == frozenset()
        assert result.final_states

    def test_pingpong_matches_both_directions(self, pingpong_cfg):
        result, cfg, _ = analyze_program(programs.get("pingpong"))
        assert not result.gave_up
        assert len(result.matches) == 2
        labels = {
            (cfg.node(s).label, cfg.node(r).label) for s, r in result.matches
        }
        # one send from process 0's branch, one from process 1's branch
        assert len(labels) == 2

    def test_match_records_symbolic_descriptions(self):
        result, _, _ = analyze_program(programs.get("pingpong"))
        descs = {(r.sender_desc, r.receiver_desc) for r in result.match_records}
        assert ("[0..0]", "[1..1]") in descs
        assert ("[1..1]", "[0..0]") in descs

    def test_steps_counted(self):
        result, _, _ = analyze_program(programs.get("pingpong"))
        assert result.steps > 0


class TestGiveUp:
    def test_stuck_receive_gives_up(self):
        result, cfg, _ = analyze_program(programs.get("stuck_receive"))
        assert result.gave_up
        assert result.blocked_at_giveup
        node_id, desc = result.blocked_at_giveup[0]
        assert cfg.node(node_id).kind == NodeKind.RECV
        assert "[0..0]" in desc

    def test_ring_modular_gives_up_conservatively(self):
        """Modular expressions exceed both clients: T, never wrong matches."""
        result, _, _ = analyze_program(programs.get("ring_modular"))
        assert result.gave_up

    def test_step_limit(self):
        limits = EngineLimits(max_steps=3)
        result, _, _ = analyze_program(programs.get("exchange_with_root"), limits=limits)
        assert result.gave_up
        assert "step limit" in result.give_up_reason

    def test_max_psets_limit(self):
        limits = EngineLimits(max_psets=1)
        result, _, _ = analyze_program(programs.get("pingpong"), limits=limits)
        assert result.gave_up


class TestExploredPCFG:
    def test_fraction_of_pcfg_is_small(self):
        """Section V: the analysis examines a small fraction of the pCFG.

        An upper bound on distinct location-tuples alone is |N|^p; the
        explored node count must be dramatically smaller.
        """
        result, cfg, _ = analyze_program(programs.get("exchange_with_root"))
        explored = result.explored.node_count()
        assert explored < 4 * len(cfg.nodes)

    def test_edges_recorded_with_kinds(self):
        result, _, _ = analyze_program(programs.get("pingpong"))
        kinds = {edge.kind for edge in result.explored.edges}
        assert "split" in kinds
        assert "match" in kinds
        assert "transfer" in kinds

    def test_entry_recorded(self):
        result, _, _ = analyze_program(programs.get("pingpong"))
        assert result.explored.entry is not None

    def test_dot_rendering(self):
        result, cfg, _ = analyze_program(programs.get("pingpong"))
        dot = result.explored.to_dot(cfg)
        assert dot.startswith("digraph")
        assert "match" in dot


class TestNodeStates:
    def test_loop_invariant_reaches_symbolic_form(self):
        """The Fig. 5 widening: some pCFG node holds the process sets
        {[0], [1..i]-style, [i+1..np-1]-style} with symbolic i bounds."""
        client = SimpleSymbolicClient()
        result, cfg, _ = analyze_program(
            programs.get("exchange_with_root"), client
        )
        symbolic_states = 0
        for key, state in result.node_states.items():
            # each bound in the form a reader sees (the one describe_pset prints)
            for entry in state.psets:
                text = " ".join(
                    str(_form(state.cg, bound))
                    for rng in entry.pset.ranges
                    for bound in (rng.lb, rng.ub)
                )
                if "::i" in text:
                    symbolic_states += 1
                    break
        assert symbolic_states > 0

    def test_final_states_have_merged_everyone(self):
        client = SimpleSymbolicClient()
        result, _, _ = analyze_program(programs.get("pingpong"), client)
        assert result.final_states
        # at termination everyone is at the exit: one merged pset remains
        for state in result.final_states:
            assert client.num_psets(state) == 1
