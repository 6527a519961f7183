"""CFG construction tests."""

import pytest

from repro.lang import build_cfg, parse, programs
from repro.lang.cfg import NodeKind


def cfg_of(source: str):
    return build_cfg(parse(source))


class TestStructure:
    def test_entry_and_exit_unique(self):
        cfg = cfg_of("x = 1")
        kinds = [n.kind for n in cfg.nodes.values()]
        assert kinds.count(NodeKind.ENTRY) == 1
        assert kinds.count(NodeKind.EXIT) == 1

    def test_empty_program(self):
        cfg = cfg_of("")
        assert cfg.succ_ids(cfg.entry) == [cfg.exit]

    def test_straightline_chain(self):
        cfg = cfg_of("x = 1 y = 2 print y")
        node = cfg.entry
        visited = []
        while node != cfg.exit:
            (node,) = cfg.succ_ids(node)
            visited.append(cfg.node(node).kind)
        assert visited == [
            NodeKind.ASSIGN,
            NodeKind.ASSIGN,
            NodeKind.PRINT,
            NodeKind.EXIT,
        ]

    def test_branch_has_labeled_edges(self):
        cfg = cfg_of("if x == 0 then skip else print x end")
        branch = next(n for n in cfg.nodes.values() if n.kind == NodeKind.BRANCH)
        labels = {label for _dst, label in cfg.successors(branch.node_id)}
        assert labels == {True, False}

    def test_if_without_else_false_edge_exists(self):
        cfg = cfg_of("if x == 0 then skip end print x")
        branch = next(n for n in cfg.nodes.values() if n.kind == NodeKind.BRANCH)
        false_edges = [lbl for _d, lbl in cfg.successors(branch.node_id) if lbl is False]
        assert len(false_edges) == 1

    def test_while_back_edge(self):
        cfg = cfg_of("while x > 0 do x = x - 1 end")
        branch = next(n for n in cfg.nodes.values() if n.kind == NodeKind.BRANCH)
        body = next(d for d, lbl in cfg.successors(branch.node_id) if lbl is True)
        assert branch.node_id in cfg.succ_ids(body)

    def test_for_desugars_to_init_and_while(self):
        cfg = cfg_of("for i = 1 to 3 do skip end")
        assigns = [n for n in cfg.nodes.values() if n.kind == NodeKind.ASSIGN]
        # init (i = 1) and increment (i = i + 1)
        assert len(assigns) == 2
        branches = [n for n in cfg.nodes.values() if n.kind == NodeKind.BRANCH]
        assert len(branches) == 1
        assert "<=" in str(branches[0].cond)

    def test_comm_nodes(self):
        cfg = cfg_of("send x -> 1 receive y <- 0")
        assert len(cfg.comm_nodes()) == 2
        assert all(node.is_comm() for node in cfg.comm_nodes())


class TestOrderingAndLabels:
    def test_reverse_postorder_starts_at_entry(self):
        cfg = cfg_of("if x == 0 then skip else skip end")
        order = cfg.reverse_postorder()
        assert order[0] == cfg.entry

    def test_rpo_covers_reachable_nodes(self):
        cfg = cfg_of("while x > 0 do x = x - 1 end print x")
        assert set(cfg.reverse_postorder()) == set(cfg.nodes)

    def test_letter_labels_assigned(self):
        cfg = cfg_of("x = 1 y = 2")
        labels = {n.label for n in cfg.nodes.values()}
        assert "A" in labels
        assert all(n.label for n in cfg.nodes.values())

    def test_predecessors(self):
        cfg = cfg_of("x = 1 y = 2")
        second = [n for n in cfg.nodes.values() if n.kind == NodeKind.ASSIGN][1]
        preds = cfg.predecessors(second.node_id)
        assert len(preds) == 1


class TestDotOutput:
    def test_dot_contains_all_nodes(self):
        cfg = cfg_of("if x == 0 then send x -> 1 end")
        dot = cfg.to_dot()
        assert dot.startswith("digraph")
        for node in cfg.nodes.values():
            assert f"n{node.node_id}" in dot


class TestCorpusCFGs:
    @pytest.mark.parametrize("name", programs.names())
    def test_every_corpus_program_builds(self, name):
        cfg = build_cfg(programs.get(name).parse())
        assert cfg.entry in cfg.nodes
        assert cfg.exit in cfg.nodes
        # every non-exit node has at least one successor
        for node_id, node in cfg.nodes.items():
            if node.kind != NodeKind.EXIT:
                assert cfg.succ_ids(node_id), f"dangling node {node}"

    @pytest.mark.parametrize("name", programs.names())
    def test_branches_have_both_edges(self, name):
        cfg = build_cfg(programs.get(name).parse())
        for node in cfg.nodes.values():
            if node.kind == NodeKind.BRANCH:
                labels = sorted(
                    lbl for _d, lbl in cfg.successors(node.node_id) if lbl is not None
                )
                assert labels == [False, True]


class TestLocalIfs:
    """``local_if``: arms that neither communicate nor assert, and assign
    nothing a later statement reads."""

    @staticmethod
    def flags(source: str):
        cfg = cfg_of(source)
        return [
            node.local_if
            for node in sorted(cfg.nodes.values(), key=lambda n: n.node_id)
            if node.kind == NodeKind.BRANCH
        ]

    def test_dead_assignments_make_a_local_if(self):
        assert self.flags("if id == 0 then w = 1 else w = 2 end print x") == [True]

    def test_a_later_read_keeps_the_if_observable(self):
        assert self.flags("if id == 0 then w = 1 else w = 2 end print w") == [False]
        assert self.flags("if id == 0 then w = 1 end send 1 -> w") == [False]

    def test_overwrite_before_read_is_dead(self):
        assert self.flags("if id == 0 then w = 1 end w = 3 print w") == [True]

    def test_communication_or_assert_in_an_arm(self):
        assert self.flags("if id == 0 then send 1 -> 1 end") == [False]
        assert self.flags("if id == 0 then skip else receive y <- 0 end") == [False]
        assert self.flags("if id == 0 then assert (np == 4) end") == [False]

    def test_read_in_the_next_loop_iteration(self):
        source = "c = 0 while c < 3 do if id == 0 then t = c end c = c + t end"
        assert self.flags(source) == [False, False]

    def test_loops_are_never_local(self):
        assert self.flags("c = 0 while c < id do c = c + 1 end") == [False]

    def test_nested_ifs_are_judged_each(self):
        source = "if id == 0 then if id == 1 then a = 1 end b = a end print b"
        assert self.flags(source) == [False, False]
        # the inner arm's ``a`` is read inside the outer arm; the outer
        # arms' assignments are all dead
        source = "if id == 0 then if id == 1 then a = 1 end b = a end"
        assert self.flags(source) == [True, False]
        source = "if id == 0 then if id == 1 then a = 1 end end"
        assert self.flags(source) == [True, True]


class TestLiveness:
    """``CFG.live_in``: solved once, on first use, and shared."""

    def test_a_read_keeps_a_variable_live_until_it(self):
        cfg = cfg_of("x = 1 y = 2 print x")
        first, second, show = sorted(
            n.node_id for n in cfg.nodes.values() if n.kind != NodeKind.ENTRY
            and n.kind != NodeKind.EXIT
        )
        assert "x" not in cfg.live_in(first)
        assert "x" in cfg.live_in(second) and "y" not in cfg.live_in(second)
        assert "x" in cfg.live_in(show)
        assert "x" not in cfg.live_in(cfg.exit)

    def test_id_is_always_live(self):
        cfg = cfg_of("x = 1 print x")
        assert all("id" in cfg.live_in(node_id) for node_id in cfg.nodes)
        assert "id" not in cfg.live_out()[cfg.entry]

    def test_loops_carry_liveness_round_the_back_edge(self):
        cfg = cfg_of("c = 0 t = 0 while c < 3 do t = t + c c = c + 1 end")
        head = next(n for n in cfg.nodes.values() if n.kind == NodeKind.BRANCH)
        assert {"c", "t"} <= cfg.live_in(head.node_id)

    def test_solved_on_first_use_only(self):
        cfg = cfg_of("if id == 0 then w = 1 end print x")
        assert cfg._liveness is None  # building the CFG does not solve it
        cfg.live_in(cfg.entry)
        solved = cfg._liveness
        assert [n.local_if for n in cfg.nodes.values()].count(True) == 1
        assert cfg._liveness is solved
