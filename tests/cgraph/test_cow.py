"""Copy-on-write constraint graphs: aliasing safety and lattice equivalence.

The PR-2 representation overhaul makes :meth:`ConstraintGraph.copy` share
the bound matrix (and the equality-pair index) until first mutation, and
answers ``equivalent_to`` by fingerprint comparison.  These tests
pin the two properties that make that safe:

* **isolation** — a mutation of either COW side is never visible through
  the other, under every mutator;
* **equivalence** — the cached/COW lattice is observably identical to the
  pre-overhaul eager implementation (``naive_copy=True``), checked on
  randomized operation sequences (hypothesis) against the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cgraph.constraint_graph import ConstraintGraph
from repro.expr.linear import LinearExpr

VARS = ["x", "y", "z", "w"]


def _diff_snapshot(g: ConstraintGraph):
    """All observable query results of a graph (forces closure)."""
    if g.infeasible:
        return "infeasible"
    return {
        "diffs": {
            (a, b): g.diff_bound(a, b) for a in VARS for b in VARS
        },
        "consts": {a: g.const_value(a) for a in VARS},
        "equivs": {
            a: frozenset(g.equivalents(LinearExpr.var(a)))
            for a in VARS
        },
    }


class TestCowIsolation:
    def test_copy_shares_until_mutation(self):
        with obs.recording() as recorder:
            g = ConstraintGraph()
            g.add_diff("x", "y", 3)
            child = g.copy()
            assert recorder.counters.get("cgraph.cow.shares", 0) == 1
            assert recorder.counters.get("cgraph.cow.materializations", 0) == 0
            child.add_diff("x", "y", 1)  # tighten forces a private matrix
        assert recorder.counters.get("cgraph.cow.materializations", 0) >= 1

    def test_child_mutation_never_aliases_parent(self):
        g = ConstraintGraph()
        g.add_diff("x", "y", 3)
        g.close()
        before = _diff_snapshot(g)
        child = g.copy()
        child.add_diff("x", "y", 1)
        child.havoc("z")
        child.assign("x", LinearExpr.var("x") + 1)
        child.remove_var("y")
        assert _diff_snapshot(g) == before

    def test_parent_mutation_never_aliases_child(self):
        g = ConstraintGraph()
        g.add_diff("x", "y", 3)
        child = g.copy()
        child.close()
        before = _diff_snapshot(child)
        g.add_diff("y", "x", -3)
        g.havoc("x")
        assert _diff_snapshot(child) == before

    def test_every_mutator_isolates(self):
        mutators = [
            lambda h: h.add_diff("x", "y", 0),
            lambda h: h.add_upper("x", 1),
            lambda h: h.add_lower("y", 0),
            lambda h: h.havoc("x"),
            lambda h: h.remove_var("x"),
            lambda h: h.remove_vars(["x", "y"]),
            lambda h: h.assign("x", LinearExpr.var("x") + 2),
            lambda h: h.assign("x", LinearExpr.const(7)),
            lambda h: h.set_const("z", 5),
            lambda h: h.assume_leq(LinearExpr.var("x"), LinearExpr.var("y")),
            lambda h: h.rename({"x": "q"}),
        ]
        for mutate in mutators:
            g = ConstraintGraph()
            g.add_diff("x", "y", 3)
            g.add_lower("x", 0)
            g.close()
            before = _diff_snapshot(g)
            child = g.copy()
            mutate(child)
            assert _diff_snapshot(g) == before, mutate


class TestFingerprintEquivalence:
    def test_equivalent_to_same_constraints(self):
        g, h = ConstraintGraph(), ConstraintGraph()
        for graph in (g, h):
            graph.add_diff("x", "y", 1)
            graph.add_lower("x", 0)
        assert g.equivalent_to(h)
        h.add_diff("x", "y", 0)
        assert not g.equivalent_to(h)

    def test_equivalent_to_ignores_unconstrained_vars(self):
        g, h = ConstraintGraph(), ConstraintGraph()
        g.add_diff("x", "y", 1)
        h.add_diff("x", "y", 1)
        h.add_var("unused")
        assert g.equivalent_to(h)

    def test_equivalent_to_does_not_reclose_closed_graphs(self):
        """The satellite bugfix: a fingerprint comparison, not two closures
        — even in naive mode, where every query used to pay two O(n^3)
        closures."""
        with obs.recording() as recorder:
            g = ConstraintGraph(naive_closure=True)
            h = ConstraintGraph(naive_closure=True)
            g.add_diff("x", "y", 1)
            h.add_diff("x", "y", 1)
            g.close()
            h.close()
            calls = recorder.counters["cgraph.closure.full.calls"]
            assert g.equivalent_to(h)
        assert recorder.counters["cgraph.closure.full.calls"] == calls

    def test_fingerprint_tracks_mutation(self):
        g = ConstraintGraph()
        g.add_diff("x", "y", 3)
        fp = g.fingerprint()
        assert g.fingerprint() is fp or g.fingerprint() == fp
        g.add_diff("x", "y", 1)
        assert g.fingerprint() != fp


_op = st.one_of(
    st.tuples(
        st.just("add_diff"),
        st.sampled_from(VARS),
        st.sampled_from(VARS),
        st.integers(-3, 3),
    ),
    st.tuples(st.just("add_upper"), st.sampled_from(VARS), st.integers(-3, 3)),
    st.tuples(st.just("add_lower"), st.sampled_from(VARS), st.integers(-3, 3)),
    st.tuples(st.just("havoc"), st.sampled_from(VARS)),
    st.tuples(st.just("remove_var"), st.sampled_from(VARS)),
    st.tuples(st.just("assign_inc"), st.sampled_from(VARS), st.integers(-2, 2)),
    st.tuples(st.just("set_const"), st.sampled_from(VARS), st.integers(-3, 3)),
    st.tuples(st.just("copy"),),
    st.tuples(st.just("close"),),
)


def _apply(g: ConstraintGraph, op) -> ConstraintGraph:
    name = op[0]
    if name == "add_diff":
        g.add_diff(op[1], op[2], op[3])
    elif name == "add_upper":
        g.add_upper(op[1], op[2])
    elif name == "add_lower":
        g.add_lower(op[1], op[2])
    elif name == "havoc":
        g.havoc(op[1])
    elif name == "remove_var":
        g.remove_var(op[1])
    elif name == "assign_inc":
        g.assign(op[1], LinearExpr.var(op[1]) + op[2])
    elif name == "set_const":
        g.set_const(op[1], op[2])
    elif name == "copy":
        g = g.copy()  # continue on the clone: exercises COW share + later
        # materialization, while the abandoned parent keeps a reference to
        # the shared matrix
    elif name == "close":
        g.close()
    return g


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_op, max_size=20))
def test_cow_matches_naive_oracle(ops):
    """Any operation sequence gives identical observable results on the
    COW/cached graph and the eager ``naive_copy`` oracle."""
    cow = ConstraintGraph()
    naive = ConstraintGraph(naive_copy=True)
    for op in ops:
        cow = _apply(cow, op)
        naive = _apply(naive, op)
    assert _diff_snapshot(cow) == _diff_snapshot(naive)


@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(_op, max_size=12),
    right=st.lists(_op, max_size=12),
)
def test_join_widen_match_naive_oracle(left, right):
    """join/widen of COW graphs agree with the eager oracle pairwise."""

    def build(ops, naive_copy):
        g = ConstraintGraph(naive_copy=naive_copy)
        for op in ops:
            g = _apply(g, op)
        return g

    a_cow, b_cow = build(left, False), build(right, False)
    a_naive, b_naive = build(left, True), build(right, True)
    assert _diff_snapshot(a_cow.join(b_cow)) == _diff_snapshot(
        a_naive.join(b_naive)
    )
    assert _diff_snapshot(a_cow.widen(b_cow)) == _diff_snapshot(
        a_naive.widen(b_naive)
    )
    assert _diff_snapshot(a_cow.meet(b_cow)) == _diff_snapshot(
        a_naive.meet(b_naive)
    )
