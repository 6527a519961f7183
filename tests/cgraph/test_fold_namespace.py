"""Folding one process set's namespace into another's in one pass.

``ConstraintGraph.fold_namespace`` is how ``merge_psets`` gives two merged
sets one namespace.  It must equal the composition it replaces, kept below
as the reference: project the doomed namespace out of one copy, project the
survivor's out of another and rename the doomed variables into the
survivor's namespace, then join the two.  Graphs are random graphs over
two namespaces, a third one and the global ``np``, closed or with pending
edges, built under the optimized lattice and under both ablations (random
edges make some of them infeasible), plus a fixed widened graph and a fixed
infeasible one.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.cgraph.constraint_graph import _WIDENED, ZERO, ConstraintGraph

NODES = [ZERO, "np", "ps1::x", "ps1::y", "ps2::x", "ps2::z", "ps3::x"]
FLAGS = [{}, {"naive_closure": True}, {"naive_copy": True}]


def reference_fold(graph: ConstraintGraph, survivor, doomed) -> ConstraintGraph:
    keep, drop = f"ps{survivor}::", f"ps{doomed}::"
    mine = graph.copy()
    mine.remove_vars([n for n in mine.variables() if n.startswith(drop)])
    theirs = graph.copy()
    theirs.remove_vars([n for n in theirs.variables() if n.startswith(keep)])
    theirs.rename(
        {
            n: keep + n[len(drop):]
            for n in theirs.variables()
            if n.startswith(drop)
        }
    )
    return mine.join(theirs)


def _graph(edges, flags) -> ConstraintGraph:
    g = ConstraintGraph(**flags)
    for name in NODES[1:]:
        g.add_var(name)
    for x, y, c in edges:
        g.add_diff(x, y, c)
    return g


def _assert_same_fold(graph: ConstraintGraph, survivor, doomed) -> None:
    before = graph.copy()
    ref = reference_fold(graph.copy(), survivor, doomed)
    fold = graph.fold_namespace(survivor, doomed)
    assert fold._closed == ref._closed
    assert fold.infeasible == ref.infeasible
    if ref.infeasible:
        # every bottom denotes the empty set; only its edge list, which the
        # reference took from one side of its join, is representational
        assert fold.equivalent_to(ref)
    else:
        assert fold.variables() == ref.variables()
        assert fold.fingerprint() == ref.fingerprint()
    assert graph.equivalent_to(before)  # the input keeps its constraints


edges = st.lists(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), st.integers(-1, 4)),
    max_size=10,
)


@settings(max_examples=300, deadline=None)
@given(
    edges=edges,
    flags=st.sampled_from(FLAGS),
    order=st.sampled_from([(1, 2), (2, 1)]),
    closed=st.booleans(),
)
def test_fold_equals_the_projections_joined(edges, flags, order, closed):
    graph = _graph(edges, flags)
    if closed:
        graph.close()
    _assert_same_fold(graph, *order)


@settings(max_examples=100, deadline=None)
@given(edges=edges, order=st.sampled_from([(1, 2), (2, 1)]))
def test_the_fold_of_a_closed_graph_is_closed(edges, order):
    graph = _graph(edges, {})
    graph.close()
    assume(not graph.infeasible)
    fold = graph.fold_namespace(*order)
    reclosed = fold.copy()
    reclosed.close()
    assert fold._closed is True
    assert reclosed._edge_items() == fold._edge_items()


def _widened() -> ConstraintGraph:
    """A loop-head widening that drops the shortcut ``ps1::x -> np`` across
    the path through ``ps2::x``, so the result is not closed."""
    g, h = ConstraintGraph(), ConstraintGraph()
    for graph in (g, h):
        graph.add_diff("ps1::x", "ps2::x", 1)
        graph.add_diff("ps2::x", "np", 1)
        graph.add_diff(ZERO, "ps1::y", 3)
        graph.add_eq_diff("ps2::z", "ps3::x", 2)
    g.add_diff("ps1::x", "np", 0)
    return g.widen(g.join(h))


def test_a_widened_graph_folds_to_a_widened_graph():
    graph = _widened()
    assert graph._closed is _WIDENED
    for order in [(1, 2), (2, 1)]:
        _assert_same_fold(graph, *order)
        assert graph.fold_namespace(*order)._closed is _WIDENED


def test_an_infeasible_graph_folds_to_an_infeasible_graph():
    for flags in FLAGS:
        graph = _graph([("ps1::x", "ps2::x", 1), ("ps2::x", "ps1::x", -2)], flags)
        assert graph.infeasible
        _assert_same_fold(graph, 1, 2)
        assert graph.fold_namespace(1, 2).infeasible


def test_each_survivor_variable_joins_its_doomed_twin():
    graph = ConstraintGraph()
    graph.set_const("ps1::x", 1)
    graph.set_const("ps2::x", 4)
    graph.set_const("ps2::z", 7)  # only the doomed set has z
    graph.add_eq_diff("ps2::x", "ps3::x", 0)
    fold = graph.fold_namespace(1, 2)
    assert fold.variables() == {"ps1::x", "ps1::z", "ps3::x"}
    assert fold.diff_bound(ZERO, "ps1::x") == 4
    assert fold.diff_bound("ps1::x", ZERO) == -1
    # the survivor's processes never set z, so nothing holds for all of them
    assert fold.diff_bound(ZERO, "ps1::z") is None
    # ps3::x was 4 beside a survivor 1 and a doomed 4: the fold keeps both
    assert fold.diff_bound("ps1::x", "ps3::x") == 3
    assert fold.diff_bound("ps3::x", "ps1::x") == 0
