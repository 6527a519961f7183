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

``bind`` gives the merged set's bound variables their values in the same
pass.  Its reference is the composition it replaces: in a copy of the
graph, each bound waits in a temporary outside every namespace while the
namespaces fold (without ``bind``), then takes its name.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.cgraph.constraint_graph import _WIDENED, ZERO, ConstraintGraph
from repro.expr.linear import LinearExpr

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


def _graph(edges, flags, nodes=NODES) -> ConstraintGraph:
    g = ConstraintGraph(**flags)
    for name in nodes[1:]:
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


# the old sets' bound variables: the merged set's bounds read them, and the
# survivor's are the names the merged bounds take
BIND_NODES = NODES + ["ps1::.lb0", "ps1::.ub0", "ps2::.lb0", "ps2::.ub0"]
BIND_TARGETS = ["lb0", "ub0", "lb1"]


def reference_bind_fold(graph: ConstraintGraph, survivor, doomed, bind) -> ConstraintGraph:
    keep, drop = f"ps{survivor}::", f"ps{doomed}::"
    g = graph.copy()
    temps = {}
    for index, (name, form) in enumerate(sorted(bind.items())):
        temps[f".t{index}"] = name
        g.assign(f".t{index}", form)
    # a bound's name and its doomed twin are replaced, not folded
    g.remove_vars(set(bind) | {drop + name[len(keep):] for name in bind})
    fold = g.fold_namespace(survivor, doomed)
    fold.rename(temps)
    return fold


def _assert_same_bind_fold(graph: ConstraintGraph, survivor, doomed, bind) -> None:
    before = graph.copy()
    ref = reference_bind_fold(graph.copy(), survivor, doomed, bind)
    fold = graph.fold_namespace(survivor, doomed, bind)
    assert fold._closed == ref._closed
    assert fold.infeasible == ref.infeasible
    if graph._closed is _WIDENED:
        # the reference's assignments close the widened matrix through each
        # form's variable, so only the meanings compare: close both
        fold, ref = fold.copy(), ref.copy()
        fold.close()
        ref.close()
    assert fold.equivalent_to(ref)
    assert graph.equivalent_to(before)  # the input keeps its constraints


forms = st.one_of(
    st.integers(-2, 3).map(LinearExpr.const),
    st.tuples(st.sampled_from(BIND_NODES[1:]), st.integers(-2, 2)).map(
        lambda pair: LinearExpr.var(pair[0]) + pair[1]
    ),
)
bind_edges = st.lists(
    st.tuples(st.sampled_from(BIND_NODES), st.sampled_from(BIND_NODES), st.integers(-1, 4)),
    max_size=10,
)
targets = st.lists(st.sampled_from(BIND_TARGETS), min_size=1, max_size=3, unique=True)


def _bind(survivor, names, drawn) -> dict:
    return {f"ps{survivor}::.{name}": form for name, form in zip(names, drawn)}


@settings(max_examples=300, deadline=None)
@given(
    edges=bind_edges,
    flags=st.sampled_from(FLAGS),
    order=st.sampled_from([(1, 2), (2, 1)]),
    closed=st.booleans(),
    names=targets,
    drawn=st.lists(forms, min_size=3, max_size=3),
)
def test_bind_equals_the_bounds_folded_through_temporaries(
    edges, flags, order, closed, names, drawn
):
    graph = _graph(edges, flags, BIND_NODES)
    if closed:
        graph.close()
    _assert_same_bind_fold(graph, *order, _bind(order[0], names, drawn))


@settings(max_examples=100, deadline=None)
@given(
    edges=bind_edges,
    order=st.sampled_from([(1, 2), (2, 1)]),
    names=targets,
    drawn=st.lists(forms, min_size=3, max_size=3),
)
def test_the_bind_fold_of_a_closed_graph_is_closed(edges, order, names, drawn):
    graph = _graph(edges, {}, BIND_NODES)
    graph.close()
    assume(not graph.infeasible)
    fold = graph.fold_namespace(*order, _bind(order[0], names, drawn))
    reclosed = fold.copy()
    reclosed.close()
    assert fold._closed is True
    assert reclosed._edge_items() == fold._edge_items()


def test_bind_on_a_widened_graph_and_on_an_infeasible_one():
    bind = {"ps1::.lb0": LinearExpr.var("ps2::x") + 1, "ps1::.ub0": LinearExpr.const(3)}
    widened = _widened()
    for order in [(1, 2), (2, 1)]:
        named = {f"ps{order[0]}::.{name[6:]}": form for name, form in bind.items()}
        _assert_same_bind_fold(widened, *order, named)
        assert widened.fold_namespace(*order, named)._closed is _WIDENED
    for flags in FLAGS:
        graph = _graph([("ps1::x", "ps2::x", 1), ("ps2::x", "ps1::x", -2)], flags)
        assert graph.infeasible
        _assert_same_bind_fold(graph, 1, 2, bind)
        assert graph.fold_namespace(1, 2, bind).infeasible


def test_a_merged_bound_keeps_its_value_on_both_sides_of_the_fold():
    graph = ConstraintGraph()
    graph.set_const("ps1::.ub0", 2)  # the survivor's old bound
    graph.add_eq_diff("np", "ps2::.ub0", -1)  # the doomed set ends at np - 1
    fold = graph.fold_namespace(1, 2, {"ps1::.ub0": LinearExpr.var("ps2::.ub0")})
    assert fold.entails_eq(LinearExpr.var("ps1::.ub0"), LinearExpr.var("np") - 1) is True
    assert "ps2::.ub0" not in fold.variables()
    # a form the graph cannot bind leaves the bound unconstrained
    fold = graph.fold_namespace(1, 2, {"ps1::.ub0": LinearExpr.var("np") * 2})
    assert fold.diff_bound("ps1::.ub0", ZERO) is None
    assert fold.diff_bound(ZERO, "ps1::.ub0") is None
