"""Each closed-form update equals the add-then-close path it replaces.

A closed constraint graph stays closed through the client's own updates:
``assume_leq`` goes through the sparse ``close_incremental``, a namespace
copy onto fresh names and the binding ``x := y + c`` write the closed
matrix directly, and ``equivalents`` reads one variable's equality class.
Every test here compares the edge set of the fast path with the path it
replaces (kept below as the reference), on random graphs: random
constraints followed by an operation sequence of
``test_equivalence_classes``.  Those graphs include widening results that
are not closed; on them the fast paths must fall back, and the fixed case
at the end shows that they do.
"""

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cgraph.constraint_graph import _WIDENED, ZERO, ConstraintGraph
from repro.expr.linear import LinearExpr
from tests.cgraph.test_equivalence_classes import VARS, _apply, _op

NODES = VARS + [ZERO]


def _closed_graph(edges, ops) -> ConstraintGraph:
    g = ConstraintGraph()
    for x, y, c in edges:
        g.add_diff(x, y, c)
    for op in ops:
        g = _apply(g, op)
    g.fingerprint()  # closes a graph with pending edges; keeps a widen flag
    return g


def _widened(triangle, weights, edges) -> ConstraintGraph:
    """``g`` widened by its join with a graph lacking ``g``'s shortcut
    ``a -> c`` across the path ``a -> b -> c``, as at a loop head.  Unless
    the other constraints imply the shortcut, the result is not closed."""
    (a, b, c), (p, q, cut) = triangle, weights
    g, h = ConstraintGraph(), ConstraintGraph()
    for x, y, w in edges + [(a, b, p), (b, c, q)]:
        g.add_diff(x, y, w)
        h.add_diff(x, y, w)
    g.add_diff(a, c, p + q - 1 - cut)
    return g.widen(g.join(h))


def _edges(max_size):
    return st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES), st.integers(-1, 4)),
        max_size=max_size,
    )


graphs = st.one_of(
    st.builds(_closed_graph, _edges(8), st.lists(_op, max_size=8)),
    st.builds(
        _widened,
        st.permutations(NODES).map(lambda nodes: nodes[:3]),
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
        _edges(4),
    ),
)


def _same(fast: ConstraintGraph, ref: ConstraintGraph) -> None:
    assert fast.infeasible == ref.infeasible
    if not ref.infeasible:
        assert fast._edge_items() == ref._edge_items(), (fast, ref)


def _side(name, offset):
    return LinearExpr.const(offset) if name == ZERO else LinearExpr.var(name) + offset


# -- assume_leq ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(g=graphs, x=st.sampled_from(NODES), y=st.sampled_from(VARS), c=st.integers(-3, 3))
def test_assume_leq_equals_add_diff_then_close(g, x, y, c):
    if x == y:
        return
    fast, ref = g.copy(), g.copy()
    # y <= x + c, asserted as an inequality and as a raw edge
    assert fast.assume_leq(_side(y, 0), _side(x, c))
    ref.add_diff(x, y, c)
    ref.close()
    _same(fast, ref)
    if not fast.infeasible and not g.infeasible:
        assert fast._closed is True


# -- namespace copies -----------------------------------------------------------


def reference_copy(g: ConstraintGraph, sources, mapping) -> None:
    """Mirror every edge touching a source, then close from scratch."""
    for new_name in mapping.values():
        g.add_var(new_name)
    additions = [
        (
            mapping[src] if src in sources else src,
            mapping[dst] if dst in sources else dst,
            c,
        )
        for src, dsts in g._bound.items()
        for dst, c in dsts.items()
        if src in sources or dst in sources
    ]
    for src, dst, c in additions:
        g.add_diff(src, dst, c)
    g.close()


@settings(max_examples=150, deadline=None)
@given(g=graphs, sources=st.sets(st.sampled_from(VARS), min_size=1, max_size=3))
def test_namespace_copy_equals_copy_then_close(g, sources):
    mapping = {name: f"{name}'" for name in sources}
    fast, ref = g.copy(), g.copy()
    fast.copy_namespace_from(sources, mapping)
    reference_copy(ref, sources, mapping)
    _same(fast, ref)


# -- assignment -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    g=graphs,
    target=st.sampled_from(VARS),
    base=st.sampled_from(NODES),
    offset=st.integers(-3, 3),
)
def test_bind_equals_two_incremental_closures(g, target, base, offset):
    if base == target or g.infeasible:
        return
    fast, ref = g.copy(), g.copy()
    fast.assign(target, _side(base, offset))
    ref.havoc(target)
    ref.add_var(base)
    ref.close_incremental(base, target, offset)
    ref.close_incremental(target, base, -offset)
    _same(fast, ref)


# -- sparse incremental closure ---------------------------------------------------


def dense_close_incremental(g: ConstraintGraph, x: str, y: str, c: int) -> None:
    """The all-pairs O(n^2) loop the sparse update replaced."""
    g.add_var(x)
    g.add_var(y)
    g._materialize()
    g._invalidate()
    bound = g._bound
    names = [ZERO] + sorted(g.variables())
    existing = bound[x].get(y)
    if existing is not None and existing <= c:
        return
    bound[x][y] = c
    for u in names:
        to_x = 0 if u == x else bound[u].get(x)
        if to_x is None:
            continue
        for v in names:
            from_y = 0 if v == y else bound[y].get(v)
            if from_y is None:
                continue
            total = to_x + c + from_y
            if u == v:
                if total < 0:
                    g._infeasible = True
                continue
            current = bound[u].get(v)
            if current is None or total < current:
                bound[u][v] = total


@settings(max_examples=150, deadline=None)
@given(g=graphs, x=st.sampled_from(NODES), y=st.sampled_from(NODES), c=st.integers(-4, 4))
def test_sparse_incremental_equals_the_dense_loop(g, x, y, c):
    g.close()
    if x == y or g.infeasible:
        return
    fast, ref = g.copy(), g.copy()
    fast.close_incremental(x, y, c)
    dense_close_incremental(ref, x, y, c)
    assert fast._infeasible == ref._infeasible
    if not ref._infeasible:
        assert fast._edge_items() == ref._edge_items()


# -- equality classes ---------------------------------------------------------------


def reference_pairs(g: ConstraintGraph) -> dict:
    """The whole-matrix equality index: ``base -> {(other, forward)}``."""
    bound = g._bound
    return {
        base: {
            (other, forward)
            for other, forward in row.items()
            if bound.get(other, {}).get(base) == -forward
        }
        for base, row in bound.items()
    }


@settings(max_examples=150, deadline=None)
@given(g=graphs)
def test_per_variable_classes_equal_the_whole_matrix_scan(g):
    if g.infeasible:
        return
    pairs = reference_pairs(g)
    sibling = g.copy()
    for base in NODES:
        assert set(g._class_of(base)) == pairs.get(base, set())
        # the COW sibling reads the class g filled in
        assert sibling._class_of(base) is g._class_of(base)


# -- widening -----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(older=graphs, newer=graphs)
def test_widen_flags_closed_only_when_closing_changes_nothing(older, newer):
    w = older.widen(newer)
    if w._closed is True and not w.infeasible:
        closed = w.copy()
        closed.close()
        assert closed._edge_items() == w._edge_items()
    assert ConstraintGraph.from_state(w.to_state())._closed == w._closed


def _widened_chain() -> ConstraintGraph:
    """``{a->b 1, b->c 1, a->c 0}`` widened by its join with
    ``{a->b 1, b->c 1}``: ``{a->b 1, b->c 1}``, whose closure also holds
    ``a->c 2``."""
    older = ConstraintGraph()
    older.add_diff("a", "b", 1)
    older.add_diff("b", "c", 1)
    older.add_diff("a", "c", 0)
    newer = ConstraintGraph()
    newer.add_diff("a", "b", 1)
    newer.add_diff("b", "c", 1)
    widened = older.widen(older.join(newer))
    assert widened._edge_items() == (("a", "b", 1), ("b", "c", 1))
    assert widened._closed is _WIDENED
    return widened


def test_fast_paths_close_a_widened_graph_first():
    widened = _widened_chain()

    fast, ref = widened.copy(), widened.copy()
    fast.copy_namespace_from(["a"], {"a": "a'"})
    reference_copy(ref, {"a"}, {"a": "a'"})
    _same(fast, ref)
    assert fast.diff_bound("a'", "c") == 2

    fast, ref = widened.copy(), widened.copy()
    fast.assume_leq(LinearExpr.var("c"), LinearExpr.const(5))
    ref.add_diff(ZERO, "c", 5)
    ref.close()
    _same(fast, ref)
    assert fast.diff_bound("a", "c") == 2


def test_assign_on_a_widened_graph_keeps_the_flag():
    widened = _widened_chain()
    widened.assign("d", LinearExpr.var("a") + 1)
    assert widened._closed is _WIDENED
    assert widened.join(ConstraintGraph())._closed is _WIDENED


def test_closed_form_updates_run_no_full_closure():
    with obs.recording() as recorder:
        g = ConstraintGraph()
        g.add_diff("x", "y", 1)
        g.add_lower("x", 0)
        g.close()
        calls = recorder.counters["cgraph.closure.full.calls"]
        g.assume_leq(LinearExpr.var("y"), LinearExpr.const(4))
        g.copy_namespace_from(["x", "y"], {"x": "x'", "y": "y'"})
        g.assign("z", LinearExpr.var("x'") + 2)
        assert g.diff_bound(ZERO, "y'") == 4
        assert g.diff_bound("z", ZERO) == -2  # z = x' + 2 >= 2
    assert recorder.counters["cgraph.closure.full.calls"] == calls
    assert recorder.counters["cgraph.closure.incremental.calls"] == 3
