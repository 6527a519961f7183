"""Dropping variables from a closed graph is an exact projection.

``ConstraintGraph.without`` is how the client's ``drop_dead`` forgets the
variables no process set can read any more.  On a closed graph every
constraint a path through a dropped variable implies among the kept ones
is already an edge, so nothing observable about the kept variables may
change: no difference bound (against ``ZERO`` too) and no equality class.
A widened graph may lack implied edges, so the hook must leave it alone.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.analyses.simple_symbolic import (
    PSetEntry,
    SimpleSymbolicClient,
    SymbolicState,
    _store,
)
from repro.cgraph.constraint_graph import _WIDENED, ZERO, ConstraintGraph
from repro.expr.linear import LinearExpr
from repro.lang import build_cfg, parse
from repro.procset.interval import ProcSet
from tests.cgraph.test_closed_form_updates import _closed_graph, _edges, _widened
from tests.cgraph.test_equivalence_classes import VARS, _op

closed_graphs = st.builds(_closed_graph, _edges(8), st.lists(_op, max_size=8))
widened_graphs = st.builds(
    _widened,
    st.permutations(VARS + [ZERO]).map(lambda nodes: nodes[:3]),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
    _edges(4),
)


def _visible(graph: ConstraintGraph, kept) -> tuple:
    """Everything a query can tell about the variables in ``kept``."""
    nodes = sorted(kept) + [ZERO]
    bounds = {(x, y): graph.diff_bound(x, y) for x in nodes for y in nodes}
    classes = {}
    for name in nodes:
        expr = LinearExpr.const(0) if name == ZERO else LinearExpr.var(name)
        classes[name] = {
            e for e in graph.equivalents(expr) if set(e.variables()) <= set(kept)
        }
    return bounds, classes


@settings(max_examples=200, deadline=None)
@given(graph=closed_graphs, dropped=st.sets(st.sampled_from(VARS)))
def test_projecting_a_closed_graph_changes_nothing_kept(graph, dropped):
    assume(graph._closed is True and not graph.infeasible)
    before = graph._edge_items()
    kept = set(VARS) - dropped
    projected = graph.without(dropped)
    assert graph._edge_items() == before  # the input is left as it was
    assert not projected.variables() & dropped
    assert _visible(projected, kept) == _visible(graph, kept)


def _state(graph: ConstraintGraph) -> SymbolicState:
    """``graph`` over the variables of namespace 1, whose one set ``[0..0]``
    waits at the CFG exit, where nothing but ``id`` is live."""
    graph.rename({name: f"ps1::{name}" for name in VARS})
    pset = _store(graph, 1, ProcSet.point(0))
    return SymbolicState(graph, (PSetEntry(1, pset),))


def _exit_of_an_empty_program():
    cfg = build_cfg(parse("skip"))
    return cfg, [cfg.exit]


@settings(max_examples=100, deadline=None)
@given(graph=widened_graphs)
def test_the_hook_leaves_a_widened_graph_untouched(graph):
    assume(graph._closed is _WIDENED)
    state = _state(graph)
    before = state.cg._edge_items()
    cfg, locs = _exit_of_an_empty_program()
    assert SimpleSymbolicClient().drop_dead(state, locs, cfg) is state
    assert state.cg._closed is _WIDENED
    assert state.cg._edge_items() == before


@settings(max_examples=100, deadline=None)
@given(graph=closed_graphs)
def test_the_hook_drops_every_dead_variable_of_a_closed_graph(graph):
    assume(graph._closed is True and not graph.infeasible and graph.variables())
    state = _state(graph)
    before = state.cg._edge_items()
    cfg, locs = _exit_of_an_empty_program()
    dropped = SimpleSymbolicClient().drop_dead(state, locs, cfg)
    assert dropped is not state
    assert dropped.cg.variables() == {"ps1::.lb0", "ps1::.ub0"}
    assert state.cg._edge_items() == before
