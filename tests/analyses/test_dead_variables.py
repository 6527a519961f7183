"""The engine stores no constraint on a variable that nothing can read.

``SimpleSymbolicClient.drop_dead`` (inherited by the Cartesian client)
projects each dead ``ps<uid>::v`` out of every successor before the
engine stores it.  Over the paper programs, no state in the final table
may therefore constrain a variable the rule would drop.  A stored state
can still *name* such a variable without a single constraint on it, which
carries no information: a join keeps a row for a name that only one side
holds, and hash-consing ignores unconstrained rows, so a state can stand
in for an equal one at another pCFG node.

A set bound is a variable of the graph, so a dead variable it equals is
projected out like any other, and the bound keeps every relation that the
projection keeps (a closed graph holds them all as edges).  The bound
variables and the variables that ``dest`` and ``value`` of an in-flight
send read are never dropped.
"""

import pytest

from repro.analyses.cartesian import analyze_cartesian
from repro.analyses.simple_symbolic import (
    Pending,
    PSetEntry,
    SimpleSymbolicClient,
    SymbolicState,
    _store,
    _stored,
)
from repro.cgraph.constraint_graph import ZERO, ConstraintGraph
from repro.core.driver import analyze_with_fallback
from repro.expr.linear import LinearExpr
from repro.lang import programs
from repro.procset.interval import ProcSet, SymRange


@pytest.mark.parametrize("name", programs.names())
def test_no_stored_state_constrains_a_dead_variable(name):
    result, cfg, client = analyze_cartesian(programs.get(name))
    checked = 0
    for key, state in result.node_states.items():
        cg = state.cg
        if cg._closed is not True or cg.infeasible:
            continue  # a widened graph is never projected
        checked += 1
        kept = client.drop_dead(state, key[0], cfg).cg.variables()
        for dead in cg.variables() - kept:
            others = (cg.variables() | {ZERO}) - {dead}
            constrained = [
                other for other in others
                if cg.diff_bound(dead, other) is not None
                or cg.diff_bound(other, dead) is not None
            ]
            assert not constrained, (key, dead, constrained)
    assert checked


def test_a_dead_loop_carried_variable_no_longer_splits_iterations():
    # ``x`` is dead after ``y = x * 3``.  Kept, its bound ``x <= y + 1``
    # moved with every ``y = y - 1``, so the loop head changed once more
    # and the run took 11 steps
    report = analyze_with_fallback(programs.get("sequential_only").parse())
    assert report.rung_name == "cartesian"
    assert report.result.confidence == "exact"
    assert sorted(report.result.matches) == []
    assert report.result.steps == 7


# -- dead forms leave set bounds ------------------------------------------------

Y = LinearExpr.var("ps1::y")
LB, UB = LinearExpr.var("ps1::.lb0"), LinearExpr.var("ps1::.ub0")
TOP = LinearExpr.var("np") - 1


class _Liveness:
    """CFG stand-in for ``drop_dead``: only ``id`` is live anywhere."""

    def live_in(self, node_id):
        return frozenset({"id"})


def _graph(**consts) -> ConstraintGraph:
    """``np >= 4``, ``0 <= ps1::id <= np - 1`` and ``ps1::<name> == value``."""
    cg = ConstraintGraph()
    cg.add_lower("np", 4)
    cg.add_lower("ps1::id", 0)
    cg.add_diff("np", "ps1::id", -1)
    for name, value in consts.items():
        cg.set_const(f"ps1::{name}", value)
    return cg


def _state(cg, lb, ub=TOP, pendings=()):
    pset = _store(cg, 1, ProcSet([SymRange(lb, ub)]))
    return SymbolicState(cg, (PSetEntry(1, pset),), tuple(pendings), 2)


def _drop(state):
    return SimpleSymbolicClient().drop_dead(state, (0,), _Liveness())


def test_a_dead_form_leaves_its_bound_and_its_variable_is_projected():
    state = _state(_graph(y=5), Y - 3)
    assert state.cg.equivalents(LB) >= {LinearExpr.const(2), Y - 3}
    dropped = _drop(state)
    assert dropped.psets == state.psets
    assert dropped.cg.equivalents(LB) == {LB, LinearExpr.const(2)}
    assert "ps1::y" not in dropped.cg.variables()


def test_a_bound_whose_only_form_is_dead_keeps_its_relations():
    # ``lb == y - 3`` with ``y`` unknown: ``y`` goes, and the bound keeps
    # ``lb <= id`` and ``lb <= ub``, which it holds as graph edges
    cg = _graph(z=1)
    cg.add_upper("ps1::y", 4)
    cg.add_diff("ps1::id", "ps1::y", 3)
    state = _state(cg, Y - 3)
    dropped = _drop(state)
    assert "ps1::y" not in dropped.cg.variables()
    assert "ps1::z" not in dropped.cg.variables()
    assert dropped.cg.entails_leq(LB, LinearExpr.var("ps1::id")) is True
    assert dropped.cg.entails_leq(LB, UB) is True
    assert dropped.cg.entails_leq(LB, LinearExpr.const(1)) is True


def test_a_variable_an_in_flight_dest_mentions_keeps_every_form():
    cg = _graph(y=5, z=1)
    cg.set_const("ps2::y", 5)
    sent = _store(cg, 2, ProcSet([SymRange.point(LinearExpr.const(2))]))
    pending = Pending(7, 2, sent, LinearExpr.var("ps2::y"), None, "int")
    state = _state(cg, Y - 3, pendings=[pending])
    dropped = _drop(state)
    assert dropped.pendings[0] is pending
    assert "ps2::y" in dropped.cg.variables()
    assert LinearExpr.var("ps2::y") - 3 in dropped.cg.equivalents(LB)
    assert "ps1::y" not in dropped.cg.variables()
    assert "ps1::z" not in dropped.cg.variables()


def test_a_widened_graph_returns_the_state_unchanged():
    # ``w <= 3`` is dropped while ``z <= 5`` and ``w <= z`` are kept, and
    # they chain past it: the result is flagged widened, not closed
    older, newer = _graph(y=5), _graph(y=5)
    for cg, w_cap in ((older, 3), (newer, 4)):
        cg.add_upper("ps1::z", 5)
        cg.add_diff("ps1::z", "ps1::w", 0)
        cg.add_upper("ps1::w", w_cap)
    cg = older.widen(newer)
    assert cg._closed is not True
    state = SymbolicState(cg, (PSetEntry(1, _stored(1, 1)),), (), 2)
    assert _drop(state) is state
