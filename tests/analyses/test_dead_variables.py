"""The engine stores no constraint on a variable that nothing can read.

``SimpleSymbolicClient.drop_dead`` (inherited by the Cartesian client)
projects each dead ``ps<uid>::v`` out of every successor before the
engine stores it.  Over the paper programs, no state in the final table
may therefore constrain a variable the rule would drop.  A stored state
can still *name* such a variable without a single constraint on it, which
carries no information: a join keeps a row for a name that only one side
holds, and hash-consing ignores unconstrained rows, so a state can stand
in for an equal one at another pCFG node.
"""

import pytest

from repro.analyses.cartesian import analyze_cartesian
from repro.cgraph.constraint_graph import ZERO
from repro.core.driver import analyze_with_fallback
from repro.lang import programs


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
