"""Work ratchet: what one pass over the 18 paper programs costs, in counts.

A timing gate on a 2-CPU host cannot see a 5% loss in ``paper_cold``
throughput through the run-to-run noise; the work counters of one pass are
exact and see it.  ``engine.steps`` and ``cgraph.closure.full.calls`` are
pinned: a behaviour-preserving change leaves them as they are (the engine
lock pins the steps per program as well).  ``cgraph.cow.materializations``
counts the private matrix copies made before in-place updates, the cost
the namespace fold removed from every set merge (455 per pass before it,
281 after it, 263 since set bounds shed their forms over dead variables,
251 since forgetting an unconstrained variable leaves a shared matrix
shared); it may only fall.  So may the number of program variables in the
constraint graphs of the chosen rungs' final node tables (1,054 while set
bounds pinned the variables of their forms, 775 since): fewer variables
per state is what makes each closure, fold and join cheaper.  Set bounds
are graph variables of their own (``ps<uid>::.lb<k>``, ``.ub<k>``); they
are counted apart, against their own bound, which may only fall too.  A
change that cuts work lowers the bound in the same commit.
"""

from __future__ import annotations

from repro import obs
from repro.core.driver import analyze_with_fallback
from repro.lang import programs

ENGINE_STEPS = 264
FULL_CLOSURES = 18
MAX_MATERIALIZATIONS = 251
MAX_STORED_VARIABLES = 775
MAX_STORED_BOUND_VARIABLES = 738


def test_one_pass_over_the_paper_programs_does_no_more_work():
    stored_variables = stored_bound_variables = 0
    with obs.recording() as recorder:
        for spec in programs.all_specs():
            report = analyze_with_fallback(spec.parse())
            for state in report.result.node_states.values():
                names = state.cg.variables()
                bounds = {name for name in names if "::." in name}
                stored_bound_variables += len(bounds)
                stored_variables += len(names - bounds)
    counters = recorder.counters
    assert counters["engine.steps"] == ENGINE_STEPS
    assert counters["cgraph.closure.full.calls"] == FULL_CLOSURES
    assert counters["cgraph.cow.materializations"] <= MAX_MATERIALIZATIONS
    assert stored_variables <= MAX_STORED_VARIABLES
    assert stored_bound_variables <= MAX_STORED_BOUND_VARIABLES
