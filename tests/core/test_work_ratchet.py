"""Work ratchet: what one pass over the 18 paper programs costs, in counts.

A timing gate on a 2-CPU host cannot see a 5% loss in ``paper_cold``
throughput through the run-to-run noise; the work counters of one pass are
exact and see it.  ``engine.steps`` and ``cgraph.closure.full.calls`` are
pinned: a behaviour-preserving change leaves them as they are (the engine
lock pins the steps per program as well).  ``cgraph.cow.materializations``
counts the private matrix copies made before in-place updates, the cost
the namespace fold removed from every set merge (455 per pass before it,
281 since); it may only fall.  A change that cuts work lowers the bound
in the same commit.
"""

from __future__ import annotations

from repro import obs
from repro.core.driver import analyze_with_fallback
from repro.lang import programs

ENGINE_STEPS = 264
FULL_CLOSURES = 18
MAX_MATERIALIZATIONS = 281


def test_one_pass_over_the_paper_programs_does_no_more_work():
    with obs.recording() as recorder:
        for spec in programs.all_specs():
            analyze_with_fallback(spec.parse())
    counters = recorder.counters
    assert counters["engine.steps"] == ENGINE_STEPS
    assert counters["cgraph.closure.full.calls"] == FULL_CLOSURES
    assert counters["cgraph.cow.materializations"] <= MAX_MATERIALIZATIONS
