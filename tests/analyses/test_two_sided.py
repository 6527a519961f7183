"""Two-sided node-level check: an exact answer claims what runs make.

The sweep oracle (``sweep.differential_check``) asks only that every
observed ``(send node, recv node)`` pair be claimed.  An exact answer
promises more: it claims no pair that no run makes.  So for every exact
answer, the claimed pairs must *equal* the union of the pairs observed at
np 4–10, 12 and 16.  The transposes need a grid-shaped np and their
``input()`` values, so they run at their own np (4, 9 and 16 for the square
one, 8, 18 and 32 for the rectangular one) with
``tests.conftest.corpus_inputs``.
"""

from __future__ import annotations

import pytest

from repro.core.driver import analyze_with_fallback
from repro.corpus.generator import generate, seed_stream
from repro.corpus.sweep import (
    DEFAULT_MANIFEST,
    ORACLE_MAX_STEPS,
    resolve_default,
    smoke_programs,
)
from repro.lang import programs
from repro.runtime.interpreter import observe_program
from tests.conftest import corpus_inputs

NP_VALUES = (4, 5, 6, 7, 8, 9, 10, 12, 16)
OWN_NP = {"transpose_square": (4, 9, 16), "transpose_rect": (8, 18, 32)}


def observed_pairs(name: str, program) -> set:
    """The node pairs the runs at the check's process counts make."""
    pairs: set = set()
    for num_procs in OWN_NP.get(name, NP_VALUES):
        observation = observe_program(
            program,
            num_procs,
            inputs=corpus_inputs(name, num_procs),
            max_steps=ORACLE_MAX_STEPS,
        )
        pairs |= set(observation.trace.topology().node_edges)
    return pairs


def check_exact_answers(named_programs):
    """``(exact answers checked, [(name, over-claimed, missed)])``."""
    checked, failures = 0, []
    for name, program in named_programs:
        result = analyze_with_fallback(program).result
        if result.confidence != "exact":
            continue
        checked += 1
        claimed, seen = set(result.matches), observed_pairs(name, program)
        if claimed != seen:
            failures.append((name, sorted(claimed - seen), sorted(seen - claimed)))
    return checked, failures


def test_paper_and_service_exact_answers_claim_exactly_what_runs_make():
    named = [(name, programs.get(name).parse()) for name in programs.names()]
    named += [
        (item.corpus_id, item.parse())
        for item in map(generate, seed_stream(4242, 100))
    ]
    checked, failures = check_exact_answers(named)
    assert failures == []
    assert checked >= 16 + 76


@pytest.mark.ladder_slow
def test_smoke_exact_answers_claim_exactly_what_runs_make():
    named = [
        (item.corpus_id, item.parse())
        for item in smoke_programs(resolve_default(DEFAULT_MANIFEST))
    ]
    checked, failures = check_exact_answers(named)
    assert failures == []
    assert checked >= 42
