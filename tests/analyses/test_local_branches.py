"""Rank-dependent ``if``s that nothing can observe cost no exactness.

Relation 1 of the metamorphic precision oracle (Section VI: a process set
splits only where its members' communication differs): inserting a
rank-dependent ``if`` whose arms neither communicate nor leave a value
anyone reads must keep an exact answer exact, with the same matches.
Matches are compared by statement text, since node ids shift.  The
pinned cases mark the rule's edges: a branch whose arms feed a later
message or branch, and a rank-dependent ``while``, still give up.
"""

from __future__ import annotations

import json

import pytest

from repro.core.diagnostics import GIVEUP_NO_MATCH
from repro.core.driver import analyze_with_fallback
from repro.corpus.sweep import differential_check
from repro.lang import build_cfg, parse, programs
from tests.core.test_engine_lock import LOCK_PATH

PARITY = "if ((id % 2) == 0) then zz = 1 else zz = 2 end"

#: relation 1's inputs: the paper programs the behaviour lock pins as
#: exact under the default limits
_PAPER_LOCK = json.loads(LOCK_PATH.read_text())["paper"]
EXACT_PROGRAMS = [
    name
    for name in programs.names()
    if _PAPER_LOCK[f"{name} @ default"]["confidence"] == "exact"
]

SHIFT = """
x = np - id
if (id < np - 1) then send x -> id + 1 end
if (id >= 1) then receive y <- id - 1 end
"""


def answer(source: str):
    """(rung, confidence, matches as statement-text pairs) of the ladder."""
    program = parse(source)
    cfg = build_cfg(program)
    report = analyze_with_fallback(program)
    matches = sorted(
        (str(cfg.node(send).stmt), str(cfg.node(recv).stmt))
        for send, recv in report.result.matches
    )
    return report.rung_name, report.result.confidence, matches


@pytest.mark.parametrize("placement", ["append", "prepend"])
@pytest.mark.parametrize("name", EXACT_PROGRAMS)
def test_parity_if_keeps_exact_answer(name, placement):
    source = programs.get(name).source
    _, confidence, matches = answer(source)
    assert confidence == "exact"
    if placement == "append":
        variant = source.rstrip() + "\n" + PARITY + "\n"
    else:
        variant = PARITY + "\n" + source
    _, variant_confidence, variant_matches = answer(variant)
    assert variant_confidence == "exact"
    assert variant_matches == matches


def test_parity_if_before_shift_is_exact_at_first_rung():
    rung, confidence, matches = answer(PARITY + SHIFT)
    assert (rung, confidence) == ("cartesian", "exact")
    assert matches == [("send x -> (id + 1)", "receive y <- (id - 1)")]


def _claims_cover_executions(source: str, np_values=(4, 6)):
    program = parse(source)
    report = analyze_with_fallback(program)
    _, statuses, divergences = differential_check(
        program, set(report.result.matches), np_values
    )
    assert statuses == ["ok"] * len(np_values)
    assert divergences == []
    return report


def test_destination_chosen_by_the_arms_stays_non_exact_and_sound():
    report = _claims_cover_executions(
        """
        x = id
        if ((id % 2) == 0) then w = id + 1 else w = id - 1 end
        send x -> w
        receive y <- w
        """
    )
    assert report.result.confidence != "exact"
    first = report.rungs[0].result.diagnostics[0]
    assert "rank-dependent branch" in first.message


def test_branch_on_a_value_the_arms_chose_stays_non_exact_and_sound():
    # one world per side would claim (send 5, receive y) and (send 6,
    # receive z); every execution pairs send 5 with receive z instead
    report = _claims_cover_executions(
        """
        if ((id % 2) == 0) then w = 1 else w = 2 end
        if (w == 1) then
          if (id == 0) then send 5 -> 1 end
          if (id == 1) then receive y <- 0 end
        else
          if (id == 0) then send 6 -> 1 end
          if (id == 1) then receive z <- 0 end
        end
        """
    )
    assert report.result.confidence != "exact"


def test_rank_dependent_while_still_gives_up():
    program = parse("c = 0\nwhile (c < id) do c = c + 1 end" + SHIFT)
    report = analyze_with_fallback(program)
    assert report.result.confidence != "exact"
    first = report.rungs[0].result
    assert [diag.code for diag in first.diagnostics] == [GIVEUP_NO_MATCH]
    assert "rank-dependent branch (c < id)" in first.diagnostics[0].message
