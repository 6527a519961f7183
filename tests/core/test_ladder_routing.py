"""Routing the fallback ladder: skipped rungs never change an answer.

The differential lock compares the routed ``analyze_with_fallback`` with
a reference that climbs every rung of ``default_ladder(limits)`` in order
(warm-starting budget trips exactly as the driver does) until one is
exact.  Rung, confidence, match set and diagnostic codes must agree.
"""

from __future__ import annotations

import pytest

from repro.analyses.cartesian import CartesianClient, analyze_cartesian
from repro.core import diagnostics, driver
from repro.core.driver import Rung, analyze_with_fallback, default_ladder
from repro.core.engine import EngineLimits
from repro.corpus.generator import generate, seed_stream
from repro.corpus.sweep import DEFAULT_MANIFEST, resolve_default, smoke_programs
from repro.lang import programs
from repro.obs import recorder as obs

LIMIT_SETS = {
    "default": EngineLimits(),
    "widen_after=1": EngineLimits(widen_after=1),
    "max_psets=1": EngineLimits(max_psets=1),
    "max_psets=2": EngineLimits(max_psets=2),
    "max_steps=40": EngineLimits(max_steps=40),
}


def _full_climb(program, limits):
    """The unrouted ladder: every rung in order until one is exact."""
    carry = None
    for rung in default_ladder(limits):
        if carry is not None and driver._supports_checkpointing(rung.run):
            result, _, _ = rung.run(program, rung.limits, resume=carry)
        else:
            result, _, _ = rung.run(program, rung.limits)
        if result.confidence == diagnostics.EXACT:
            break
        carry = driver._carryable_snapshot(result)
    return rung.name, result


def _answer(name, result):
    return (
        name,
        result.confidence,
        sorted(result.matches),
        sorted(diag.code for diag in result.diagnostics),
    )


def routed_and_full(program, limits):
    report = analyze_with_fallback(program, limits=limits)
    return _answer(report.rung_name, report.result), _answer(
        *_full_climb(program, limits)
    )


@pytest.mark.parametrize("limits", list(LIMIT_SETS.values()), ids=list(LIMIT_SETS))
@pytest.mark.parametrize("name", programs.names())
def test_routed_ladder_answers_like_the_full_climb(name, limits):
    routed, full = routed_and_full(programs.get(name).parse(), limits)
    assert routed == full


def _smoke_corpus():
    return smoke_programs(resolve_default(DEFAULT_MANIFEST))


def _wide_corpus():
    service = [generate(seed) for seed in seed_stream(4242, 100)]
    return service + _smoke_corpus()


@pytest.mark.ladder_slow
@pytest.mark.parametrize("limits", list(LIMIT_SETS.values()), ids=list(LIMIT_SETS))
def test_routed_ladder_answers_like_the_full_climb_on_the_corpus(limits):
    differences = []
    for generated in _wide_corpus():
        routed, full = routed_and_full(generated.parse(), limits)
        if routed != full:
            differences.append((generated.corpus_id, routed, full))
    assert differences == []


# -- each routing edge ------------------------------------------------------------


def _ladder_path(report):
    return [outcome.name for outcome in report.rungs]


@pytest.mark.parametrize("name", ["ring_modular", "stuck_receive"])
def test_early_no_match_goes_straight_to_the_baseline(name):
    with obs.recording() as recorder:
        report = analyze_with_fallback(programs.get(name))
    assert _ladder_path(report) == ["cartesian", "mpi-cfg"]
    assert report.rungs[0].result.giveup_before_widening
    assert [(s.name, s.reason) for s in report.skipped] == [
        ("cartesian-escalated", "replay"),
        ("simple-symbolic", "dominated"),
    ]
    assert recorder.counters["driver.rung.cartesian-escalated.skipped"] == 1
    assert recorder.counters["driver.rung.simple-symbolic.skipped"] == 1


def test_give_up_after_widening_still_escalates():
    # the smoke program's rung-1 give-up fires after a widening, so the
    # escalated rung runs; its own give-up then dominates simple-symbolic
    generated = next(p for p in _smoke_corpus() if p.corpus_id == "mplg1-4f3b26df")
    assert generated.seed == 1329276639
    report = analyze_with_fallback(generated.parse())
    assert _ladder_path(report) == ["cartesian", "cartesian-escalated", "mpi-cfg"]
    assert not report.rungs[0].result.giveup_before_widening
    assert [(s.name, s.reason) for s in report.skipped] == [
        ("simple-symbolic", "dominated")
    ]


def test_pset_bound_give_up_is_rescued_by_escalation():
    report = analyze_with_fallback(
        programs.get("exchange_with_root"), limits=EngineLimits(max_psets=1)
    )
    assert report.rungs[0].result.diagnostics[0].code == diagnostics.GIVEUP_PSET_BOUND
    assert report.rung_name == "cartesian-escalated"
    assert report.result.confidence == diagnostics.EXACT


def test_no_match_after_widening_is_rescued_by_escalation():
    report = analyze_with_fallback(
        programs.get("ring_shift_nowrap"), limits=EngineLimits(widen_after=1)
    )
    first = report.rungs[0].result
    assert [d.code for d in first.diagnostics] == [diagnostics.GIVEUP_NO_MATCH]
    assert not first.giveup_before_widening
    assert report.rung_name == "cartesian-escalated"
    assert report.result.confidence == diagnostics.EXACT


class _FaultyCartesian(CartesianClient):
    def try_match(self, state, locs, blocked, cfg):
        raise RuntimeError("injected HSM fault")


def _faulty_cartesian(program, limits):
    return analyze_cartesian(program, client=_FaultyCartesian(), limits=limits)


def test_client_fault_still_reaches_simple_symbolic():
    ladder = default_ladder()
    ladder[0] = Rung("cartesian", _faulty_cartesian, ladder[0].limits)
    ladder[1] = Rung("cartesian-escalated", _faulty_cartesian, ladder[1].limits)
    report = analyze_with_fallback(programs.get("pingpong"), ladder=ladder)
    assert _ladder_path(report) == [
        "cartesian",
        "cartesian-escalated",
        "simple-symbolic",
    ]
    assert diagnostics.CLIENT_FAULT in {
        d.code for d in report.rungs[0].result.diagnostics
    }
    assert report.result.confidence == diagnostics.EXACT
    assert not report.skipped


def test_the_last_rung_of_a_custom_ladder_always_runs():
    report = analyze_with_fallback(
        programs.get("ring_modular"), ladder=default_ladder()[:2]
    )
    assert _ladder_path(report) == ["cartesian", "cartesian-escalated"]
    assert report.rung_name == "cartesian-escalated"


def test_describe_names_skipped_rungs_and_the_reason():
    text = analyze_with_fallback(programs.get("ring_modular")).describe()
    assert text.splitlines() == [
        "cartesian: partial (1x GIVEUP_NO_MATCH, 0 matches)",
        "cartesian-escalated: skipped (replay)",
        "simple-symbolic: skipped (dominated)",
        "mpi-cfg: partial (no diagnostics, 1 matches)",
        "answer from rung: mpi-cfg",
    ]
