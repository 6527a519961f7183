"""The fault plane's client boundary: the engine's callback guard.

``client.callback.raise`` and ``client.state.corrupt`` are checked in
``PCFGEngine._call`` and nowhere else, so these runs use bare clients
and exercise the guard the engine ships with.
"""

from __future__ import annotations

import pytest

from repro.analyses.cartesian import CartesianClient
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core import diagnostics
from repro.core.diagnostics import CLIENT_FAULT
from repro.core.driver import analyze_batch
from repro.core.engine import PCFGEngine
from repro.faults import plane
from repro.faults.plane import STATE_CALLBACKS, FaultSchedule, PlannedFault
from repro.lang import build_cfg, programs

PAPER = [spec.name for spec in programs.all_specs()]


def _schedule(*plans):
    return FaultSchedule(list(plans), label="client-faults")


def _run(name, schedule, client=None):
    cfg = build_cfg(programs.get(name).parse())
    with plane.engaged(schedule) as fault_plane:
        result = PCFGEngine(cfg, client or SimpleSymbolicClient()).run()
    return result, fault_plane


def _client_faults(result):
    return [d for d in result.diagnostics if d.code == CLIENT_FAULT]


def test_a_raise_at_the_first_callback_gives_up_at_initial():
    result, fault_plane = _run(
        "exchange_with_root", _schedule(PlannedFault("client.callback.raise"))
    )
    assert result.confidence == diagnostics.GAVE_UP
    faults = _client_faults(result)
    assert [d.callback for d in faults] == ["initial"]
    assert "InjectedFault" in faults[0].message
    assert fault_plane.fired_points() == ["client.callback.raise"]


def test_a_corrupted_transfer_state_surfaces_at_a_later_callback():
    # the first corrupt arrival whose callback is ``transfer``: the
    # CorruptedState names its origin in the exception it raises
    for hit in range(1, 40):
        result, _ = _run(
            "exchange_with_root",
            _schedule(PlannedFault("client.state.corrupt", hit=hit)),
        )
        faults = _client_faults(result)
        assert len(faults) == 1, (hit, result.diagnostics)
        if "injected at 'transfer'" in faults[0].message:
            break
    else:
        pytest.fail("no transfer among the first 39 state-returning callbacks")
    assert faults[0].callback != "transfer"
    assert result.confidence != diagnostics.EXACT


def test_every_guarded_callback_is_one_raise_arrival(monkeypatch):
    callbacks = []
    guard = PCFGEngine._call

    def counting(self, callback, fn, *args):
        callbacks.append(callback)
        return guard(self, callback, fn, *args)

    monkeypatch.setattr(PCFGEngine, "_call", counting)
    result, fault_plane = _run("mdcask_full", _schedule(), CartesianClient())
    assert result.confidence == diagnostics.EXACT
    coverage = fault_plane.coverage()
    assert coverage["client.callback.raise"] == {"hits": len(callbacks), "fired": 0}
    state_calls = sum(callback in STATE_CALLBACKS for callback in callbacks)
    assert coverage["client.state.corrupt"] == {"hits": state_calls, "fired": 0}


@pytest.mark.parametrize("name", PAPER)
def test_an_armed_plane_that_fires_nothing_changes_no_answer(name):
    cfg = build_cfg(programs.get(name).parse())
    bare = PCFGEngine(cfg, CartesianClient()).run()
    armed, _ = _run(name, _schedule(), CartesianClient())
    assert (armed.confidence, sorted(armed.matches), armed.steps) == (
        bare.confidence, sorted(bare.matches), bare.steps
    )


def _answers(reports):
    return [
        (report.chosen.name, report.result.confidence, sorted(report.result.matches))
        for _, report in reports
    ]


def test_forked_batch_workers_start_with_no_fault_plane():
    specs = [programs.get(name) for name in ("pingpong", "shift_right", "gather_to_root")]
    disarmed = _answers(analyze_batch(specs, jobs=2))
    with plane.engaged(_schedule(PlannedFault("client.callback.raise"))) as fault_plane:
        armed = _answers(analyze_batch(specs, jobs=2))
    assert armed == disarmed
    assert all(confidence == diagnostics.EXACT for _, confidence, _ in armed)
    # the workers' callbacks never reached the parent's plane
    assert fault_plane.coverage()["client.callback.raise"]["hits"] == 0
