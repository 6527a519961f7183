"""The fault plane itself: determinism, replay, coverage, zero cost."""

from __future__ import annotations

import pytest

from repro.faults import plane
from repro.faults.plane import (
    CATALOG,
    CorruptedState,
    FaultPlane,
    FaultSchedule,
    InjectedFault,
    PlannedFault,
    corrupt_bytes,
)


def test_catalog_names_are_scoped():
    # every point is "<subsystem>.<operation>[.<mode>]"; the write-fault
    # family keys off "<scope>.write.<mode>" in atomic_write_text
    for name in CATALOG:
        assert 2 <= len(name.split(".")) <= 3, name


def test_client_points_are_appended_after_the_pipeline_points():
    # appending keeps every earlier point's rotation index (case k of a
    # sweep focuses point k mod len(CATALOG))
    names = list(CATALOG)
    assert len(names) == 15
    assert names[12] == "metrics.render.fail"
    assert names[13:] == ["client.callback.raise", "client.state.corrupt"]


def test_corrupted_state_raises_an_injected_fault_on_any_access():
    state = CorruptedState("transfer")
    with pytest.raises(InjectedFault, match="injected at 'transfer'"):
        state.psets
    assert repr(state) == "<CorruptedState from 'transfer'>"


def test_check_is_none_when_disabled():
    plane.reset()
    assert plane.active() is None
    assert plane.check("ckpt.write.enospc") is None


def test_install_uninstall_roundtrip():
    schedule = FaultSchedule(plans=(PlannedFault("ckpt.write.enospc"),), label="t")
    plane.install(schedule)
    try:
        assert plane.active() is not None
        assert plane.check("ckpt.write.enospc") is not None
    finally:
        plane.uninstall()
    assert plane.active() is None


def test_planned_fault_window():
    fault = PlannedFault("cache.read.corrupt", hit=2, count=2)
    assert not fault.covers(1)
    assert fault.covers(2)
    assert fault.covers(3)
    assert not fault.covers(4)


def test_schedule_for_case_is_deterministic():
    a = FaultSchedule.for_case(1337, 5)
    b = FaultSchedule.for_case(1337, 5)
    assert a.label == b.label == "1337:5"
    assert [(p.point, p.hit, p.count, p.arg) for p in a.plans] == [
        (p.point, p.hit, p.count, p.arg) for p in b.plans
    ]


def test_schedule_rotation_covers_catalog():
    focuses = {FaultSchedule.for_case(7, i).focus for i in range(len(CATALOG))}
    assert focuses == set(CATALOG)


def test_from_env_parses_base_and_case(monkeypatch):
    monkeypatch.setenv(plane.SEED_ENV, "42:3")
    schedule = FaultSchedule.from_env()
    assert schedule is not None and schedule.label == "42:3"
    monkeypatch.setenv(plane.SEED_ENV, "42")
    schedule = FaultSchedule.from_env()
    assert schedule is not None and schedule.label == "42:0"


@pytest.mark.parametrize("bad", ["", "x", "1:2:3", "1:x"])
def test_from_env_never_raises(monkeypatch, bad):
    monkeypatch.setenv(plane.SEED_ENV, bad)
    assert FaultSchedule.from_env() is None


def test_plane_counts_arrivals_and_firings():
    schedule = FaultSchedule(
        plans=(PlannedFault("daemon.worker.kill", hit=2),), label="t"
    )
    fault_plane = FaultPlane(schedule)
    assert fault_plane.check("daemon.worker.kill") is None  # arrival 1
    assert fault_plane.check("daemon.worker.kill") is not None  # arrival 2
    assert fault_plane.check("daemon.worker.kill") is None  # arrival 3
    coverage = fault_plane.coverage()
    assert coverage["daemon.worker.kill"] == {"hits": 3, "fired": 1}
    # zero-filled over the whole catalog, so "never exercised" is visible
    assert set(coverage) == set(CATALOG)
    assert fault_plane.fired_points() == ["daemon.worker.kill"]


def test_unknown_point_counts_but_never_fires():
    fault_plane = FaultPlane(FaultSchedule(plans=(), label="t"))
    assert fault_plane.check("nonexistent.fault.point") is None


def test_corrupt_bytes_always_differs():
    raw = b'{"answer": 42, "padding": "xxxxxxxxxxxxxxxx"}'
    for arg in (0.0, 0.3, 0.5, 0.61, 0.99):
        assert corrupt_bytes(raw, arg) != raw
    assert corrupt_bytes(b"", 0.5) != b""
