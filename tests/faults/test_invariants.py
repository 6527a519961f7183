"""The invariant harness itself: a small tier-1 rotation plus the full
seeded sweep (fault_slow)."""

from __future__ import annotations

import pytest

from repro.faults import invariants
from repro.faults.plane import CATALOG


def test_channel_routing_covers_catalog():
    routed = {
        invariants._channel_for(
            type("S", (), {"focus": name})()  # minimal schedule stand-in
        )
        for name in CATALOG
    }
    assert routed <= {"service", "http", "ckpt", "metrics"}
    # client faults are judged through the inline daemon -> driver -> engine path
    for name in ("client.callback.raise", "client.state.corrupt"):
        assert invariants._channel_for(type("S", (), {"focus": name})()) == "service"


#: a sweep case focused on ``daemon.clock.pressure``: a service-channel
#: schedule with journal + cache + replay checks, cheap enough for tier-1
CLOCK_CASE = list(CATALOG).index("daemon.clock.pressure")


def test_single_service_case_passes(tmp_path):
    case = invariants.run_case(1337, CLOCK_CASE, tmp_path)
    assert case.channel == "service"
    assert case.ok, case.violations
    assert case.coverage["daemon.clock.pressure"]["fired"] >= 1


def test_single_ckpt_case_passes(tmp_path):
    case = invariants.run_case(1337, 0, tmp_path)
    assert case.channel == "ckpt"
    assert case.ok, case.violations
    assert case.coverage["ckpt.write.enospc"]["fired"] >= 1


def test_single_metrics_case_passes(tmp_path):
    """The scrape channel must survive the injected render failure with
    nothing but parseable 200s."""
    case = invariants.run_case(1337, list(CATALOG).index("metrics.render.fail"), tmp_path)
    assert case.channel == "metrics"
    assert case.ok, case.violations
    assert case.coverage["metrics.render.fail"]["fired"] >= 1


@pytest.mark.parametrize("point", ["client.callback.raise", "client.state.corrupt"])
def test_single_client_fault_case_passes(tmp_path, point):
    """A client fault at the first arrival, judged by the service
    channel: the answer is exact-or-accounted and sound."""
    case = invariants.run_case(1337, list(CATALOG).index(point), tmp_path)
    assert case.channel == "service"
    assert case.ok, case.violations
    assert case.coverage[point]["fired"] >= 1


def test_report_merges_coverage(tmp_path):
    report = invariants.SweepReport(base_seed=1)
    report.cases.append(invariants.run_case(1, CLOCK_CASE, tmp_path))
    merged = report.merged_coverage()
    assert set(merged) == set(CATALOG)
    assert merged["daemon.clock.pressure"]["fired"] >= 1
    assert "daemon.clock.pressure" not in report.unexercised()
    assert report.summary()["failures"] == 0


@pytest.mark.fault_slow
def test_full_sweep_two_rotations(tmp_path):
    """Two full catalog rotations: every point fires, zero violations."""
    report = invariants.run_sweep(1337, 2 * len(CATALOG), tmp_path)
    assert report.failures == [], [c.violations for c in report.failures]
    assert report.unexercised() == []


@pytest.mark.fault_slow
def test_acceptance_sweep_200_cases(tmp_path):
    """The acceptance bar: >= 200 seeded cases, every registered fault
    point exercised at least once, zero invariant violations."""
    report = invariants.run_sweep(1337, 200, tmp_path)
    assert report.failures == [], [
        (c.label, c.violations) for c in report.failures
    ]
    assert report.unexercised() == []
