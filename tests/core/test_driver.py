"""The precision-fallback ladder and the batch pool (`repro.core.driver`)."""

from __future__ import annotations

import os
import signal

from repro.core import diagnostics, driver
from repro.core.driver import (
    analyze_batch,
    analyze_with_fallback,
    default_ladder,
    escalate,
    pool_map,
)
from repro.core.engine import EngineLimits
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.obs import context
from repro.obs import recorder as obs
from repro.runtime import run_program

SMALL_CORPUS = ["pingpong", "shift_right", "master_worker", "mdcask_full"]

#: the test process; pool workers are forks of it with other pids
_PARENT = os.getpid()


def _kill_this_worker() -> None:
    assert os.getpid() != _PARENT
    os.kill(os.getpid(), signal.SIGKILL)


def test_first_rung_exact_wins_and_stops():
    report = analyze_with_fallback(programs.get("exchange_with_root"))
    assert report.rung_name == "cartesian"
    assert len(report.rungs) == 1  # later rungs were never run
    assert report.result.confidence == diagnostics.EXACT
    assert report.result.matches


def test_escalated_limits_rescue_a_budget_starved_run():
    # rung 1 runs out of steps (needs 23); the escalated rung doubles the
    # budget to 36, enough even at its deeper widen_after=4 (31 steps)
    report = analyze_with_fallback(
        programs.get("exchange_with_root"), limits=EngineLimits(max_steps=18)
    )
    assert report.rung_name == "cartesian-escalated"
    assert [outcome.name for outcome in report.rungs] == [
        "cartesian",
        "cartesian-escalated",
    ]
    assert report.rungs[0].confidence == diagnostics.PARTIAL
    assert report.result.confidence == diagnostics.EXACT


def test_unanalyzable_program_falls_to_the_baseline():
    # rung 1 gives up before any widening: the escalated rung would replay
    # that give-up, so it does not run
    report = analyze_with_fallback(programs.get("ring_modular"))
    assert report.rung_name == "mpi-cfg"
    assert [outcome.name for outcome in report.rungs] == [
        "cartesian",
        "mpi-cfg",
    ]
    # the baseline always answers, marked partial (over-approximate)
    assert report.result.confidence == diagnostics.PARTIAL
    assert report.result.matches
    # the sharper rungs' partial outcomes remain inspectable
    assert all(
        outcome.confidence == diagnostics.PARTIAL for outcome in report.rungs
    )


def test_baseline_rung_is_sound_overapproximation():
    # every concretely observed edge must appear in the baseline topology
    program = programs.get("ring_modular").parse()
    report = analyze_with_fallback(program)
    assert report.rung_name == "mpi-cfg"
    cfg = build_cfg(program)
    for np in (4, 6, 8):
        trace = run_program(program, np, cfg=cfg)
        assert trace.topology().node_edges <= set(report.result.matches), (
            f"baseline missed a real edge at np={np}"
        )


def test_escalate_doubles_the_precision_knobs():
    base = EngineLimits(max_steps=100, widen_after=2, max_psets=4,
                        deadline_sec=1.5, strict=True)
    boosted = escalate(base)
    assert boosted.max_steps == 200
    assert boosted.widen_after == 4
    assert boosted.max_psets == 8
    # non-precision knobs are preserved untouched
    assert boosted.deadline_sec == 1.5
    assert boosted.strict is True


def test_default_ladder_shape():
    rungs = default_ladder(EngineLimits(max_psets=4))
    assert [rung.name for rung in rungs] == [
        "cartesian",
        "cartesian-escalated",
        "mpi-cfg",
    ]
    assert rungs[1].limits.max_psets == 8
    assert rungs[2].limits.max_psets == 4


def test_report_describe_names_the_answering_rung():
    report = analyze_with_fallback(programs.get("ring_modular"))
    text = report.describe()
    assert "answer from rung: mpi-cfg" in text
    assert "cartesian: partial" in text


# -- the pool: batch analysis -----------------------------------------------------


def _digest(pairs):
    return [
        (
            getattr(item, "name", "?"),
            report.rung_name,
            report.result.confidence,
            frozenset(report.result.matches),
        )
        for item, report in pairs
    ]


def test_parallel_batch_matches_serial_in_order():
    items = [programs.get(name) for name in SMALL_CORPUS]
    serial = _digest(analyze_batch(items))
    parallel = _digest(analyze_batch(items, jobs=2))
    assert parallel == serial  # same answers, input order preserved


def test_parallel_batch_merges_worker_counters():
    items = [programs.get(name) for name in SMALL_CORPUS]
    with obs.recording() as recorder:
        list(analyze_batch(items, jobs=2))
    assert recorder.counters.get("engine.steps", 0) > 0


def test_parallel_batch_merges_worker_counters_into_a_job_recorder():
    # a daemon batch job binds a private recorder into its thread; pool
    # workers forked from that thread inherit the binding, so they must
    # bind their own recorder for the counters to travel home
    items = [programs.get(name) for name in SMALL_CORPUS]
    recorder = obs.Recorder()
    with context.bound(recorder=recorder):
        list(analyze_batch(items, jobs=2))
    assert recorder.counters.get("engine.steps", 0) > 0


def _square_or_die(n: int) -> int:
    if n == 3 and os.getpid() != _PARENT:
        _kill_this_worker()
    return n * n


def test_pool_map_retries_a_killed_worker_in_process():
    with obs.recording() as recorder:
        pairs = list(pool_map(_square_or_die, range(8), jobs=2))
    assert pairs == [(n, n * n) for n in range(8)]
    assert recorder.counters.get("driver.pool.worker_lost", 0) >= 1


def test_pool_map_unpicklable_fn_runs_serially():
    offset = 10
    pairs = list(pool_map(lambda n: n + offset, [1, 2, 3], jobs=2))
    assert pairs == [(1, 11), (2, 12), (3, 13)]


def test_batch_survives_a_killed_worker(monkeypatch):
    items = [programs.get(name) for name in SMALL_CORPUS]
    serial = _digest(analyze_batch(items))
    analyze = driver.analyze_with_fallback

    def analyze_or_die(item, **kwargs):
        if item.name == "master_worker" and os.getpid() != _PARENT:
            _kill_this_worker()
        return analyze(item, **kwargs)

    monkeypatch.setattr(driver, "analyze_with_fallback", analyze_or_die)
    with obs.recording() as recorder:
        parallel = _digest(analyze_batch(items, jobs=2))
    assert parallel == serial
    assert recorder.counters.get("driver.pool.worker_lost", 0) >= 1
