#!/usr/bin/env python3
"""Tracked benchmark baseline for the pCFG engine hot path.

Runs the three tracked workloads — the measured core of
``benchmarks/bench_fig5_exchange.py``, ``benchmarks/bench_fig2_constprop.py``
and ``benchmarks/bench_sec9_profile.py`` — and records the median-of-5 wall
time of each plus the observability counters of one instrumented run.

Two modes:

``--out BENCH.json``
    Measure and write the baseline document.  ``--pre OLD.json`` embeds a
    previously captured document under ``"pre_overhaul"`` so the file carries
    its own before/after trajectory (this is how ``BENCH_pr2.json`` records
    the pre-PR-2 engine).

``--compare BENCH.json``
    Measure and compare against the committed medians; exit non-zero when
    any tracked median regressed by more than ``--threshold`` (default 25%,
    the CI gate).

The JSON schema (``repro-bench/1``)::

    {
      "schema": "repro-bench/1",
      "benches":  {"<name>": {"median_s": float, "runs_s": [float, ...]}},
      "counters": {"<name>": {"<obs counter>": int, ...}},
      "counters_warm": { ... same shape, second run in the same process ... },
      "pre_overhaul": { ... an older document's "benches"/"counters" ... }
    }

``counters`` is a cold run — the fair baseline for the timed medians,
which are also cold.  ``counters_warm`` is an immediately repeated run in
the same process.  Documents up to ``BENCH_pr10.json`` recorded it with
process-wide closure/equivalence memos left hot (its
``cgraph.closure.cache_hits``); those memos are gone, so it is history.

``--out`` documents additionally record ``"checkpoint_overhead"``: the two
checkpoint-capable workloads re-timed with a periodic
:class:`~repro.core.checkpoint.Checkpointer` attached at the documented
default cadence (``every_steps=500``), plus the full per-snapshot cost
sampled at a dense cadence.  The recorded ``overhead`` fraction is what a
long-running analysis pays per step with crash-safety on, snapshot writes
amortized over the default interval; the target is <= 5%
(``"target": 0.05``).  See :func:`measure_checkpoint_overhead`.

``--out`` documents also record ``"provenance_overhead"``: every tracked
workload re-timed in the flight recorder's two modes — ``off`` (the
default; every emit site is behind one ``is not None`` check) and
``on`` (recording every event of the run in memory) — as a
paired-window ratio against ``off``.  With
``--prov-pre-tree WORKTREE`` (a checkout of the commit before the
flight recorder existed), the disabled mode is additionally compared
against that tree by paired subprocesses (``disabled_vs_tree``): the
recorded cost of *having* the instrumentation while it is off, target
<= 2% (``"off_target": 0.02``).  See :func:`measure_provenance_overhead`
and :func:`measure_disabled_vs_tree`.

``--out`` documents also record ``"serve"``: a duplicate-heavy corpus
replay against an in-process ``repro serve`` stack — requests/sec,
cache-hit rate (gated: >= 0.9 on the warm replay), shed rate, and
latency percentiles.  See :func:`measure_serve`.

With ``--telemetry-pre-tree WORKTREE`` (a checkout of the commit before
the telemetry plane landed), ``--out`` documents additionally record
``"telemetry_overhead"``: the same paired-subprocess tree comparison
applied to the disabled telemetry guards (per-step progress-hook checks,
thread-local trace-context lookups), gated at <= 2% on the Section IX
profile workload.  See :func:`measure_telemetry_overhead`.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro import analyze, programs  # noqa: E402
from repro.analyses.constprop import propagate_constants  # noqa: E402
from repro.core.checkpoint import Checkpointer  # noqa: E402
from repro.core.driver import analyze_batch  # noqa: E402
from repro.corpus.generator import generate, seed_stream  # noqa: E402
from repro.corpus.sweep import SMOKE_SEED  # noqa: E402
from repro.obs import profile_program, provenance  # noqa: E402
from repro.obs import recorder as obs_recorder  # noqa: E402

#: counters recorded per workload (missing counters default to 0 so the
#: script also runs against engines that predate them)
TRACKED_COUNTERS = (
    "engine.steps",
    "engine.joins",
    "engine.widenings",
    "engine.worklist.dedup",
    "engine.intern.hits",
    "cgraph.cow.shares",
    "cgraph.cow.materializations",
    "cgraph.closure.full.calls",
    "cgraph.closure.incremental.calls",
    "hsm.prove.cache_hits",
)

WARMUP_RUNS = 1
TIMED_RUNS = 5


def _reset() -> None:
    """Per-run isolation: the obs recorder and context (provenance too)."""
    obs_recorder.reset()
    # collect garbage left by the previous run so a collection triggered by
    # an earlier workload's debris never lands inside a timed window
    gc.collect()


def _bench_fig5_exchange() -> None:
    result, _, _ = analyze(programs.get("exchange_with_root"))
    assert not result.gave_up


def _bench_fig2_constprop() -> None:
    report, _, _ = propagate_constants(programs.get("pingpong"))
    assert not report.gave_up


def _bench_sec9_profile() -> None:
    _, result = profile_program(programs.get("broadcast_fanout"), naive=False)
    assert not result.gave_up


#: generated programs in the serial ``bench_corpus_batch`` workload — small
#: enough that the median-of-5 stays quick, large enough to mix topologies
CORPUS_BENCH_COUNT = 8

_CORPUS_CACHE: Dict[int, list] = {}


def _corpus_programs(count: int) -> list:
    """The first ``count`` seeded-generator programs, parsed once and cached
    so the timed window measures the analyzer, not the generator."""
    if count not in _CORPUS_CACHE:
        _CORPUS_CACHE[count] = [
            generate(seed).parse() for seed in seed_stream(SMOKE_SEED, count)
        ]
    return _CORPUS_CACHE[count]


def _bench_corpus_batch() -> None:
    for _item, report in analyze_batch(_corpus_programs(CORPUS_BENCH_COUNT)):
        assert report.result is not None


WORKLOADS: Dict[str, Callable[[], None]] = {
    "bench_fig5_exchange": _bench_fig5_exchange,
    "bench_fig2_constprop": _bench_fig2_constprop,
    "bench_sec9_profile": _bench_sec9_profile,
    "bench_corpus_batch": _bench_corpus_batch,
}

#: the documented default snapshot cadence (see README "Resumable analyses");
#: the overhead target is evaluated at this operating point
CKPT_EVERY_STEPS = 500
#: dense cadence used only to *sample* the full per-snapshot cost
#: (capture + serialize + atomic write) — the tracked workloads run a few
#: dozen fixpoint steps, so this forces several real snapshots per run
CKPT_COST_EVERY_STEPS = 5
CKPT_OVERHEAD_TARGET = 0.05


def _ckpt_fig5_exchange(ckpt: Optional[Checkpointer]) -> Callable[[], None]:
    def run() -> None:
        result, _, _ = analyze(programs.get("exchange_with_root"), checkpointer=ckpt)
        assert not result.gave_up

    return run


def _ckpt_fig2_constprop(ckpt: Optional[Checkpointer]) -> Callable[[], None]:
    def run() -> None:
        report, _, _ = propagate_constants(programs.get("pingpong"), checkpointer=ckpt)
        assert not report.gave_up

    return run


#: workload factories for the checkpoint-overhead measurement (the Section IX
#: profile workload drives the engine through its own wrapper and is excluded)
CKPT_WORKLOADS: Dict[str, Callable[[Optional[Checkpointer]], Callable[[], None]]] = {
    "bench_fig5_exchange": _ckpt_fig5_exchange,
    "bench_fig2_constprop": _ckpt_fig2_constprop,
}


#: paired A/B windows in the overhead comparison (more than the plain
#: medians get: the ratios divide millisecond-scale numbers)
OVERHEAD_WINDOWS = 15


def _paired_ratios(variants, inner: int):
    """Per-variant median wall time and median per-window ratio vs variants[0].

    The overhead ratios compare millisecond-scale runs, where independently
    timed medians are still scheduler-noise-dominated.  Two defenses: batch
    ``inner`` back-to-back runs per timed window, and *pair* the
    measurements — each window times every variant in immediate succession
    and yields one ratio per variant, so slow drift (CPU frequency,
    allocator state) cancels inside the window; the median over all windows
    then suppresses the occasional interfered window far better than
    comparing two independently taken minima.

    Returns ``(medians, ratios)``: per-variant median seconds per run and
    per-variant median of within-window ratios to ``variants[0]`` (so
    ``ratios[0] == 1.0``).
    """
    for workload in variants:
        _reset()
        workload()
    times = [[] for _ in variants]
    window_ratios = [[] for _ in variants]
    for _ in range(OVERHEAD_WINDOWS):
        window = []
        for index, workload in enumerate(variants):
            _reset()
            start = time.perf_counter()
            for _ in range(inner):
                workload()
            window.append((time.perf_counter() - start) / inner)
            times[index].append(window[index])
        for index, seconds in enumerate(window):
            window_ratios[index].append(seconds / window[0])
    medians = [statistics.median(series) for series in times]
    ratios = [statistics.median(series) for series in window_ratios]
    return medians, ratios


def _inner_for(workload: Callable[[], None]) -> int:
    """Pick a batch size that fills a ~100ms timed window (capped at 50)."""
    _reset()
    start = time.perf_counter()
    workload()
    single = time.perf_counter() - start
    return max(1, min(50, int(0.1 / max(single, 1e-9))))


def measure_checkpoint_overhead() -> dict:
    """Cost of crash-safety at the documented cadence, per workload.

    Two ingredients, both measured:

    * ``armed_overhead`` — paired-window wall time (see
      :func:`_paired_ratios`) with a ``Checkpointer`` attached at the
      default cadence (``every_steps=500``) vs without one.  The tracked
      workloads run far fewer than 500 steps, so no periodic snapshot
      fires: this isolates the steady per-step price of having
      crash-safety switched on (the cadence branch, the armed atexit hook).
    * ``snapshot_s`` — the full cost of one snapshot (state capture,
      canonical JSON + checksum, atomic write-rename), sampled by also
      timing a dense ``every_steps=5`` cadence and dividing its wall-time
      delta over the plain run by the number of snapshots written.

    ``overhead`` combines them at the default operating point:
    ``armed_overhead + snapshot_s / (every_steps * per_step_s)`` — what a
    long-running analysis pays per step once snapshot writes amortize over
    the 500-step interval.  Snapshots land in a temporary directory that is
    removed afterwards, so the measurement never dirties the working tree.
    """
    workloads: Dict[str, dict] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-ckpt-") as tmp:
        for name, factory in CKPT_WORKLOADS.items():
            inner = _inner_for(factory(None))
            armed = Checkpointer(tmp, name=name, every_steps=CKPT_EVERY_STEPS)
            dense = Checkpointer(
                tmp, name=name + "-dense", every_steps=CKPT_COST_EVERY_STEPS
            )
            medians, ratios = _paired_ratios(
                [factory(None), factory(armed), factory(dense)], inner
            )
            plain = medians[0]
            armed_overhead = ratios[1] - 1.0
            _reset()
            with obs_recorder.recording() as recorder:
                factory(dense)()
                snap = recorder.snapshot()
            steps = int(snap["counters"].get("engine.steps", 0))
            writes = int(snap["counters"].get("engine.ckpt.writes", 0))
            bytes_hist = snap.get("histograms", {}).get("engine.ckpt.bytes", {})
            dense_extra_s = max(ratios[2] - 1.0, 0.0) * plain
            snapshot_s = dense_extra_s / writes if writes else 0.0
            snapshot_bytes = (
                bytes_hist.get("total", 0.0) / writes if writes else 0.0
            )

            per_step_s = plain / steps if steps else 0.0
            overhead = max(armed_overhead, 0.0)
            if per_step_s > 0:
                overhead += snapshot_s / (CKPT_EVERY_STEPS * per_step_s)
            workloads[name] = {
                "steps": steps,
                "plain_s": plain,
                "armed_s": medians[1],
                "armed_overhead": armed_overhead,
                "snapshot_s": snapshot_s,
                "snapshot_bytes": snapshot_bytes,
                "overhead": overhead,
            }
    return {
        "every_steps": CKPT_EVERY_STEPS,
        "cost_sample_every_steps": CKPT_COST_EVERY_STEPS,
        "target": CKPT_OVERHEAD_TARGET,
        "workloads": workloads,
    }


PROV_OFF_TARGET = 0.02


def measure_provenance_overhead() -> dict:
    """Cost of the provenance flight recorder per workload, per mode.

    Paired-window ratios (:func:`_paired_ratios`) of two variants of
    every tracked workload:

    * ``off`` — provenance disabled, the default.  This is the baseline
      of the paired comparison, so its in-document ratio is 1 by
      construction; the *absolute* disabled cost (the ``is not None``
      guards the engine now carries) is measured separately against a
      pre-instrumentation checkout by :func:`measure_disabled_vs_tree`
      (``--prov-pre-tree``) — target <= 2%.
    * ``on`` — recording every event of the run in memory.
    """
    workloads: Dict[str, dict] = {}
    for name, workload in WORKLOADS.items():

        def recorded_run(workload=workload):
            with provenance.recording():
                workload()

        medians, ratios = _paired_ratios(
            [workload, recorded_run], _inner_for(workload)
        )
        _reset()
        with provenance.recording() as prov:
            workload()
            events = prov.total_events
        workloads[name] = {
            "events": events,
            "off_s": medians[0],
            "on_s": medians[1],
            "on_overhead": ratios[1] - 1.0,
        }
    return {
        "off_target": PROV_OFF_TARGET,
        "workloads": workloads,
    }


#: paired subprocess windows for the disabled-vs-pre-tree measurement;
#: each window times ~0.25s per tree, so the ratio divides numbers large
#: enough to resolve a 2% target through scheduler noise
PROV_TREE_WINDOWS = 20

#: timing snippet run in a subprocess against one source tree: argv is
#: (src dir, workload name, inner batch); prints seconds per run
_TREE_SNIPPET = """
import sys, time
sys.path.insert(0, sys.argv[1])
name, inner = sys.argv[2], int(sys.argv[3])
from repro import analyze, programs
from repro.analyses.constprop import propagate_constants
from repro.obs import profile_program

def run():
    if name == "bench_fig5_exchange":
        result, _, _ = analyze(programs.get("exchange_with_root"))
        assert not result.gave_up
    elif name == "bench_fig2_constprop":
        report, _, _ = propagate_constants(programs.get("pingpong"))
        assert not report.gave_up
    else:
        _, result = profile_program(programs.get("broadcast_fanout"), naive=False)
        assert not result.gave_up

run()
start = time.perf_counter()
for _ in range(inner):
    run()
print((time.perf_counter() - start) / inner)
"""


def measure_disabled_vs_tree(pre_tree: Path) -> dict:
    """Disabled-provenance cost vs a pre-instrumentation source tree.

    The in-process paired comparison above cannot see the cost of the
    ``is not None`` guards themselves — disabled mode *is* its baseline —
    and cross-document cold medians drift by more than the 2% target
    between sessions.  This measurement closes the gap: each window runs
    the same workload in two fresh subprocesses back to back — one
    importing ``repro`` from ``pre_tree`` (a checkout of the commit
    before the flight recorder existed, e.g. a ``git worktree`` of it),
    one from this repository — and yields one wall-time ratio; the median
    over ``PROV_TREE_WINDOWS`` windows is the recorded ``off_overhead``.
    Subprocess startup is excluded (each subprocess times itself after a
    warmup run), and the in-window order alternates so monotone machine
    drift (thermal/quota throttling over a long bench run) cancels in
    the median instead of consistently penalizing whichever tree runs
    second.
    """
    pre_src = Path(pre_tree) / "src"
    if not pre_src.is_dir():
        pre_src = Path(pre_tree)

    def timed(tree: str, name: str, inner: int) -> float:
        out = subprocess.run(
            [sys.executable, "-c", _TREE_SNIPPET, tree, name, str(inner)],
            capture_output=True, text=True, check=True,
        )
        return float(out.stdout.strip())

    workloads: Dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        if name == "bench_corpus_batch":
            # the corpus generator postdates every pre-instrumentation tree
            continue
        _reset()
        start = time.perf_counter()
        workload()
        single = time.perf_counter() - start
        inner = max(3, min(100, int(0.25 / max(single, 1e-9))))
        ratios = []
        for window in range(PROV_TREE_WINDOWS):
            if window % 2 == 0:
                pre_s = timed(str(pre_src), name, inner)
                cur_s = timed(str(SRC), name, inner)
            else:
                cur_s = timed(str(SRC), name, inner)
                pre_s = timed(str(pre_src), name, inner)
            ratios.append(cur_s / pre_s)
        workloads[name] = {
            "off_overhead": statistics.median(ratios) - 1.0,
            "windows": len(ratios),
        }
    return {"pre_tree": str(pre_tree), "workloads": workloads}


#: disabled-telemetry cost target on the gated workload: the progress-hook
#: and trace-context guards the engine hot path now carries must stay
#: invisible when no subscriber or sink is installed
TELEMETRY_OFF_TARGET = 0.02
#: the workload the telemetry gate is enforced on (the Section IX profile
#: drives the deepest engine loop, where a hot-path guard would show first)
TELEMETRY_GATED_WORKLOAD = "bench_sec9_profile"


def measure_telemetry_overhead(pre_tree: Path) -> dict:
    """Disabled-telemetry cost vs a pre-telemetry source tree.

    Same paired-subprocess design as :func:`measure_disabled_vs_tree` —
    the telemetry plane's disabled mode is the in-process baseline, so
    only a tree comparison can see the guards themselves (the per-step
    progress-hook check in the engine worklist loop and the thread-local
    trace-context lookups around rungs and attempts).  Each window runs
    the workload in two fresh subprocesses back to back, one importing
    ``repro`` from ``pre_tree`` (a checkout of the commit before the
    telemetry plane landed), one from this repository, in alternating
    order; the median window ratio is the recorded ``off_overhead``.

    The gate (target <= 2%) is enforced on ``TELEMETRY_GATED_WORKLOAD``;
    the other tracked workloads are recorded informationally.
    """
    pre_src = Path(pre_tree) / "src"
    if not pre_src.is_dir():
        pre_src = Path(pre_tree)

    def timed(tree: str, name: str, inner: int) -> float:
        out = subprocess.run(
            [sys.executable, "-c", _TREE_SNIPPET, tree, name, str(inner)],
            capture_output=True, text=True, check=True,
        )
        return float(out.stdout.strip())

    workloads: Dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        if name == "bench_corpus_batch":
            continue
        _reset()
        start = time.perf_counter()
        workload()
        single = time.perf_counter() - start
        inner = max(3, min(100, int(0.25 / max(single, 1e-9))))
        ratios = []
        for window in range(PROV_TREE_WINDOWS):
            if window % 2 == 0:
                pre_s = timed(str(pre_src), name, inner)
                cur_s = timed(str(SRC), name, inner)
            else:
                cur_s = timed(str(SRC), name, inner)
                pre_s = timed(str(pre_src), name, inner)
            ratios.append(cur_s / pre_s)
        workloads[name] = {
            "off_overhead": statistics.median(ratios) - 1.0,
            "windows": len(ratios),
        }
    gated = workloads.get(TELEMETRY_GATED_WORKLOAD, {})
    return {
        "pre_tree": str(pre_tree),
        "off_target": TELEMETRY_OFF_TARGET,
        "gate": {
            "workload": TELEMETRY_GATED_WORKLOAD,
            "target": TELEMETRY_OFF_TARGET,
            "met": gated.get("off_overhead", 1.0) <= TELEMETRY_OFF_TARGET,
        },
        "workloads": workloads,
    }


#: worker counts measured by the parallel section; 1 is the baseline
PARALLEL_JOBS = (1, 2, 4)
#: corpus batch size for the parallel measurement — larger than the serial
#: tier so pool startup and state shipping amortize over real work
PARALLEL_COUNT = 24
PARALLEL_RUNS = 3
#: the acceptance target: wall-clock speedup of the jobs=4 batch over the
#: jobs=1 batch.  Only *enforced* on hosts with >= 4 CPUs — on fewer cores
#: the speedup is physically unattainable and the recorded number documents
#: the honest (pool-overhead-dominated) behavior instead of gating on it.
PARALLEL_SPEEDUP_TARGET = 1.5
PARALLEL_GATE_MIN_CPUS = 4


def measure_parallel() -> dict:
    """Wall-clock speedup of the parallel corpus batch, equivalence-gated.

    Times ``analyze_batch`` over ``PARALLEL_COUNT`` seeded-generator
    programs at each worker count in ``PARALLEL_JOBS`` (median of
    ``PARALLEL_RUNS``), and checks that every worker count reports the
    same (rung, confidence, match set) per program as the serial run —
    a speedup that changes answers is a bug, not a win.

    The document records ``cpus`` so readers can judge the numbers: on a
    single-core host the parallel runs *lose* (pool startup plus pickling
    with no parallel hardware underneath), and the ``gate`` entry says
    whether the speedup target was enforced on this machine.
    """
    import os

    corpus = _corpus_programs(PARALLEL_COUNT)
    cpus = os.cpu_count() or 1
    entries: Dict[str, dict] = {}
    baseline_outcomes = None
    for jobs in PARALLEL_JOBS:
        runs = []
        outcomes = None
        for _ in range(PARALLEL_RUNS):
            _reset()
            start = time.perf_counter()
            reports = [report for _item, report in analyze_batch(corpus, jobs=jobs)]
            runs.append(time.perf_counter() - start)
            outcomes = [
                (
                    report.rung_name,
                    report.result.confidence,
                    sorted(report.result.matches),
                )
                for report in reports
            ]
        if baseline_outcomes is None:
            baseline_outcomes = outcomes
        entries[str(jobs)] = {
            "median_s": statistics.median(runs),
            "runs_s": runs,
            "equivalent": outcomes == baseline_outcomes,
        }
    base = entries[str(PARALLEL_JOBS[0])]["median_s"]
    for entry in entries.values():
        entry["speedup"] = base / entry["median_s"] if entry["median_s"] else 0.0
    top = str(PARALLEL_JOBS[-1])
    enforced = cpus >= PARALLEL_GATE_MIN_CPUS
    return {
        "cpus": cpus,
        "programs": PARALLEL_COUNT,
        "base_seed": SMOKE_SEED,
        "jobs": entries,
        "gate": {
            "target_speedup": PARALLEL_SPEEDUP_TARGET,
            "at_jobs": PARALLEL_JOBS[-1],
            "min_cpus": PARALLEL_GATE_MIN_CPUS,
            "enforced": enforced,
            "met": entries[top]["speedup"] >= PARALLEL_SPEEDUP_TARGET,
            "equivalent": all(entry["equivalent"] for entry in entries.values()),
        },
    }


def _instrumented(workload: Callable[[], None]) -> Dict[str, int]:
    """One recorded run of a workload; returns the tracked counters."""
    with obs_recorder.recording() as recorder:
        workload()
        snapshot = recorder.snapshot()["counters"]
    return {key: int(snapshot.get(key, 0)) for key in TRACKED_COUNTERS}


# -- the analysis service ------------------------------------------------------

#: the duplicate-heavy replay must be served at least this much from the
#: content-addressed cache (the PR 8 service gate)
SERVE_HIT_RATE_TARGET = 0.9


def measure_serve() -> dict:
    """Duplicate-heavy corpus replay against an in-process service.

    Spins up the ``repro serve`` stack (scheduler + HTTP, inline
    isolation so the numbers measure the service layer rather than
    process forks), warms one copy of each distinct program, then
    replays the duplicate storm concurrently — the steady-state access
    pattern of a popular service.  Records requests/sec, cache-hit
    rate (gated: >= ``SERVE_HIT_RATE_TARGET``), shed rate, and latency
    percentiles.
    """
    import shutil
    import tempfile
    import threading

    from repro.serve.daemon import AnalysisService, ServiceConfig
    from repro.serve.http import AnalysisHTTPServer
    from repro.serve.loadgen import corpus_mix, run_load

    distinct, duplicates = 5, 10
    state_dir = Path(tempfile.mkdtemp(prefix="repro-serve-bench-"))
    config = ServiceConfig(
        state_dir=state_dir, workers=2, isolation="inline", queue_size=64
    )
    service = AnalysisService(config)
    service.start()
    httpd = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        metrics = run_load(
            base,
            corpus_mix(distinct, duplicates),
            concurrency=8,
            warm_distinct=corpus_mix(distinct, 1),
            deadline_sec=20.0,
        )
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.stop()
        shutil.rmtree(state_dir, ignore_errors=True)
        _reset()
    metrics["distinct"] = distinct
    metrics["duplicates"] = duplicates
    metrics["gate"] = {
        "target_hit_rate": SERVE_HIT_RATE_TARGET,
        "met": metrics["cache_hit_rate"] >= SERVE_HIT_RATE_TARGET,
    }
    return metrics


def measure() -> dict:
    """Median-of-5 cold wall times plus cold and warm instrumented runs."""
    benches: Dict[str, dict] = {}
    counters: Dict[str, dict] = {}
    counters_warm: Dict[str, dict] = {}
    for name, workload in WORKLOADS.items():
        for _ in range(WARMUP_RUNS):
            _reset()
            workload()
        runs = []
        for _ in range(TIMED_RUNS):
            _reset()
            start = time.perf_counter()
            workload()
            runs.append(time.perf_counter() - start)
        benches[name] = {
            "median_s": statistics.median(runs),
            "runs_s": runs,
        }
        _reset()
        counters[name] = _instrumented(workload)
        # second run in the same process: the steady state of a warm
        # analysis process
        counters_warm[name] = _instrumented(workload)
        _reset()
    return {
        "schema": "repro-bench/1",
        "benches": benches,
        "counters": counters,
        "counters_warm": counters_warm,
    }


def write_baseline(
    out: Path,
    pre: Path = None,
    prov_pre_tree: Path = None,
    telemetry_pre_tree: Path = None,
) -> dict:
    document = measure()
    document["checkpoint_overhead"] = measure_checkpoint_overhead()
    old = json.loads(pre.read_text()) if pre is not None else None
    document["parallel"] = measure_parallel()
    document["serve"] = measure_serve()
    document["provenance_overhead"] = measure_provenance_overhead()
    if prov_pre_tree is not None:
        document["provenance_overhead"]["disabled_vs_tree"] = (
            measure_disabled_vs_tree(prov_pre_tree)
        )
    if telemetry_pre_tree is not None:
        document["telemetry_overhead"] = measure_telemetry_overhead(
            telemetry_pre_tree
        )
    if old is not None:
        document["pre_overhaul"] = {
            "benches": old.get("benches", {}),
            "counters": old.get("counters", {}),
        }
    out.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return document


def compare(baseline_path: Path, threshold: float) -> int:
    baseline = json.loads(baseline_path.read_text())
    current = measure()
    failures = []
    print(f"{'bench':28s} {'baseline':>12s} {'current':>12s} {'ratio':>8s}")
    for name, recorded in sorted(baseline.get("benches", {}).items()):
        if name not in current["benches"]:
            continue
        old = recorded["median_s"]
        new = current["benches"][name]["median_s"]
        ratio = new / old if old > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + threshold:
            failures.append((name, old, new, ratio))
            flag = "  REGRESSION"
        print(f"{name:28s} {old:>11.4f}s {new:>11.4f}s {ratio:>7.2f}x{flag}")
    if failures:
        print(
            f"\nFAIL: {len(failures)} tracked median(s) regressed more than "
            f"{100 * threshold:.0f}% vs {baseline_path}",
            file=sys.stderr,
        )
        return 1
    print(f"\nOK: no tracked median regressed more than {100 * threshold:.0f}%")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="write a fresh baseline document")
    mode.add_argument(
        "--compare", type=Path, help="compare against a committed baseline"
    )
    parser.add_argument(
        "--pre",
        type=Path,
        default=None,
        help="older document to embed under 'pre_overhaul' (with --out)",
    )
    parser.add_argument(
        "--prov-pre-tree",
        type=Path,
        default=None,
        help="source tree of the commit before the provenance flight "
             "recorder (e.g. a git worktree): paired-subprocess measurement "
             "of the disabled-mode overhead (with --out)",
    )
    parser.add_argument(
        "--telemetry-pre-tree",
        type=Path,
        default=None,
        help="source tree of the commit before the telemetry plane (e.g. a "
             "git worktree): paired-subprocess measurement of the disabled "
             "progress-hook/trace-context overhead, gated on the Section IX "
             "workload (with --out)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional median regression in --compare mode",
    )
    args = parser.parse_args(argv)
    if args.out is not None:
        document = write_baseline(
            args.out, args.pre, args.prov_pre_tree, args.telemetry_pre_tree
        )
        for name, entry in sorted(document["benches"].items()):
            print(f"{name:28s} median {entry['median_s']:.4f}s")
        ckpt = document["checkpoint_overhead"]
        for name, entry in sorted(ckpt["workloads"].items()):
            print(
                f"{name:28s} checkpoint overhead {100 * entry['overhead']:.2f}% "
                f"at every_steps={ckpt['every_steps']} "
                f"(snapshot {1000 * entry['snapshot_s']:.2f}ms, target <= "
                f"{100 * ckpt['target']:.0f}%)"
            )
        par = document["parallel"]
        for jobs, entry in sorted(par["jobs"].items(), key=lambda kv: int(kv[0])):
            print(
                f"corpus batch jobs={jobs:<2s} median {entry['median_s']:.4f}s "
                f"speedup {entry['speedup']:.2f}x "
                f"equivalent={entry['equivalent']}"
            )
        gate = par["gate"]
        status = "met" if gate["met"] else "NOT met"
        if gate["enforced"]:
            scope = "enforced"
        else:
            scope = f"informational: fewer than {gate['min_cpus']} cpus"
        print(
            f"parallel gate: {gate['target_speedup']}x at jobs={gate['at_jobs']} "
            f"{status} on {par['cpus']} cpu(s) ({scope})"
        )
        serve = document["serve"]
        status = "met" if serve["gate"]["met"] else "NOT met"
        print(
            f"serve replay: {serve['requests_per_sec']:.0f} req/s, "
            f"hit rate {serve['cache_hit_rate']:.2f} "
            f"(target >= {serve['gate']['target_hit_rate']}, {status}), "
            f"shed rate {serve['shed_rate']:.2f}, "
            f"p99 {serve['latency_ms']['p99']:.1f}ms"
        )
        prov = document["provenance_overhead"]
        for name, entry in sorted(prov["workloads"].items()):
            print(
                f"{name:28s} provenance overhead "
                f"on {100 * entry['on_overhead']:+.2f}% "
                f"({entry['events']} events)"
            )
        tree = prov.get("disabled_vs_tree")
        if tree is not None:
            for name, entry in sorted(tree["workloads"].items()):
                print(
                    f"{name:28s} disabled overhead vs pre tree "
                    f"{100 * entry['off_overhead']:+.2f}% "
                    f"(target <= {100 * prov['off_target']:.0f}%)"
                )
        telemetry = document.get("telemetry_overhead")
        if telemetry is not None:
            for name, entry in sorted(telemetry["workloads"].items()):
                gated = " [gated]" if name == telemetry["gate"]["workload"] else ""
                print(
                    f"{name:28s} telemetry-off overhead vs pre tree "
                    f"{100 * entry['off_overhead']:+.2f}%{gated}"
                )
            status = "met" if telemetry["gate"]["met"] else "NOT met"
            print(
                f"telemetry gate: <= {100 * telemetry['gate']['target']:.0f}% "
                f"on {telemetry['gate']['workload']} ({status})"
            )
        print(f"wrote {args.out}")
        return 0
    return compare(args.compare, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
