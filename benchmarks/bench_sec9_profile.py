"""E8 — Section IX: the performance profile of the fan-out broadcast analysis.

The paper reports, for its fan-out broadcast sample: 381 s total on a 2.8 GHz
Opteron, 92.5% of it inside constraint-graph consistency maintenance — 217
O(n^3) transitive closures (avg 52.3 variables) plus 78 O(n^2) incremental
closures (avg 66.3 variables).

We reproduce the profile twice:

* **naive mode** — the constraint graph is re-closed before every query,
  like the paper's prototype: closure dominates (~88% of time), closure
  counts are in the thousands.  This is the Section IX *shape*, and the
  corpus aggregate (E8b) checks its counts against the paper's range.
* **optimized mode** (this library's default) — closedness tracking, the
  O(n^2) incremental closure and closed-form updates that keep a closed
  graph closed, i.e. the remediation the paper's Section IX development
  list proposes carried to its end: each analysis runs one full closure,
  on its initial state, and the analysis gets an order of magnitude
  faster, validating the paper's optimization plan.
"""

import time
from pathlib import Path

from benchmarks.conftest import header
from repro import analyze, programs
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.obs import Profile, build_profile, profile_program, recording


def _profiled_run(naive: bool) -> Profile:
    """One profiled analysis of the fan-out broadcast, via the obs layer.

    Returns the :class:`Profile` the ``repro profile`` CLI would produce;
    its closure accessors feed the table below.
    """
    profile, result = profile_program(programs.get("broadcast_fanout"), naive=naive)
    assert not result.gave_up
    return profile


def test_sec9_closure_profile(benchmark, emit):
    naive = _profiled_run(naive=True)
    optimized = benchmark(lambda: _profiled_run(naive=False))

    # The CI artifact: the same JSON document `repro profile` writes.
    out = Path("profile.json")
    out.write_text(optimized.to_json())
    assert Profile.from_json(out.read_text()).full_calls == optimized.full_calls

    rows = [header("E8 / Sec. IX — fan-out broadcast analysis profile")]
    rows.append(
        f"{'quantity':36s} {'paper':>10} {'naive':>12} {'optimized':>12}"
    )
    rows.append(
        f"{'total analysis time':36s} {'381 s':>10} "
        f"{naive.total_time:>11.3f}s {optimized.total_time:>11.3f}s"
    )
    rows.append(
        f"{'closure share of total time':36s} {'92.5%':>10} "
        f"{100 * naive.closure_share():>11.1f}% "
        f"{100 * optimized.closure_share():>11.1f}%"
    )
    rows.append(
        f"{'O(n^3) closure calls':36s} {'217':>10} "
        f"{naive.full_calls:>12} {optimized.full_calls:>12}"
    )
    rows.append(
        f"{'avg vars per O(n^3) closure':36s} {'52.3':>10} "
        f"{naive.avg_full_vars():>12.1f} {optimized.avg_full_vars():>12.1f}"
    )
    rows.append(
        f"{'O(n^2) incremental closure calls':36s} {'78':>10} "
        f"{naive.incremental_calls:>12} {optimized.incremental_calls:>12}"
    )
    speedup = naive.total_time / max(optimized.total_time, 1e-9)
    rows.append(
        f"paper shape: closure dominates the naive prototype "
        f"({100 * naive.closure_share():.0f}% vs paper's 92.5%) and the "
        f"paper's proposed optimizations buy {speedup:.1f}x  -- reproduced"
    )
    emit(*rows)
    assert naive.closure_share() > 0.6
    assert optimized.closure_share() < naive.closure_share()
    assert naive.full_calls > 200


def test_sec9_corpus_aggregate(emit):
    """Aggregate closure counts over the simple corpus.  The naive mode (the
    paper prototype's closure discipline) lands in the paper's reported
    range, hundreds of closures over tens of variables; the optimized mode
    runs at most one full closure per program."""
    names = [
        "pingpong", "broadcast_fanout", "gather_to_root", "scatter_from_root",
        "exchange_with_root", "shift_right", "pipeline_stages",
        "ring_shift_nowrap", "master_worker", "mdcask_full",
        "neighbor_exchange_1d",
    ]
    modes = {}
    for naive in (True, False):
        with recording() as recorder:
            start = time.perf_counter()
            for name in names:
                client = SimpleSymbolicClient(naive_closure=naive)
                result, _, _ = analyze(programs.get(name), client)
                assert not result.gave_up, name
            total = time.perf_counter() - start
        mode = "naive" if naive else "optimized"
        modes[naive] = build_profile("corpus", mode, total, recorder)
    naive, optimized = modes[True], modes[False]
    emit(
        header("E8b — corpus-aggregate closure counts"),
        f"naive O(n^3) closures: {naive.full_calls} (paper: 217), "
        f"avg {naive.avg_full_vars():.1f} vars (paper: 52.3)",
        f"naive O(n^2) closures: {naive.incremental_calls} (paper: 78), "
        f"avg {naive.avg_incremental_vars():.1f} vars (paper: 66.3)",
        f"optimized O(n^3) closures: {optimized.full_calls}, "
        f"avg {optimized.avg_full_vars():.1f} vars; "
        f"O(n^2) and closed-form updates: {optimized.incremental_calls}",
    )
    assert naive.full_calls > 100
    assert 5 <= naive.avg_full_vars() <= 80
    assert optimized.full_calls <= len(names)
