"""``paper_cold``: the 18 paper programs, answered in-process.

Each answer is computed with ``driver.analyze_with_fallback`` after
clearing the process-wide memos, as a fresh ``repro analyze`` would.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter, process_time, thread_time

from calibrate import ScaledSamples
from common import (
    TAIL_SAMPLES,
    Answer,
    inputs_digest,
    measure_setup,
    metric,
    peak_rss_mb,
    percentile,
    probe_reading,
    ready,
    reset_memos,
    tail,
    typical,
    write_json,
)
from inputs import paper_items, presentation_order
from layers import (
    SERVE_LAYERS,
    RecorderTotals,
    analysis_layers,
    ledger_rows,
    ledger_shares,
)
from ledger import (
    Ledger,
    Patches,
    recorder_self_times,
    timed_ladder,
    with_self_times,
)
from oracle import Tally


def setup(seed: int) -> list:
    """Imports plus the input set, in presentation order."""
    import repro.analyses.cartesian  # noqa: F401 - rungs import these lazily
    import repro.analyses.simple_symbolic  # noqa: F401
    import repro.baselines.mpi_cfg  # noqa: F401
    import repro.core.driver  # noqa: F401

    return presentation_order(paper_items(), seed)


def probe(workload: str, seed: int) -> None:
    before, cost = probe_reading()
    setup(seed)
    ready(process_time() - cost, before)


def _paper_pass(items):
    """Yields (item, answer, CPU seconds) per answer; the caller's work
    between two answers is not timed."""
    from repro.core.driver import analyze_with_fallback
    from repro.lang import parse

    for item in items:
        _clean_slate()
        began = thread_time()
        report = analyze_with_fallback(parse(item.source))
        elapsed = thread_time() - began
        yield item, Answer.from_report(report), elapsed


def _clean_slate() -> None:
    """Cleared memos and a collected heap, as at the start of a process."""
    reset_memos()
    gc.collect()


def timed(workload: str, seed: int, seconds: float) -> dict:
    setup_s = measure_setup(workload, seed)
    items = setup(seed)
    # at least enough that the p90 has TAIL_SAMPLES answers beyond it
    min_passes = math.ceil(TAIL_SAMPLES / 0.1 / len(items))
    tally, scaled, measured, passes = Tally(), ScaledSamples(), 0.0, 0
    while passes < min_passes or measured < seconds:
        for item, answer, elapsed in _paper_pass(items):
            tally.add(item.name, answer)
            scaled.add(item.name, elapsed)
            measured += elapsed
        passes += 1
    rss = peak_rss_mb()
    summary = tally.check(items)
    summary.update(inputs=inputs_digest(items), passes=passes)
    latencies = typical(scaled.samples)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "answers_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "answer_p50_ms": metric(percentile(latencies, 0.5) * 1000.0, "ms"),
        "answer_p90_ms": metric(tail(latencies, 0.9, passes) * 1000.0, "ms"),
        "exact_share": metric(summary["exact_share"], "share"),
        "confirmed_edge_share": metric(summary["confirmed_edge_share"], "share"),
        "ok_share": metric(summary["ok_share"], "share"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    return {"summary": summary, "metrics": metrics}


def _traced_pass(items):
    """One pass with every layer boundary spanned and the recorder on."""
    from repro.core.driver import analyze_with_fallback
    from repro.lang import parse
    from repro.obs import recorder as obs

    ledger = Ledger()
    per_answer = {}
    answers = []
    with obs.recording() as recorder, Patches(ledger) as patches:
        patches.wrap_lang()
        ladder = timed_ladder(ledger, recorder)
        start = perf_counter()
        for index, item in enumerate(items):
            ledger.answer = None
            with ledger.span("harness.clean_slate"):
                _clean_slate()
            ledger.answer = index
            before = recorder_self_times(recorder)
            cpu = thread_time()
            with ledger.span("answer", program=item.name) as record:
                with ledger.span("lang.parse"):
                    program = parse(item.source)
                report = analyze_with_fallback(program, ladder=ladder)
            per_answer[index] = _delta(before, recorder_self_times(recorder))
            record.update(rung=report.rung_name, confidence=report.result.confidence,
                          cpu=thread_time() - cpu)
            answers.append((item, Answer.from_report(report)))
        wall = perf_counter() - start
    totals = RecorderTotals()
    totals.add_recorder(recorder)
    return ledger, totals, per_answer, answers, wall


def _delta(before: dict, after: dict) -> dict:
    return {name: after[name] - before.get(name, 0.0) for name in after}


def traced(workload: str, seed: int) -> dict:
    items = setup(seed)
    untraced = list(_paper_pass(items))
    ledger, totals, per_answer, answers, wall = _traced_pass(items)
    tally = Tally()
    for item, answer, _ in untraced:
        tally.add(item.name, answer)
    for item, answer in answers:
        tally.add(item.name, answer)
    summary = tally.check(items)
    summary.update(inputs=inputs_digest(items), passes=2)

    spans = ledger.spans
    with_self_times(spans)
    metrics = analysis_layers(spans, totals, len(items))
    metrics.update({name: metric(0.0, unit) for name, unit in SERVE_LAYERS.items()})
    answer_cpu = sum(s["cpu"] for s in spans if s["name"] == "answer")
    untraced_cpu = sum(elapsed for _, _, elapsed in untraced)
    metrics.update(ledger_shares(wall, spans, totals, answer_cpu, untraced_cpu))
    write_json(f"{workload}-ledger.json", {
        "inputs": inputs_digest(items),
        "wall_s": wall,
        "answer_cpu_s": answer_cpu,
        "untraced_answer_cpu_s": untraced_cpu,
        "rows": ledger_rows(spans, per_answer),
        "counters": dict(sorted(totals.counters.items())),
        "spans": spans,
    })
    return {"summary": summary, "metrics": metrics}
