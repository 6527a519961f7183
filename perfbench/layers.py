"""Per-layer metrics from a traced pass: the ledger's spans plus the
program's recorder (span self times, span counts and counters).

Unless its name says otherwise, a ``_ms`` metric is self time per answer
(the layer's total over the pass divided by the answers given), so the
stage times of a workload add up to its answer time.  Counts are totals
over one traced pass of the fixed input set and repeat exactly.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean
from typing import Dict, List

from common import metric
from ledger import duration, recorder_self_times

RUNGS = ("cartesian", "cartesian-escalated", "simple-symbolic", "mpi-cfg")

#: the ``repro.serve`` layer's metrics and units (``service._serve_layers``);
#: ``paper_cold`` never enters that layer and reports each as 0
SERVE_LAYERS = {
    "serve.admission_ms": "ms",
    "serve.fingerprint_ms": "ms",
    "serve.cache.lookup_ms": "ms",
    "serve.cache.store_ms": "ms",
    "serve.http_ms": "ms",
    "serve.journal.append_ms": "ms",
    "serve.journal.appends_per_miss": "count",
    "serve.attempt_ms": "ms",
    "serve.isolation_ms": "ms",
}

#: recorder span -> per-layer time metric
RECORDER_TIMES = {
    "engine.match": "engine.match_ms",
    "engine.canonicalize": "engine.canonicalize_ms",
    "engine.branch": "engine.branch_ms",
    "engine.widen": "engine.widen_ms",
    "client.join": "client.join_ms",
    "client.transfer": "client.transfer_ms",
    "hsm.prove": "hsm.prove_ms",
}


class RecorderTotals:
    """Recorder span self times, span counts and counters, summed over
    the processes that recorded them."""

    def __init__(self) -> None:
        self.self_times: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, int] = defaultdict(int)

    def add_recorder(self, recorder) -> None:
        for name, seconds in recorder_self_times(recorder).items():
            self.self_times[name] += seconds
        for name, stats in recorder.spans.items():
            self.counts[name] += stats.count
        for name, value in recorder.counters.items():
            self.counters[name] += value

    def add_dump(self, document: dict) -> None:
        """A child's dump (see ``traced_daemon.dump``); counters excluded,
        they reach the daemon's ``/metrics`` instead."""
        for name, seconds in document.get("self", {}).items():
            self.self_times[name] += seconds
        for name, count in document.get("count", {}).items():
            self.counts[name] += count

    def share(self, part: str, *rest: str) -> float:
        """``part / (part + rest...)``, 0 when nothing happened."""
        whole = self.counters[part] + sum(self.counters[name] for name in rest)
        return self.counters[part] / whole if whole else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def analysis_layers(spans: List[dict], totals: RecorderTotals, answers: int) -> Dict[str, dict]:
    """lang, driver, engine, client, cgraph and hsm metrics."""
    by_name: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def per_answer_ms(seconds: float) -> float:
        return seconds * 1000.0 / answers

    out = {
        "lang.parse_ms": metric(per_answer_ms(sum(s["self"] for s in by_name["lang.parse"])), "ms"),
        "lang.build_cfg_ms": metric(
            per_answer_ms(sum(s["self"] for s in by_name["lang.build_cfg"])), "ms"),
        "lang.cfg_nodes": metric(sum(s["nodes"] for s in by_name["lang.build_cfg"]), "count"),
    }
    rungs = [s for s in spans if s["name"].startswith("driver.rung.")]
    out["driver.rungs_per_answer"] = metric(len(rungs) / answers, "rungs")
    for name in RUNGS:
        out[f"driver.rung.{name}_ms"] = metric(
            per_answer_ms(sum(duration(s) for s in by_name[f"driver.rung.{name}"])), "ms")
    # every rung of a ladder but its last (the one that answered) is waste
    ladders: Dict[object, List[dict]] = defaultdict(list)
    for span in rungs:
        ladders[(span["pid"], span["parent"], span["answer"])].append(span)
    wasted = sum(
        duration(s)
        for climb in ladders.values()
        for s in sorted(climb, key=lambda s: s["start"])[:-1]
    )
    out["driver.wasted_rung_share"] = metric(
        _ratio(wasted, sum(duration(s) for s in rungs)), "share")

    counters = totals.counters
    steps = counters["engine.steps"]
    out["engine.steps"] = metric(steps, "count")
    for span_name, metric_name in RECORDER_TIMES.items():
        out[metric_name] = metric(per_answer_ms(totals.self_times[span_name]), "ms")
    out["engine.match.success_share"] = metric(
        _ratio(counters["engine.matches"], counters["engine.match.attempts"]), "share")
    out["engine.canonicalize_per_step"] = metric(
        _ratio(totals.counts["engine.canonicalize"], steps), "ratio")
    out["engine.intern.hit_share"] = metric(
        totals.share("engine.intern.hits", "engine.intern.misses"), "share")
    out["engine.worklist.dedup"] = metric(counters["engine.worklist.dedup"], "count")
    out["client.match.world_splits"] = metric(counters["client.match.world_splits"], "count")
    out["cgraph.closure.cache_hit_share"] = metric(
        totals.share("cgraph.closure.cache_hits", "cgraph.closure.full.calls",
                     "cgraph.closure.incremental.calls"), "share")
    out["cgraph.cow.materializations"] = metric(
        counters["cgraph.cow.materializations"], "count")
    out["hsm.prove.cache_hit_share"] = metric(
        totals.share("hsm.prove.cache_hits", "hsm.proof.attempts"), "share")
    return out


def ledger_rows(spans: List[dict], totals_by_answer: Dict[object, Dict[str, float]]) -> list:
    """One row per answer: its wall and CPU ms and each stage's self ms."""
    rows: Dict[object, dict] = {}
    for span in spans:
        row = rows.setdefault(span["answer"], {"answer": span["answer"], "stages_ms": {}})
        if span["name"] == "answer":
            row["answer_ms"] = duration(span) * 1000.0
            row["answer_cpu_ms"] = span["cpu"] * 1000.0
            row.update({k: v for k, v in span.items() if k in ("program", "rung", "confidence")})
        stage = "driver.ladder" if span["name"] == "answer" else span["name"]
        stages = row["stages_ms"]
        stages[stage] = stages.get(stage, 0.0) + span["self"] * 1000.0
    for answer, self_times in totals_by_answer.items():
        stages = rows[answer]["stages_ms"]
        for name, seconds in self_times.items():
            if seconds:
                stages[name] = stages.get(name, 0.0) + seconds * 1000.0
    return [rows[key] for key in rows if key is not None]


def ledger_shares(wall: float, spans: List[dict], totals: RecorderTotals,
                  traced: float, untraced: float) -> Dict[str, dict]:
    """The wall time no stage's self time covers, and the tracing cost
    (traced over untraced answering time)."""
    stages = sum(s["self"] for s in spans) + sum(totals.self_times.values())
    return {
        "ledger.unattributed_share": metric((wall - stages) / wall, "share"),
        "trace.overhead_share": metric(traced / untraced - 1.0, "share"),
    }


def mean_ms(values: List[float]) -> float:
    return fmean(values) * 1000.0 if values else 0.0
