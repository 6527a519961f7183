"""Section IX profile export: one JSON document plus a human-readable table.

The paper's Section IX attributes 92.5% of analysis time to constraint-graph
consistency maintenance.  :func:`profile_program` re-measures that cost
profile on any program: it runs the simple symbolic analysis under a fresh
:class:`~repro.obs.recorder.Recorder`, then folds the span/counter/histogram
aggregates into a :class:`Profile` whose ``closure`` block
(:func:`closure_summary`) is read off the ``cgraph.closure.*`` and
``cgraph.cow.*`` instruments the constraint graph reports to.  The profile

* prints a Section IX-style cost table (:meth:`Profile.table`), ending
  with the closure block's report text, and
* serializes to JSON (:meth:`Profile.to_json`) for the CI build artifact
  and for ``benchmarks/bench_sec9_profile.py``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Any, Dict, Optional

from repro.obs.recorder import Recorder, recording

#: span-name prefix -> the paper's Section IX cost category it reproduces
SPAN_CATEGORIES = {
    "cgraph.closure.full": "O(n^3) transitive closure (Sec. IX dominant cost)",
    "cgraph.closure.incremental": "O(n^2) incremental closure",
    "engine.match": "send-receive matching (matchSendsRecvs)",
    "engine.transfer": "client transfer functions",
    "engine.branch": "branch evaluation / process-set splits",
    "engine.canonicalize": "configuration canonicalization",
    "engine.join": "state join at pCFG nodes",
    "engine.widen": "loop widening",
    "hsm.prove": "HSM equality proofs (Sec. VIII-B)",
    "sweep.analyze": "corpus sweep: analyzer leg (fallback ladder)",
    "sweep.oracle": "corpus sweep: concrete interpreter oracle",
    "sweep.run": "corpus sweep: whole-tier wall clock",
}


@dataclass
class Profile:
    """One analysis run's complete cost profile (JSON-plain fields only)."""

    program: str
    mode: str  # "optimized" (default closure strategy) or "naive"
    total_time: float
    closure: Dict[str, Any] = field(default_factory=dict)
    spans: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, Any] = field(default_factory=dict)
    histograms: Dict[str, Any] = field(default_factory=dict)
    engine: Dict[str, Any] = field(default_factory=dict)

    # -- closure accessors (the benches read these) --------------------------

    @property
    def full_calls(self) -> int:
        return self.closure.get("full_calls", 0)

    @property
    def incremental_calls(self) -> int:
        return self.closure.get("incremental_calls", 0)

    def avg_full_vars(self) -> float:
        return self.closure.get("avg_full_vars", 0.0)

    def avg_incremental_vars(self) -> float:
        return self.closure.get("avg_incremental_vars", 0.0)

    def closure_share(self) -> float:
        return self.closure.get("share", 0.0)

    # -- serialization -------------------------------------------------------

    def to_json(self, indent: int = 2) -> str:
        """The profile as a JSON document (round-trips via ``from_json``)."""
        return json.dumps(asdict(self), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Profile":
        return cls(**json.loads(text))

    # -- presentation --------------------------------------------------------

    def table(self) -> str:
        """A Section IX-style cost table.

        The per-phase rows come from the span aggregates; the closing
        closure-share block is ``closure["report"]`` verbatim, read off the
        same recorder.
        """
        title = f"Section IX cost profile — {self.program} ({self.mode})"
        bar = "=" * len(title)
        lines = [bar, title, bar]
        engine = self.engine
        if engine:
            lines.append(
                f"total {self.total_time:.4f}s | engine steps {engine.get('steps', 0)} | "
                f"pCFG nodes {engine.get('pcfg_nodes', 0)} | "
                f"matches {engine.get('matches', 0)}"
            )
        lines.append("")
        lines.append(
            f"{'phase':32s} {'calls':>8} {'total(s)':>10} {'self(s)':>10} {'share':>7}"
        )
        ordered = sorted(
            self.spans.items(), key=lambda kv: kv[1]["total_time"], reverse=True
        )
        for name, stats in ordered:
            share = stats["total_time"] / self.total_time if self.total_time else 0.0
            lines.append(
                f"{name:32s} {stats['count']:>8} {stats['total_time']:>10.4f} "
                f"{stats['self_time']:>10.4f} {100 * share:>6.1f}%"
            )
        interesting = [
            (name, count)
            for name, count in sorted(self.counters.items())
            if not name.endswith(".calls")
        ]
        if interesting:
            lines.append("")
            lines.append("counters:")
            for name, count in interesting:
                lines.append(f"  {name:30s} {count:>8}")
        report = self.closure.get("report")
        if report:
            lines.append("")
            lines.append(report)
        return "\n".join(lines)


def closure_summary(snapshot: Dict[str, dict], total_time: float) -> Dict[str, Any]:
    """The Section IX closure block of a recorder snapshot.

    Calls come from the ``cgraph.closure.{full,incremental}.calls``
    counters, average variable counts from the ``.vars`` histograms, and
    seconds from the ``.time`` histograms (the durations of the
    ``cgraph.closure.*`` spans).  ``share`` is closure time over
    ``total_time``; ``report`` renders the block as text.
    """
    counters, histograms = snapshot["counters"], snapshot["histograms"]

    def histogram(name: str, key: str) -> float:
        found = histograms.get(f"cgraph.closure.{name}")
        return found[key] if found else 0.0

    closure: Dict[str, Any] = {}
    for kind in ("full", "incremental"):
        closure[f"{kind}_calls"] = counters.get(f"cgraph.closure.{kind}.calls", 0)
        closure[f"{kind}_time"] = histogram(f"{kind}.time", "total")
        closure[f"avg_{kind}_vars"] = histogram(f"{kind}.vars", "mean")
    closure_time = closure["full_time"] + closure["incremental_time"]
    closure["closure_time"] = closure_time
    closure["share"] = min(1.0, closure_time / total_time) if total_time > 0 else 0.0
    lines = [
        f"full closures (O(n^3)):        {closure['full_calls']} calls, "
        f"avg {closure['avg_full_vars']:.1f} vars, {closure['full_time']:.4f}s",
        f"incremental closures (O(n^2)): {closure['incremental_calls']} calls, "
        f"avg {closure['avg_incremental_vars']:.1f} vars, "
        f"{closure['incremental_time']:.4f}s",
    ]
    shares = counters.get("cgraph.cow.shares", 0)
    if shares:
        materializations = counters.get("cgraph.cow.materializations", 0)
        lines.append(f"COW shares/materializations:   {shares}/{materializations}")
    if total_time > 0:
        lines.append(
            f"closure share of total time:   {100 * closure['share']:.1f}% "
            f"({closure_time:.4f}s of {total_time:.4f}s)"
        )
    closure["report"] = "\n".join(lines)
    return closure


def build_profile(
    program: str,
    mode: str,
    total_time: float,
    recorder: Recorder,
    result=None,
) -> Profile:
    """Fold a recorder's aggregates (+ the engine result) into a profile."""
    snapshot = recorder.snapshot()
    engine: Dict[str, Any] = {}
    if result is not None:
        engine = {
            "steps": result.steps,
            "gave_up": result.gave_up,
            "give_up_reason": result.give_up_reason,
            "confidence": result.confidence,
            "diagnostics": [
                {"code": diag.code, "severity": diag.severity,
                 "message": diag.message}
                for diag in result.diagnostics
            ],
            "pcfg_nodes": result.explored.node_count(),
            "pcfg_edges": result.explored.edge_count(),
            "matches": len(result.match_records),
        }
    return Profile(
        program=program,
        mode=mode,
        total_time=total_time,
        closure=closure_summary(snapshot, total_time),
        spans=snapshot["spans"],
        counters=snapshot["counters"],
        histograms=snapshot["histograms"],
        engine=engine,
    )


def profile_program(
    program_or_spec,
    *,
    name: Optional[str] = None,
    naive: bool = False,
    client=None,
):
    """Profile one simple-symbolic analysis run end to end.

    Returns ``(profile, result)``.  A dedicated recorder is installed for
    the duration of the run (the caller's enable/disable state is
    untouched), so the profile counts exactly this run's closures.
    """
    from repro.analyses.simple_symbolic import SimpleSymbolicClient, analyze_program

    if client is None:
        client = SimpleSymbolicClient(naive_closure=naive)
    with recording() as recorder:
        start = perf_counter()
        result, _cfg, _client = analyze_program(program_or_spec, client)
        total = perf_counter() - start
    label = name or getattr(program_or_spec, "name", None) or "<program>"
    mode = "naive" if naive else "optimized"
    return build_profile(label, mode, total, recorder, result), result
