"""Provenance exporters: Chrome trace (Perfetto) and JSONL event journal.

Two serializations of a :class:`~repro.obs.provenance.ProvenanceRecorder`'s
derivation DAG:

* :func:`to_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev.  Events are grouped
  into named tracks by kind (propagation, matching, convergence,
  degradation, checkpointing) so a degraded run reads as a timeline:
  you can *see* the widen that preceded the match failure.  The
  ``args`` of every slice carry the event id, parents, node key and
  client delta, so the causal DAG survives the export.
* :func:`to_jsonl` / :func:`write_journal` — one event per line, the
  archival form, written fresh once per run; :func:`read_journal` parses
  it back.

:func:`chrome_trace` is the one Chrome-trace writer: it also builds the
stitched request traces of :func:`repro.obs.trace.stitch`.
:func:`validate_chrome_trace` is the structural schema check used by the
tests and the ``explain-smoke`` CI job — no Chrome required.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.obs.provenance import ProvenanceEvent, ProvenanceRecorder

#: event kind -> named track (Chrome trace "thread"); unknown kinds land
#: on the "other" track so the vocabulary stays open
KIND_TRACKS = {
    "run_start": "engine",
    "checkpoint_write": "checkpoint",
    "checkpoint_resume": "checkpoint",
    "checkpoint_rejected": "checkpoint",
    "entry": "propagate",
    "transfer": "propagate",
    "branch": "propagate",
    "buffer": "propagate",
    "split": "propagate",
    "merge": "propagate",
    "match": "matching",
    "match_attempt": "matching",
    "join": "convergence",
    "widen": "convergence",
    "giveup": "degradation",
    "client_fault": "degradation",
    "cfg_malformed": "degradation",
    "budget_trip": "degradation",
}

#: stable track order (tid assignment) for a readable Perfetto layout
TRACK_ORDER = (
    "engine",
    "propagate",
    "matching",
    "convergence",
    "degradation",
    "checkpoint",
    "other",
)

_EventsSource = Union[ProvenanceRecorder, Iterable[ProvenanceEvent]]


def _events_of(source: _EventsSource) -> List[ProvenanceEvent]:
    if isinstance(source, ProvenanceRecorder):
        return source.events()
    return list(source)


def chrome_trace(
    processes: Dict[int, tuple], slices: Iterable[tuple], other_data: Optional[dict] = None
) -> dict:
    """Build a Chrome Trace Event Format document: the one writer behind
    :func:`to_chrome_trace` and :func:`repro.obs.trace.stitch`.

    ``processes`` maps each Chrome pid to ``(process name, thread names)``
    with the thread names in tid order; ``slices`` yields ``(pid, tid,
    name, category, ts, dur, args)`` complete events with times in
    seconds.  Trace Event times are microseconds, and zero durations
    render invisibly, so instants get a 1us floor.
    """
    trace: List[dict] = []
    for pid, (process_name, threads) in processes.items():
        trace.append(
            {"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
             "args": {"name": process_name}}
        )
        trace.extend(
            {"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
             "args": {"name": thread}}
            for tid, thread in enumerate(threads)
        )
    for pid, tid, name, category, ts, dur, args in slices:
        trace.append(
            {"ph": "X", "pid": pid, "tid": tid, "name": name, "cat": category,
             "ts": ts * 1e6, "dur": max(dur * 1e6, 1.0), "args": args}
        )
    document = {"displayTimeUnit": "ms", "traceEvents": trace}
    if other_data:
        document["otherData"] = other_data
    return document


def to_chrome_trace(source: _EventsSource, process_name: str = "repro") -> dict:
    """Render provenance events as a Chrome trace, one track per kind."""
    tids = {name: index for index, name in enumerate(TRACK_ORDER)}

    def slices():
        for event in _events_of(source):
            track = KIND_TRACKS.get(event.kind, "other")
            args: Dict[str, object] = {"id": event.event_id, "step": event.step}
            if event.parents:
                args["parents"] = list(event.parents)
            if event.node_key is not None:
                args["node"] = [list(part) for part in event.node_key]
            if event.detail:
                args["detail"] = event.detail
            if event.data is not None:
                args["data"] = event.data
            yield 1, tids[track], event.kind, track, event.ts, event.dur, args

    return chrome_trace({1: (process_name, TRACK_ORDER)}, slices())


def write_chrome_trace(
    path, source: _EventsSource, process_name: str = "repro"
) -> Path:
    """Write :func:`to_chrome_trace` output as JSON; returns the path."""
    path = Path(path)
    document = to_chrome_trace(source, process_name=process_name)
    path.write_text(json.dumps(document, sort_keys=True), encoding="utf-8")
    return path


def validate_chrome_trace(document: object) -> None:
    """Structural schema check of a Chrome trace document.

    Raises ``ValueError`` naming the first violation; returning means the
    document is loadable by ``chrome://tracing`` / Perfetto (JSON object
    form, complete/metadata phases, finite non-negative timestamps).
    """
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty array")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            raise ValueError(f"{where} is not an object")
        phase = event.get("ph")
        if phase not in ("X", "M", "i", "B", "E", "C"):
            raise ValueError(f"{where} has unsupported phase {phase!r}")
        if not isinstance(event.get("name"), str) or not event["name"]:
            raise ValueError(f"{where} is missing a name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                raise ValueError(f"{where} is missing integer {key!r}")
        if phase == "X":
            for key in ("ts", "dur"):
                value = event.get(key)
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    raise ValueError(f"{where} has non-numeric {key!r}")
                if value < 0:
                    raise ValueError(f"{where} has negative {key!r}")
        if "args" in event and not isinstance(event["args"], dict):
            raise ValueError(f"{where} args must be an object")


def to_jsonl(source: _EventsSource) -> str:
    """The events as a JSONL journal (one JSON object per line)."""
    lines = [
        json.dumps(event.to_dict(), sort_keys=True)
        for event in _events_of(source)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def write_journal(path, source: _EventsSource) -> Path:
    """Write the JSONL event journal fresh; returns the path."""
    path = Path(path)
    path.write_text(to_jsonl(source), encoding="utf-8")
    return path


def read_journal(path) -> List[ProvenanceEvent]:
    """Parse a JSONL journal back into events (malformed lines skipped)."""
    events: List[ProvenanceEvent] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            document = json.loads(line)
        except ValueError:
            continue
        if not isinstance(document, dict):
            continue
        try:
            events.append(ProvenanceEvent.from_dict(document))
        except (ValueError, KeyError):
            continue
    return events
