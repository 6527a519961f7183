"""Span shards: the reading side of cross-process request tracing.

One analysis request crosses three process/thread boundaries before it
is answered: the HTTP handler thread, the daemon's job worker thread,
and the process-isolated attempt child.  Each binds the request's
trace into its :mod:`~repro.obs.context`, and every request-level
:func:`repro.obs.recorder.span` it runs lands as one line in a
per-process shard file ``<sink>/<trace_id>-<os_pid>.jsonl``.  This
module reads those shards back and stitches them into a single Chrome
trace (the ``repro trace <trace_id>`` command).

The stitcher assigns each OS pid a small integer Chrome pid (ordered by
first span start), maps thread idents to small tids, builds the
document with :func:`repro.obs.export.chrome_trace` (the same writer as
``repro explain --trace``) and validates it with
:func:`repro.obs.export.validate_chrome_trace`.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs import context
from repro.obs.export import chrome_trace, validate_chrome_trace


def current_trace_id() -> Optional[str]:
    """The trace id bound to the current thread, or None."""
    trace = context.current().trace
    return trace.trace_id if trace is not None else None


def load_spans(sink_dir, trace_id: str) -> List[dict]:
    """All intact span records of one trace across every process shard.

    Malformed lines (torn writes, partial shards) are skipped — the
    stitcher works with whatever survived, like every other recovery
    path in this codebase.
    """
    records: List[dict] = []
    root = Path(sink_dir)
    if not root.is_dir():
        return records
    for path in sorted(root.glob(f"{trace_id}-*.jsonl")):
        try:
            lines = path.read_text(encoding="utf-8", errors="replace").splitlines()
        except OSError:
            continue
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if not isinstance(record, dict) or record.get("trace") != trace_id:
                continue
            if not isinstance(record.get("name"), str) or not record["name"]:
                continue
            ts, dur = record.get("ts"), record.get("dur")
            if not isinstance(ts, (int, float)) or not math.isfinite(ts):
                continue
            if not isinstance(dur, (int, float)) or not math.isfinite(dur) or dur < 0:
                continue
            records.append(record)
    records.sort(key=lambda r: (r["ts"], str(r.get("span", ""))))
    return records


def stitch(sink_dir, trace_id: str) -> dict:
    """Stitch one trace's per-process span shards into a Chrome trace.

    Each OS process becomes a Chrome ``pid`` (small integers, ordered by
    first span start), each thread a ``tid`` within it; ``args`` carry
    the span/parent ids so the cross-process call tree survives the
    export.  The result passes :func:`validate_chrome_trace` or this
    raises ``ValueError``.
    """
    records = load_spans(sink_dir, trace_id)
    if not records:
        raise ValueError(
            f"no span shards for trace {trace_id!r} under {sink_dir}"
        )
    by_pid: Dict[int, List[dict]] = {}
    for record in records:
        pid = record.get("pid")
        by_pid.setdefault(pid if isinstance(pid, int) else 0, []).append(record)
    ordered = sorted(by_pid, key=lambda pid: (min(r["ts"] for r in by_pid[pid]), pid))
    base_ts = min(record["ts"] for record in records)
    processes: Dict[int, tuple] = {}
    slices: List[tuple] = []
    for chrome_pid, os_pid in enumerate(ordered, start=1):
        group = by_pid[os_pid]
        proc = next(
            (r["proc"] for r in group if isinstance(r.get("proc"), str) and r["proc"]),
            "repro",
        )
        tids: Dict[object, int] = {}
        for record in group:
            tid = tids.setdefault(record.get("tid"), len(tids))
            args: Dict[str, object] = {
                "trace": record["trace"],
                "span": record.get("span"),
            }
            if record.get("parent"):
                args["parent"] = record["parent"]
            data = record.get("data")
            if isinstance(data, dict) and data:
                args["data"] = data
            slices.append((chrome_pid, tid, record["name"], "trace",
                           record["ts"] - base_ts, record["dur"], args))
        processes[chrome_pid] = (
            f"{proc} (pid {os_pid})", [f"thread {index}" for index in range(len(tids))]
        )
    document = chrome_trace(
        processes, slices, {"trace_id": trace_id, "processes": len(ordered)}
    )
    validate_chrome_trace(document)
    return document
