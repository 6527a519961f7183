"""Structured logging: engine events mirrored to stderr as single-line JSON.

Replaces ad-hoc prints for operational visibility: when enabled (CLI
``--log-level`` or the ``REPRO_LOG`` environment variable), the engine,
driver and flight recorder mirror noteworthy events to stderr, one JSON
object per line, machine-parseable by any log pipeline::

    {"ts": 1723.512, "level": "warning", "event": "engine.budget_trip", ...}

Levels are the conventional ``debug < info < warning < error``.  Disabled
(the default) costs one integer comparison per call site; callers emitting
expensive payloads should pre-check :func:`enabled_for`.  A line written
under a bound trace (:mod:`repro.obs.context`) carries its ``trace`` and
``span`` ids; explicit fields win on clash.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Any, Optional

from repro.obs import context

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: disabled sentinel: above every real level
_OFF = 100

_threshold = _OFF

#: environment knob mirrored by the CLI's ``--log-level``
ENV_VAR = "REPRO_LOG"


def configure(level: Optional[str]) -> None:
    """Set the logging threshold; None/""/"off" disables."""
    global _threshold
    if not level or level.lower() in ("off", "none"):
        _threshold = _OFF
        return
    name = level.lower()
    if name not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r} (choose from {sorted(LEVELS)} or 'off')"
        )
    _threshold = LEVELS[name]


def configure_from_env() -> None:
    """Apply ``REPRO_LOG`` if set (invalid values disable, never crash)."""
    value = os.environ.get(ENV_VAR)
    if value is None:
        return
    try:
        configure(value)
    except ValueError:
        print(
            json.dumps({"level": "error", "event": "slog.bad_level", "value": value}),
            file=sys.stderr,
        )


def enabled_for(level: str) -> bool:
    """True when a record at ``level`` would be written."""
    return LEVELS.get(level, _OFF) >= _threshold


def log(level: str, event: str, **fields: Any) -> None:
    """Write one single-line JSON record to stderr (no-op below threshold)."""
    if LEVELS.get(level, _OFF) < _threshold:
        return
    record = {"ts": round(time.time(), 6), "level": level, "event": event}
    trace = context.current().trace
    if trace is not None:
        record["trace"] = trace.trace_id
        record["span"] = trace.span_id
    for key, value in fields.items():
        if value is not None:
            record[key] = value
    print(json.dumps(record, sort_keys=True, default=str), file=sys.stderr)


def debug(event: str, **fields: Any) -> None:
    log("debug", event, **fields)


def info(event: str, **fields: Any) -> None:
    log("info", event, **fields)


def warning(event: str, **fields: Any) -> None:
    log("warning", event, **fields)


def error(event: str, **fields: Any) -> None:
    log("error", event, **fields)
