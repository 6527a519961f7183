"""repro.obs — observability for the pCFG engine.

Hierarchical span tracing, typed counters/histograms, and a Section IX
profile exporter.  Disabled by default at zero cost; enable with::

    from repro import obs

    recorder = obs.enable()
    ...run an analysis...
    print(recorder.snapshot())

or profile a whole run in one call::

    from repro.obs import profile_program

    profile, result = profile_program(programs.get("exchange_with_root"))
    print(profile.table())          # Section IX-style cost table
    profile.to_json()               # the CI build artifact

The CLI equivalent is ``python -m repro profile <program>``.

:func:`span` is the only span call.  Where it reports is decided by the
thread's :mod:`repro.obs.context`, one per-thread context carrying the
trace ids, the job's private recorder and the progress hook, bound once
at each boundary a request crosses (HTTP admission, the daemon job
thread, the attempt child, the driver rung).  Request-level spans
(``http.*``, ``serve.*``, ``driver.rung.*``) under a trace also land in
per-process span shards, which :mod:`repro.obs.trace` stitches back into
one Chrome trace.

The same context carries the causal flight recorder behind ``repro
explain``, its one exporter (:mod:`repro.obs.provenance`;
``provenance.recording()`` binds one, holding one whole run), and the constraint graph's closure and copy-on-write events are
plain ``cgraph.*`` counters, histograms and spans on the recorder, from
which :func:`repro.obs.profile.closure_summary` builds the Section IX
closure block.  One sink stands on its own: :mod:`repro.obs.slog`
(structured JSON logging to stderr, the ``--log-level`` / ``REPRO_LOG``
knob, which stamps lines with the context's trace ids).  Both Chrome
traces, ``repro explain --trace`` and ``repro trace``, come from the one
writer in :mod:`repro.obs.export`.
"""

from repro.obs import context, export, metrics, provenance, slog, trace
from repro.obs.profile import SPAN_CATEGORIES, Profile, build_profile, profile_program
from repro.obs.provenance import ProvenanceEvent, ProvenanceRecorder
from repro.obs.recorder import (
    HistogramStats,
    NullRecorder,
    Recorder,
    SpanStats,
    active_recorder,
    disable,
    enable,
    enabled,
    incr,
    observe,
    recording,
    reset,
    span,
)

__all__ = [
    "HistogramStats",
    "NullRecorder",
    "Profile",
    "ProvenanceEvent",
    "ProvenanceRecorder",
    "Recorder",
    "SPAN_CATEGORIES",
    "SpanStats",
    "active_recorder",
    "build_profile",
    "context",
    "disable",
    "enable",
    "enabled",
    "export",
    "incr",
    "metrics",
    "observe",
    "profile_program",
    "provenance",
    "recording",
    "reset",
    "slog",
    "span",
    "trace",
]
