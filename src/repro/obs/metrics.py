"""Prometheus text exposition for the analysis service (stdlib only).

:func:`render` turns the process's live telemetry into the Prometheus
text format, version 0.0.4 — the lingua franca every scraper speaks —
without importing any client library:

* **obs recorder counters** become per-name counter families
  (``engine.steps`` -> ``repro_engine_steps_total``), so the worker
  counters the daemon merges home via ``merge_counters`` are
  scrapeable instead of dying with the worker;
* **obs recorder histograms** become summary families (quantiles from
  the shared nearest-rank :func:`repro.obs.recorder.percentile`, plus
  ``_count``/``_sum``).  Names carrying a trailing dimension — the
  RED-style ``serve.http.latency_ms.<endpoint>`` and
  ``serve.tenant.latency_ms.<tenant>`` series — are folded into one
  family with a proper label instead of exploding the namespace;
* **service gauges** (queue depth/capacity, jobs, draining, cache
  resident/disk entries) come from the live
  :class:`~repro.serve.daemon.AnalysisService` when one is passed;
* **fault-plane trip counts** are exported whenever a schedule is
  engaged, so a `repro faults` run can watch itself misbehave.

The render is defensive by contract: :func:`render` itself may raise
(it honors the ``metrics.render.fail`` injection point precisely so the
harness can prove the daemon survives), but the HTTP handler catches
everything and answers with :func:`fallback_exposition` — minimal,
always-parseable text — because a monitoring endpoint that can take the
service down inverts its purpose.

:func:`parse_exposition` / :func:`validate_exposition` are the
structural checks used by the tests, the ``telemetry-smoke`` CI job and
the fault harness; like :func:`~repro.obs.export.validate_chrome_trace`
they need no external tooling.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Optional, Tuple

from repro.faults import plane as faults
from repro.obs import recorder as obs
from repro.obs.recorder import percentile

#: content type a compliant scraper expects from /metrics
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: quantile points of every summary family (the shared nearest-rank
#: estimator; p95 exists for the load generator's summary)
QUANTILES = (0.5, 0.9, 0.95, 0.99)

#: dotted-name prefixes whose final segment is a label, not part of the
#: metric name: (prefix, family name, label key)
_LABELED_HISTOGRAMS = (
    ("serve.http.latency_ms.", "repro_serve_http_latency_ms", "endpoint"),
    ("serve.tenant.latency_ms.", "repro_serve_tenant_latency_ms", "tenant"),
)

#: counter prefixes carrying trailing labels: (prefix, family, label keys);
#: the request counter ends in ``.<endpoint>.<code>``
_LABELED_COUNTERS = (
    ("serve.http.requests.", "repro_serve_http_requests_total", ("endpoint", "code")),
)

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9eE.+-]+|NaN|[+-]Inf)$"
)


def _mangle(name: str) -> str:
    """A dotted obs name as a legal Prometheus metric name."""
    return "repro_" + re.sub(r"[^a-zA-Z0-9_]", "_", name).strip("_")


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value != value or value in (math.inf, -math.inf):
        return "0"
    return repr(float(value))


class _Family:
    """One metric family: TYPE/HELP header plus its samples."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.samples: List[Tuple[str, Dict[str, object], float]] = []

    def add(self, value, labels: Optional[Dict[str, object]] = None, suffix: str = ""):
        self.samples.append((suffix, dict(labels or {}), value))

    def lines(self) -> List[str]:
        out = [
            f"# HELP {self.name} {_escape(self.help)}",
            f"# TYPE {self.name} {self.kind}",
        ]
        for suffix, labels, value in self.samples:
            label_text = ""
            if labels:
                inner = ",".join(
                    f'{key}="{_escape(val)}"' for key, val in sorted(labels.items())
                )
                label_text = "{" + inner + "}"
            out.append(f"{self.name}{suffix}{label_text} {_fmt(value)}")
        return out


def _counter_families(counters: Dict[str, int]) -> List[_Family]:
    labeled: Dict[str, _Family] = {}
    plain: List[_Family] = []
    for name in sorted(counters):
        value = counters[name]
        for prefix, family_name, keys in _LABELED_COUNTERS:
            if name.startswith(prefix):
                tail = name[len(prefix):].split(".")
                if len(tail) == len(keys):
                    family = labeled.get(family_name)
                    if family is None:
                        family = labeled[family_name] = _Family(
                            family_name, "counter", f"requests by {'/'.join(keys)}"
                        )
                    family.add(value, dict(zip(keys, tail)))
                    break
        else:
            family = _Family(
                _mangle(name) + "_total", "counter", f"obs counter {name}"
            )
            family.add(value)
            plain.append(family)
    return plain + sorted(labeled.values(), key=lambda f: f.name)


def _histogram_families(histograms) -> List[_Family]:
    #: family name -> (_Family, help) accumulating labeled series
    grouped: Dict[str, _Family] = {}
    out: List[_Family] = []
    for name in sorted(histograms):
        count, total, samples = histograms[name]
        target = None
        labels: Dict[str, object] = {}
        for prefix, family_name, key in _LABELED_HISTOGRAMS:
            if name.startswith(prefix) and name[len(prefix):]:
                target = grouped.get(family_name)
                if target is None:
                    target = grouped[family_name] = _Family(
                        family_name, "summary", f"obs histogram {prefix}<{key}>"
                    )
                labels = {key: name[len(prefix):]}
                break
        if target is None:
            target = _Family(_mangle(name), "summary", f"obs histogram {name}")
            out.append(target)
        for q in QUANTILES:
            estimate = percentile(samples, q)
            if estimate is not None:
                target.add(estimate, {**labels, "quantile": str(q)})
        target.add(count, labels, suffix="_count")
        target.add(total, labels, suffix="_sum")
    return out + sorted(grouped.values(), key=lambda f: f.name)


def _service_families(service) -> List[_Family]:
    try:
        stats = service.stats()
    except Exception:
        stats = None
    if not isinstance(stats, dict):
        return []
    families: List[_Family] = []

    def gauge(name: str, help_text: str, value) -> None:
        if isinstance(value, bool):
            value = int(value)
        if isinstance(value, (int, float)):
            family = _Family(name, "gauge", help_text)
            family.add(value)
            families.append(family)

    gauge("repro_serve_uptime_seconds", "daemon uptime", stats.get("uptime_sec"))
    gauge("repro_serve_draining", "1 once graceful drain began", stats.get("draining"))
    gauge("repro_serve_queue_depth", "admission queue depth", stats.get("queue_depth"))
    gauge("repro_serve_queue_size", "admission queue capacity", stats.get("queue_size"))
    gauge("repro_serve_jobs", "jobs tracked by the daemon", stats.get("jobs"))
    gauge("repro_serve_workers", "job worker threads", stats.get("workers"))
    cache = stats.get("cache")
    if isinstance(cache, dict):
        for key, help_text in (
            ("resident_entries", "result-cache entries resident in memory"),
            ("disk_entries", "result-cache entries on disk"),
        ):
            gauge(f"repro_serve_cache_{key}", help_text, cache.get(key))
    return families


def _fault_families() -> List[_Family]:
    plane = faults.active()
    if plane is None:
        return []
    coverage = plane.coverage()
    hits = _Family(
        "repro_fault_arrivals_total", "counter", "arrivals at each injection point"
    )
    fired = _Family(
        "repro_fault_injections_total", "counter", "faults actually injected per point"
    )
    for point in sorted(coverage):
        entry = coverage[point]
        hits.add(entry.get("hits", 0), {"point": point})
        fired.add(entry.get("fired", 0), {"point": point})
    return [hits, fired]


def render(service=None) -> str:
    """The full exposition document.  May raise (injected render faults,
    future bugs); HTTP callers must catch and fall back to
    :func:`fallback_exposition`."""
    fault = faults.check("metrics.render.fail")
    if fault is not None:
        raise RuntimeError("injected fault metrics.render.fail: registry exploded")
    obs.incr("serve.metrics.scrapes")
    recorder = obs.active_recorder()
    if isinstance(recorder, obs.Recorder):
        counters, histograms = recorder.metrics_view()
    else:
        counters, histograms = {}, {}
    families: List[_Family] = []
    up = _Family("repro_up", "gauge", "1 while the exposition renders")
    up.add(1)
    families.append(up)
    families.extend(_counter_families(counters))
    families.extend(_histogram_families(histograms))
    if service is not None:
        families.extend(_service_families(service))
    families.extend(_fault_families())
    lines: List[str] = []
    for family in families:
        lines.extend(family.lines())
    return "\n".join(lines) + "\n"


def fallback_exposition(errors: int = 1) -> str:
    """The degraded-but-parseable document served when :func:`render`
    raises: the scrape keeps succeeding and the error itself becomes a
    series an alert can watch."""
    return (
        "# HELP repro_up 1 while the exposition renders\n"
        "# TYPE repro_up gauge\n"
        "repro_up 0\n"
        "# HELP repro_metrics_render_errors_total render failures served degraded\n"
        "# TYPE repro_metrics_render_errors_total counter\n"
        f"repro_metrics_render_errors_total {int(errors)}\n"
    )


# -- scrape-side helpers (tests, CI smoke, loadgen) ----------------------------


def validate_exposition(text: str) -> List[str]:
    """Structural check of exposition text; returns the problems found
    (empty list == parseable).  Covers the failure modes a crashed or
    interleaved render would produce: non-comment garbage lines, illegal
    metric names, unparseable or NaN sample values."""
    problems: List[str] = []
    if not isinstance(text, str) or not text.strip():
        return ["exposition text is empty"]
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                problems.append(f"line {number}: malformed comment {line!r}")
            elif parts[1] == "TYPE":
                kind = parts[3] if len(parts) > 3 else ""
                if kind not in ("counter", "gauge", "summary", "histogram", "untyped"):
                    problems.append(f"line {number}: unknown TYPE {kind!r}")
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            problems.append(f"line {number}: unparseable sample {line!r}")
            continue
        if not _NAME_OK.match(match.group(1)):
            problems.append(f"line {number}: illegal metric name {match.group(1)!r}")
        raw = match.group(3)
        if raw == "NaN":
            problems.append(f"line {number}: NaN sample value")
            continue
        try:
            float(raw)
        except ValueError:
            problems.append(f"line {number}: bad sample value {raw!r}")
    return problems


def parse_exposition(text: str) -> Dict[str, float]:
    """Samples as a flat ``name{sorted,labels} -> value`` map (comment
    lines and malformed samples skipped); the scrape-side complement of
    :func:`render` used by the smoke checks and ``--metrics-url``."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            continue
        try:
            value = float(match.group(3))
        except ValueError:
            continue
        samples[match.group(1) + (match.group(2) or "")] = value
    return samples


def sample_names(text: str) -> List[str]:
    """Bare metric names (labels stripped) present in exposition text."""
    names = set()
    for key in parse_exposition(text):
        names.add(key.split("{", 1)[0])
    return sorted(names)
