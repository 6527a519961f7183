"""Soundness-under-fault invariant harness.

One seeded fault schedule (:class:`~repro.faults.plane.FaultSchedule`)
plus one generated program set, driven through a real slice of the
pipeline (HTTP server → daemon → driver → engine → checkpoint →
journal → cache), with every answer machine-checked against the
invariants the service claims to hold *under faults*:

``service-answers``
    Every submitted job completes (no hang, no crash) and every answer
    is *exact-or-accounted*: either a clean result, or a degraded /
    partial / gave-up result that carries a diagnostic naming what was
    lost.  A silent wrong answer is the one unforgivable outcome.
``soundness``
    For exact/partial answers the dynamic-trace oracle
    (:func:`repro.corpus.sweep.differential_check`) re-derives the true
    match set and confirms the faulted static answer is still a sound
    superset.  ``gave_up`` answers are under-approximations by contract
    — for those the invariant is the *accounting*, not the superset.
``journal-replay``
    A second service started on the same state directory replays the
    journal to a consistent view: no pending work left behind by a
    drained daemon, replay itself total (torn tails dropped, never
    fatal).
``cache-integrity``
    Every on-disk cache entry parses, checksums, and is non-degraded —
    a fault may evict cache entries, never poison them.
``http-hardening``
    Oversized bodies, malformed JSON, lexer garbage, and pathologically
    nested programs each get a *structured 4xx* and none of them is
    admitted: the ``/stats`` job count and ``serve.retries`` do not move
    across the battery (client bugs must never reach a worker).
``metrics-scrape``
    Scraping ``/metrics`` while the plane injects render failures always
    answers 200 with parseable Prometheus text (the fallback exposition
    at worst) and leaves the daemon healthy — telemetry must never take
    down the service it watches.

Each case is a fresh state directory and a fresh fault plane, so any
failure reproduces from ``REPRO_FAULT_SEED=<base>:<case>`` alone.  The
sweep report additionally merges fault-point coverage across cases and
lists catalog points that never fired — an injection point nobody can
reach is a fault model lying about its own surface.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.faults import plane
from repro.faults.plane import CATALOG, FaultSchedule

#: per-case wall-clock ceiling on any single job wait; a case that
#: cannot answer inside this is reported as a hang (invariant breach),
#: not waited out
WAIT_SEC = 20.0

#: programs driven through the service per case (distinct corpus seeds)
PROGRAMS_PER_CASE = 2

#: fault points exercised through a real HTTP round-trip
HTTP_POINTS = frozenset({"http.client.disconnect"})

#: fault points living in the /metrics exposition path — exercised by
#: scraping a live server while the plane is armed
METRICS_POINTS = frozenset({"metrics.render.fail"})

#: fault points living under the engine's checkpointer — only reachable
#: through a run that actually writes snapshots
CKPT_POINTS = frozenset({
    "ckpt.write.enospc", "ckpt.write.eio", "ckpt.write.torn", "ckpt.write.crash",
})


@dataclass
class CaseResult:
    """Verdict for one (seed, case) cell of the sweep matrix."""

    case: int
    label: str
    focus: str
    channel: str  # "service" | "http" | "ckpt" | "metrics"
    ok: bool = True
    violations: List[str] = field(default_factory=list)
    coverage: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def fail(self, invariant: str, detail: str) -> None:
        self.ok = False
        self.violations.append(f"{invariant}: {detail}")

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "label": self.label,
            "focus": self.focus,
            "channel": self.channel,
            "ok": self.ok,
            "violations": self.violations,
        }


@dataclass
class SweepReport:
    """Aggregate of a whole invariant sweep."""

    base_seed: int
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def failures(self) -> List[CaseResult]:
        return [case for case in self.cases if not case.ok]

    def merged_coverage(self) -> Dict[str, Dict[str, int]]:
        merged = {name: {"hits": 0, "fired": 0} for name in CATALOG}
        for case in self.cases:
            for name, cell in case.coverage.items():
                if name in merged:
                    merged[name]["hits"] += cell.get("hits", 0)
                    merged[name]["fired"] += cell.get("fired", 0)
        return merged

    def unexercised(self) -> List[str]:
        return [
            name for name, cell in self.merged_coverage().items()
            if cell["fired"] == 0
        ]

    def summary(self) -> dict:
        return {
            "base_seed": self.base_seed,
            "cases": len(self.cases),
            "failures": len(self.failures),
            "replay": [
                f"REPRO_FAULT_SEED={case.label}" for case in self.failures
            ],
            "unexercised_points": self.unexercised(),
            "coverage": self.merged_coverage(),
        }


def _generated_programs(rng_seed: int) -> List[object]:
    from repro.corpus.generator import generate, seed_stream

    return [generate(seed) for seed in seed_stream(rng_seed, PROGRAMS_PER_CASE)]


def _check_answer(result: Optional[dict], generated, case: CaseResult) -> None:
    """The exact-or-accounted + soundness invariants for one answer."""
    from repro.core import diagnostics
    from repro.corpus.sweep import differential_check

    if result is None:
        case.fail("service-answers", f"{generated.corpus_id}: job never completed")
        return
    if "error" in result and "confidence" not in result:
        # a terminal error document is accounted by construction (it
        # names its reason) but only acceptable when it says *degraded*
        if "degraded" not in str(result.get("error", "")):
            case.fail(
                "service-answers",
                f"{generated.corpus_id}: bare error answer {result['error']!r}",
            )
        return
    confidence = result.get("confidence")
    degraded = result.get("degraded")
    service_diags = result.get("service_diagnostics", [])
    diags = result.get("diagnostics", [])
    if confidence not in (diagnostics.EXACT, diagnostics.PARTIAL, diagnostics.GAVE_UP):
        case.fail(
            "service-answers",
            f"{generated.corpus_id}: unknown confidence {confidence!r}",
        )
        return
    # accounting can live at any layer: the final result's diagnostics,
    # the service's own notes, the degraded marker, or the ladder's rung
    # log (a terminal mpi-cfg answer is partial *by construction* — the
    # earlier rungs' GIVEUP diagnostics are its accounting)
    rung_diags = any(r.get("diagnostics") for r in result.get("rungs", []))
    accounted = bool(diags) or bool(service_diags) or bool(degraded) or rung_diags
    if confidence != diagnostics.EXACT and not accounted:
        case.fail(
            "service-answers",
            f"{generated.corpus_id}: {confidence} answer with no diagnostic",
        )
    if confidence == diagnostics.GAVE_UP:
        # under-approximation by contract; accounting is the invariant
        return
    claimed = {tuple(pair) for pair in result.get("matches", [])}
    np_values = tuple(generated.np_values) or (2,)
    try:
        _, _, divergences = differential_check(
            generated.parse(), claimed, np_values
        )
    except Exception as exc:  # oracle must be total on generated programs
        case.fail("soundness", f"{generated.corpus_id}: oracle error {exc}")
        return
    if divergences:
        case.fail(
            "soundness",
            f"{generated.corpus_id}: faulted {confidence} answer misses "
            f"{sum(len(d.missing_edges) for d in divergences)} dynamic match(es)",
        )


def _check_cache_integrity(state_dir: Path, case: CaseResult) -> None:
    from repro.serve.cache import ENTRY_FORMAT, entry_checksum

    cache_dir = state_dir / "cache"
    if not cache_dir.is_dir():
        return
    for path in sorted(cache_dir.glob("*.json")):
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            case.fail("cache-integrity", f"{path.name}: unreadable ({exc})")
            continue
        if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
            case.fail("cache-integrity", f"{path.name}: wrong shape/format")
            continue
        if entry.get("checksum") != entry_checksum(entry):
            case.fail("cache-integrity", f"{path.name}: checksum mismatch")
            continue
        if entry.get("result", {}).get("degraded"):
            case.fail("cache-integrity", f"{path.name}: degraded entry cached")


def _service_config(state_dir: Path):
    from repro.serve.daemon import RetryPolicy, ServiceConfig

    return ServiceConfig(
        state_dir=state_dir,
        workers=1,
        isolation="inline",
        queue_size=8,
        retry=RetryPolicy(max_retries=1, backoff_base_sec=0.01, backoff_cap_sec=0.05),
    )


def _run_service_case(state_dir: Path, programs, case: CaseResult) -> None:
    """Inline service channel: submit, wait, check, then replay."""
    from repro.serve.daemon import AnalysisService, AnalyzeRequest

    service = AnalysisService(_service_config(state_dir))
    service.start()
    answers = []
    try:
        for generated in programs:
            request = AnalyzeRequest(program=generated.source, deadline_sec=10.0)
            try:
                status, payload = service.submit(request)
            except Exception as exc:
                case.fail("service-answers", f"submit raised {exc!r}")
                continue
            if status == "rejected":
                case.fail(
                    "service-answers",
                    f"{generated.corpus_id}: generated program rejected: {payload}",
                )
            elif status == "shed":
                # admission under injected queue overflow: a structured
                # refusal is a correct, accounted answer
                continue
            elif status == "hit":
                answers.append((generated, payload))
            else:
                job = payload
                if not job.wait(WAIT_SEC):
                    case.fail(
                        "service-answers",
                        f"{generated.corpus_id}: no answer within {WAIT_SEC}s",
                    )
                    continue
                answers.append((generated, job.result))
    finally:
        service.drain(timeout=WAIT_SEC)
        service.stop()
    for generated, result in answers:
        _check_answer(result, generated, case)
    _reload_cache(state_dir, case)
    _check_cache_integrity(state_dir, case)
    _check_replay(state_dir, case)


def _reload_cache(state_dir: Path, case: CaseResult) -> None:
    """Re-index the on-disk cache with the fault plane still armed —
    the only moment ``cache.read.corrupt`` is reachable (a live service
    serves hot entries from memory).  A corrupt read must surface as an
    eviction, never as a served entry."""
    from repro.serve.cache import ResultCache

    cache_dir = state_dir / "cache"
    if not cache_dir.is_dir():
        return
    try:
        ResultCache(cache_dir)
    except Exception as exc:
        case.fail("cache-integrity", f"cache re-index raised {exc!r}")


def _check_replay(state_dir: Path, case: CaseResult) -> None:
    """Journal replay must converge: restart on the same state dir,
    observe no pending work after the drained first life."""
    from repro.serve.daemon import AnalysisService
    from repro.serve.journal import JobJournal

    # replay outside any fault plane: recovery itself must be total on
    # whatever bytes the faulted life left behind.  Capture coverage
    # first — uninstalling discards the active plane's counters.
    active = plane.active()
    if active is not None:
        case.coverage = active.coverage()
    plane.uninstall()
    try:
        pending, _done = JobJournal(state_dir / "journal.jsonl").fold()
        replayer = AnalysisService(_service_config(state_dir))
        try:
            replayer.start()
            for job_id in pending:
                job = replayer.get_job(job_id)
                if job is not None and not job.wait(WAIT_SEC):
                    case.fail("journal-replay", f"replayed job {job_id} hung")
            replayer.drain(timeout=WAIT_SEC)
        finally:
            replayer.stop()
        still_pending, _ = JobJournal(state_dir / "journal.jsonl").fold()
        if still_pending:
            case.fail(
                "journal-replay",
                f"{len(still_pending)} job(s) still pending after replay",
            )
    except Exception as exc:
        case.fail("journal-replay", f"recovery raised {exc!r}")


def _run_ckpt_case(state_dir: Path, programs, case: CaseResult) -> None:
    """Checkpointer channel: an engine run writing a snapshot every step
    while the disk fails underneath it.  The invariants are the atomic-
    write contract itself: the run survives (CHECKPOINT_IO is a
    diagnostic, never an abort), no orphan temp file is stranded, and
    whatever checkpoint file exists is complete valid JSON — old or new,
    never torn."""
    from repro.analyses.simple_symbolic import SimpleSymbolicClient
    from repro.core import diagnostics
    from repro.core.checkpoint import Checkpointer
    from repro.core.engine import EngineLimits, PCFGEngine
    from repro.lang.cfg import build_cfg

    generated = programs[0]
    ckpt_dir = state_dir / "ckpt"
    try:
        result = PCFGEngine(
            build_cfg(generated.parse()),
            SimpleSymbolicClient(),
            EngineLimits(deadline_sec=WAIT_SEC),
            checkpointer=Checkpointer(ckpt_dir, name="fault-case", every_steps=1),
        ).run()
    except Exception as exc:
        case.fail("service-answers", f"checkpointed run raised {exc!r}")
        return
    if result.confidence not in (diagnostics.EXACT, diagnostics.PARTIAL):
        if not result.diagnostics:
            case.fail(
                "service-answers",
                f"{generated.corpus_id}: {result.confidence} with no diagnostic",
            )
    orphans = list(ckpt_dir.glob("*.tmp*")) if ckpt_dir.is_dir() else []
    if orphans:
        case.fail(
            "cache-integrity",
            f"orphan temp file(s) after failed write: "
            f"{[p.name for p in orphans]}",
        )
    for path in sorted(ckpt_dir.glob("*.ckpt.json")) if ckpt_dir.is_dir() else []:
        try:
            json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            case.fail(
                "cache-integrity",
                f"{path.name}: torn checkpoint visible at the final name",
            )


#: a schedule can tear several consecutive responses (hit + count); any
#: single client retry past that window must see a clean one
_HTTP_TRIES = 4


def _http_get(base: str, path: str, timeout: float = WAIT_SEC):
    """GET returning (status, document); (0, {}) only if every attempt
    was torn by an injected disconnect.  A cut inside the headers can
    drop ``Content-Length``, so a torn body may also read as short,
    undecodable JSON rather than ``IncompleteRead``."""
    for _ in range(_HTTP_TRIES):
        try:
            with urllib.request.urlopen(base + path, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            body_doc = _error_body(exc)
            if body_doc is None:
                continue  # error body itself torn mid-send
            return exc.code, body_doc
        except (OSError, ValueError, http.client.HTTPException):
            continue
    return 0, {}


def _error_body(exc: urllib.error.HTTPError) -> Optional[dict]:
    """The JSON body of an HTTP error response, or None if the injected
    disconnect tore the body off mid-send (IncompleteRead)."""
    try:
        return json.loads(exc.read().decode("utf-8") or "{}")
    except (OSError, ValueError, http.client.HTTPException):
        return None


def _http_post(base: str, path: str, body: bytes, timeout: float = WAIT_SEC):
    """POST returning (status, document); mid-response disconnects are
    retried (idempotent: the service coalesces/caches by content key)."""
    request = urllib.request.Request(
        base + path, data=body, headers={"Content-Type": "application/json"}
    )
    for _ in range(_HTTP_TRIES):
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            body_doc = _error_body(exc)
            if body_doc is None:
                continue
            return exc.code, body_doc
        except (OSError, ValueError, http.client.HTTPException):
            continue
    return 0, {}


#: (label, body factory) — the untrusted-input battery every http-channel
#: case throws at the server; each must yield a structured 4xx
def _fuzz_battery() -> List[Tuple[str, bytes]]:
    deep = "x = " + "(" * 10_000 + "1" + ")" * 10_000
    return [
        ("malformed-json", b'{"program": "x = 1"'),
        ("non-object", b'[1, 2, 3]'),
        ("missing-program", b'{"tenant": "default"}'),
        ("non-string-program", b'{"program": 42}'),
        ("lexer-garbage", json.dumps({"program": "x = @#$%"}).encode()),
        ("deep-nesting", json.dumps({"program": deep}).encode()),
        ("oversized-program",
         json.dumps({"program": "x = 1\n" * 600_000}).encode()),
    ]


def _admitted(stats: dict) -> Tuple[int, int]:
    """The ``/stats`` figures a rejected input must leave alone."""
    return stats["jobs"], stats["counters"].get("serve.retries", 0)


def _run_http_case(state_dir: Path, programs, case: CaseResult) -> None:
    """HTTP channel: a real ThreadingHTTPServer round-trip, the fuzz
    battery, and (under http.client.disconnect) proof the server
    survives a mid-response hangup."""
    from repro.serve.daemon import AnalysisService
    from repro.serve.http import AnalysisHTTPServer

    service = AnalysisService(_service_config(state_dir))
    service.start()
    server = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        generated = programs[0]
        body = json.dumps(
            {"program": generated.source, "wait": True, "wait_timeout_sec": WAIT_SEC}
        ).encode()
        # a torn response here (code 0) means the injected disconnect hit
        # our own connection — the invariant is that the *server*
        # shrugged it off, proven by the healthz probe below
        code, document = _http_post(base, "/v1/analyze", body)
        status, health = _http_get(base, "/healthz", timeout=5.0)
        if status != 200 or health.get("status") != "ok":
            case.fail("service-answers", "server unhealthy after disconnect")
        if code == 200:
            result = document.get("result", {})
            _check_answer(result, generated, case)
        # the round trip's own retries must be over before the baseline
        for job in list(service.jobs.values()):
            job.wait(WAIT_SEC)
        before = _admitted(service.stats())
        for label, payload in _fuzz_battery():
            fuzz_code, fuzz_doc = _http_post(base, "/v1/analyze", payload)
            if fuzz_code == 0:
                continue  # response torn by the injected disconnect
            if not (400 <= fuzz_code < 500):
                case.fail(
                    "http-hardening",
                    f"{label}: expected structured 4xx, got {fuzz_code}",
                )
            elif not isinstance(fuzz_doc.get("error"), str):
                case.fail("http-hardening", f"{label}: {fuzz_code} without error body")
        after = _admitted(service.stats())
        if after != before:
            case.fail(
                "http-hardening",
                f"client-fault inputs were admitted: (jobs, retries) {before} -> {after}",
            )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.drain(timeout=WAIT_SEC)
        service.stop()
    _check_cache_integrity(state_dir, case)


def _run_metrics_case(state_dir: Path, programs, case: CaseResult) -> None:
    """Metrics channel: scrape ``/metrics`` while the fault plane injects
    render failures mid-scrape.  The invariants: every scrape answers 200
    (the fallback exposition, never a 500 or a hang), every body is
    parseable Prometheus text, and the daemon stays healthy throughout —
    telemetry must never take down the service it watches."""
    from repro.obs import metrics as metrics_mod
    from repro.serve.daemon import AnalysisService, AnalyzeRequest
    from repro.serve.http import AnalysisHTTPServer

    service = AnalysisService(_service_config(state_dir))
    service.start()
    server = AnalysisHTTPServer(("127.0.0.1", 0), service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        # real work first so the exposition has non-trivial series to render
        generated = programs[0]
        try:
            status, payload = service.submit(
                AnalyzeRequest(program=generated.source, deadline_sec=10.0)
            )
            if status == "accepted":
                payload.wait(WAIT_SEC)
        except Exception as exc:
            case.fail("service-answers", f"submit raised {exc!r}")
        for attempt in range(4):
            try:
                with urllib.request.urlopen(base + "/metrics", timeout=5.0) as resp:
                    code, text = resp.status, resp.read().decode("utf-8")
            except urllib.error.HTTPError as exc:
                case.fail(
                    "metrics-scrape",
                    f"scrape {attempt}: HTTP {exc.code} (must always be 200)",
                )
                continue
            except (OSError, http.client.HTTPException) as exc:
                case.fail("metrics-scrape", f"scrape {attempt}: {exc!r}")
                continue
            if code != 200:
                case.fail("metrics-scrape", f"scrape {attempt}: status {code}")
                continue
            problems = metrics_mod.validate_exposition(text)
            if problems:
                case.fail(
                    "metrics-scrape",
                    f"scrape {attempt}: non-parseable exposition: {problems[0]}",
                )
            samples = metrics_mod.parse_exposition(text)
            if "repro_up" not in samples:
                case.fail(
                    "metrics-scrape", f"scrape {attempt}: repro_up series missing"
                )
        status, health = _http_get(base, "/healthz", timeout=5.0)
        if status != 200 or health.get("status") != "ok":
            case.fail("metrics-scrape", "daemon unhealthy after faulted scrapes")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.drain(timeout=WAIT_SEC)
        service.stop()
    _check_cache_integrity(state_dir, case)


def _channel_for(schedule: FaultSchedule) -> str:
    if schedule.focus in HTTP_POINTS:
        return "http"
    if schedule.focus in CKPT_POINTS:
        return "ckpt"
    if schedule.focus in METRICS_POINTS:
        return "metrics"
    return "service"


def run_case(base_seed: int, case_index: int, state_root: Path) -> CaseResult:
    """One cell: fresh state dir + fresh plane, one schedule, all checks."""
    from repro.testing import reset_state

    schedule = FaultSchedule.for_case(base_seed, case_index)
    case = CaseResult(
        case=case_index,
        label=schedule.label,
        focus=schedule.focus,
        channel=_channel_for(schedule),
    )
    state_dir = state_root / f"case-{case_index:04d}"
    state_dir.mkdir(parents=True, exist_ok=True)
    programs = _generated_programs(base_seed * 1_000_003 + case_index)
    reset_state()
    plane.install(schedule)
    try:
        if case.channel == "http":
            _run_http_case(state_dir, programs, case)
        elif case.channel == "ckpt":
            _run_ckpt_case(state_dir, programs, case)
        elif case.channel == "metrics":
            _run_metrics_case(state_dir, programs, case)
        else:
            _run_service_case(state_dir, programs, case)
    except queue.Full:
        pass  # structured shed under injected overflow: acceptable
    except Exception as exc:
        case.fail("service-answers", f"harness-visible crash: {exc!r}")
    finally:
        active = plane.active()
        if active is not None:
            case.coverage = active.coverage()
        plane.uninstall()
        reset_state()
    return case


def run_sweep(
    base_seed: int,
    cases: int,
    state_root: Path,
    *,
    progress=None,
) -> SweepReport:
    """Drive ``cases`` consecutive schedules; return the merged report.

    A full rotation of the catalog (``cases >= len(CATALOG)``) guarantees
    every injection point was *scheduled* at least once; the coverage
    section of the report then proves which ones actually *fired*.
    """
    report = SweepReport(base_seed=base_seed)
    for case_index in range(cases):
        result = run_case(base_seed, case_index, state_root)
        report.cases.append(result)
        if progress is not None:
            progress(result)
    return report
