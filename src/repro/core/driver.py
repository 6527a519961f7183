"""Precision-fallback ladder: always return the best *sound* answer.

The engine's resilience layer guarantees ``run()`` never raises, but a
degraded (``partial`` / ``gave_up``) result still leaves precision on the
table.  This driver climbs down a ladder of progressively cheaper-but-
wider analyses until one produces an ``exact`` answer:

1. ``cartesian`` — the Section VIII Cartesian/HSM client at the caller's
   limits (the most precise client this repository has);
2. ``cartesian-escalated`` — same client with doubled ``widen_after``,
   ``max_psets`` and ``max_steps`` (loses less precision in loops and
   survives deeper splits, at more cost);
3. ``simple-symbolic`` — the Section VII affine client at the escalated
   limits (simpler machinery; immune to faults in the HSM layer);
4. ``mpi-cfg`` — the Section II MPI-CFG baseline.  Never gives up: every
   send is connected to every receive that sequential facts cannot rule
   out.  Sound by construction, over-approximate by design, so the
   synthesized result is marked ``confidence="partial"``.

The first rung whose result is ``exact`` wins; if none is, the baseline
rung is chosen (it always completes), and the report keeps every attempted
rung's outcome so callers can still inspect the sharper partial results.

One program's ladder always climbs in one process.  Parallelism is per
program: :func:`analyze_batch` and the corpus sweep fan whole programs
out over :func:`pool_map`, the package's one process pool.
"""

from __future__ import annotations

import inspect
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.core import diagnostics
from repro.core.engine import AnalysisResult, EngineLimits
from repro.core.topology import MatchRecord, StaticTopology
from repro.obs import context, slog
from repro.obs import recorder as obs

RungRunner = Callable[[object, EngineLimits], Tuple[AnalysisResult, object, object]]


@dataclass(frozen=True)
class Rung:
    """One level of the fallback ladder."""

    name: str
    run: RungRunner
    limits: EngineLimits


@dataclass
class RungOutcome:
    """What one attempted rung produced."""

    name: str
    result: AnalysisResult
    cfg: object
    client: object

    @property
    def confidence(self) -> str:
        return self.result.confidence

    @property
    def resumed_from(self) -> str:
        """Where this rung warm-started from ("" for a cold start)."""
        return getattr(self.result, "resumed_from", "")

    def describe(self) -> str:
        resumed = f", resumed from {self.resumed_from}" if self.resumed_from else ""
        return (
            f"{self.name}: {self.result.confidence} "
            f"({diagnostics.summarize(self.result.diagnostics)}, "
            f"{len(self.result.matches)} matches{resumed})"
        )


@dataclass
class FallbackReport:
    """The ladder's full history plus the chosen answer."""

    rungs: List[RungOutcome] = field(default_factory=list)
    chosen: Optional[RungOutcome] = None

    @property
    def result(self) -> AnalysisResult:
        return self.chosen.result

    @property
    def cfg(self):
        return self.chosen.cfg

    @property
    def client(self):
        return self.chosen.client

    @property
    def rung_name(self) -> str:
        return self.chosen.name

    def describe(self) -> str:
        lines = [outcome.describe() for outcome in self.rungs]
        lines.append(f"answer from rung: {self.chosen.name}")
        return "\n".join(lines)


def escalate(limits: EngineLimits) -> EngineLimits:
    """Escalated limits for a retry: double the precision-bounding knobs."""
    return replace(
        limits,
        max_steps=limits.max_steps * 2,
        widen_after=limits.widen_after * 2,
        max_psets=limits.max_psets * 2,
    )


def _run_cartesian(program, limits, *, checkpointer=None, resume=None):
    from repro.analyses.cartesian import analyze_cartesian

    return analyze_cartesian(
        program, limits=limits, checkpointer=checkpointer, resume=resume
    )


def _run_simple_symbolic(program, limits, *, checkpointer=None, resume=None):
    from repro.analyses.simple_symbolic import analyze_program

    return analyze_program(
        program, limits=limits, checkpointer=checkpointer, resume=resume
    )


def _run_mpi_cfg_baseline(program, limits):
    """The last rung: the MPI-CFG baseline, synthesized as an AnalysisResult.

    Sound (a superset of every true topology, Section II) and total — it
    cannot give up — but over-approximate, hence ``confidence="partial"``
    with no diagnostics (nothing *failed*; precision was traded away
    wholesale).
    """
    from repro.baselines.mpi_cfg import build_mpi_cfg
    from repro.lang.cfg import build_cfg

    cfg = build_cfg(program)
    baseline = build_mpi_cfg(program, cfg=cfg)
    topology = StaticTopology()
    for send_node, recv_node in sorted(baseline.comm_edges):
        topology.add(
            MatchRecord(
                send_node=send_node,
                recv_node=recv_node,
                sender_desc="[0..np-1]",
                receiver_desc="[0..np-1]",
                send_label=cfg.node(send_node).label,
                recv_label=cfg.node(recv_node).label,
            )
        )
    result = AnalysisResult(topology=topology)
    result.confidence = diagnostics.PARTIAL
    return result, cfg, baseline


def default_ladder(limits: Optional[EngineLimits] = None) -> List[Rung]:
    """The standard four-rung ladder (see the module docstring)."""
    base = limits or EngineLimits()
    boosted = escalate(base)
    return [
        Rung("cartesian", _run_cartesian, base),
        Rung("cartesian-escalated", _run_cartesian, boosted),
        Rung("simple-symbolic", _run_simple_symbolic, boosted),
        Rung("mpi-cfg", _run_mpi_cfg_baseline, base),
    ]


def baseline_ladder(limits: Optional[EngineLimits] = None) -> List[Rung]:
    """A single-rung ladder: only the total MPI-CFG baseline.

    The analysis service's degraded-mode answer under load pressure —
    cheap, total, sound-but-wide — delivered through the same
    ``analyze_with_fallback`` machinery so reports stay uniform.
    """
    base = limits or EngineLimits()
    return [Rung("mpi-cfg", _run_mpi_cfg_baseline, base)]


def _supports_checkpointing(runner) -> bool:
    """True when a rung runner accepts ``checkpointer``/``resume`` kwargs."""
    try:
        params = inspect.signature(runner).parameters
    except (TypeError, ValueError):
        return False
    return "checkpointer" in params and "resume" in params


def _carryable_snapshot(result: AnalysisResult):
    """A budget-trip snapshot safe to warm-start the *next* rung from.

    Only pure budget exhaustion qualifies: if any other (non-INFO)
    diagnostic fired, the captured states may already be poisoned by the
    very imprecision or fault the escalated rung exists to avoid, so the
    next rung must cold-start.
    """
    snap = getattr(result, "snapshot", None)
    if snap is None:
        return None
    meaningful = [d for d in result.diagnostics if d.severity != diagnostics.INFO]
    if meaningful and all(d.code in diagnostics.BUDGET_CODES for d in meaningful):
        return snap
    return None


def analyze_with_fallback(
    program_or_spec,
    limits: Optional[EngineLimits] = None,
    ladder: Optional[List[Rung]] = None,
    *,
    checkpointer=None,
    resume=None,
    progress=None,
) -> FallbackReport:
    """Climb the fallback ladder until a rung answers exactly.

    Returns a :class:`FallbackReport`; ``report.chosen`` is the first
    ``exact`` rung, or the final (baseline) rung when none is exact.
    Rungs after the winning one are not run.

    ``checkpointer`` (a :class:`repro.core.checkpoint.Checkpointer`) and
    ``resume`` (a snapshot or path for the *first* rung) are forwarded to
    rungs whose runners accept them.  When a rung trips a budget, its
    final snapshot warm-starts the next rung instead of recomputing the
    explored prefix from scratch — but only when the tripped run was
    otherwise clean (see :func:`_carryable_snapshot`); a rung whose client
    class differs from the snapshot's is detected by the engine and falls
    back to a cold start.

    ``progress`` (a callable of one event dict) receives a ``rung``
    event as each rung starts, plus the engine heartbeats emitted below
    it: each rung binds it into the thread's :mod:`repro.obs.context`,
    so rung runners need no signature change.
    """
    if hasattr(program_or_spec, "parse"):
        program = program_or_spec.parse()
    else:
        program = program_or_spec
    rungs = ladder if ladder is not None else default_ladder(limits)
    report = FallbackReport()
    carry = resume
    for rung in rungs:
        wants_ckpt = (checkpointer is not None or carry is not None)
        with context.bound(progress=progress), obs.span(f"driver.rung.{rung.name}"):
            context.emit({"event": "rung", "rung": rung.name})
            if wants_ckpt and _supports_checkpointing(rung.run):
                result, cfg, client = rung.run(
                    program, rung.limits, checkpointer=checkpointer, resume=carry
                )
            else:
                result, cfg, client = rung.run(program, rung.limits)
        outcome = RungOutcome(rung.name, result, cfg, client)
        report.rungs.append(outcome)
        obs.incr(f"driver.rung.{rung.name}.{result.confidence}")
        if outcome.resumed_from:
            obs.incr("driver.rung.warm_start")
        slog.info(
            "driver.rung",
            name=rung.name,
            confidence=result.confidence,
            matches=len(result.matches),
            diagnostics=diagnostics.summarize(result.diagnostics),
            resumed_from=outcome.resumed_from or None,
        )
        if result.confidence == diagnostics.EXACT:
            report.chosen = outcome
            slog.info(
                "driver.chosen", name=outcome.name, confidence=diagnostics.EXACT
            )
            return report
        carry = _carryable_snapshot(result)
    # nothing exact: the last rung (the baseline, for the default ladder)
    # is the answer of record
    report.chosen = report.rungs[-1]
    slog.info(
        "driver.chosen",
        name=report.chosen.name,
        confidence=report.chosen.confidence,
    )
    return report




# -- whole-program parallelism -------------------------------------------------


def fork_context():
    """The multiprocessing context of every worker process this package
    starts: fork where available (cheap, no re-import), else the
    platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


def _pool_call(task: tuple) -> tuple:
    """One pooled call in a worker process.  With ``capture`` (the parent
    is recording) the call runs under a private recorder and its counter
    snapshot travels home with the value: a forked worker's incrs would
    otherwise land in its inherited copy of the parent recorder and be
    lost."""
    fn, item, capture = task
    if not capture:
        return fn(item), None
    recorder = obs.Recorder()
    with context.bound(recorder=recorder):
        value = fn(item)
    return value, dict(recorder.counters)


def pool_map(fn: Callable, items: Iterable, jobs: int = 1) -> Iterator[tuple]:
    """Yield ``(item, fn(item))`` for every item, in input order.

    The one process pool of the package: batch analysis and the corpus
    sweep both run on it.  ``jobs <= 1`` (or a single item) calls ``fn``
    in this process, lazily.  Otherwise the items are materialized and
    fanned out over ``jobs`` forked workers, and the pool

    * merges each worker's obs-counter snapshot into the parent recorder
      as its value is yielded, so counts survive the process boundary;
    * recomputes in this process every item whose worker was lost (a
      SIGKILLed or crashed worker breaks the pool, so all items still
      pending fail over too) — the map always completes;
    * degrades to the serial loop when ``fn`` or the items cannot be
      pickled (``fn`` must be a module-level function or a partial of
      one).
    """
    if jobs > 1:
        items = list(items)
        try:
            pickle.dumps((fn, items), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            obs.incr("driver.pool.serial_fallbacks")
            slog.info("driver.pool_serial_fallback", reason=str(exc))
            jobs = 1
    if jobs <= 1 or len(items) <= 1:
        for item in items:
            yield item, fn(item)
        return
    capture = obs.enabled()
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), mp_context=fork_context()
    ) as pool:
        futures = [pool.submit(_pool_call, (fn, item, capture)) for item in items]
        for item, future in zip(items, futures):
            try:
                value, counters = future.result()
            except Exception as exc:
                obs.incr("driver.pool.worker_lost")
                slog.warning("driver.pool_worker_lost", error=str(exc))
                value, counters = fn(item), None
            obs.merge_counters(counters)
            yield item, value


def _analyze_item(item, limits=None, ladder=None) -> FallbackReport:
    with obs.span("driver.batch.program"):
        return analyze_with_fallback(item, limits=limits, ladder=ladder)


def analyze_batch(
    programs_or_specs,
    limits: Optional[EngineLimits] = None,
    ladder: Optional[List[Rung]] = None,
    jobs: int = 1,
):
    """Run the fallback ladder over many programs.

    Yields ``(item, FallbackReport)`` pairs in input order.  This is the
    batch entry point the analysis service's batch endpoint uses: one
    ladder configuration, many programs, per-program isolation (one
    program's failure cannot abort the batch — ``analyze_with_fallback``
    never raises for analysis-level failures, and the ladder's baseline
    rung is total).

    ``jobs > 1`` fans the programs out over :func:`pool_map` (whole-
    program parallelism: each worker climbs the full ladder for its
    item); a lost worker's items are retried in-process, so the batch
    always completes.
    """
    analyze = partial(_analyze_item, limits=limits, ladder=ladder)
    for item, report in pool_map(analyze, programs_or_specs, jobs):
        obs.incr(f"driver.batch.{report.result.confidence}")
        yield item, report
