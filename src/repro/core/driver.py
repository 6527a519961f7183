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
3. ``mpi-cfg`` — the Section II MPI-CFG baseline.  Never gives up: every
   send is connected to every receive that sequential facts cannot rule
   out.  Sound by construction, over-approximate by design, so the
   synthesized result is marked ``confidence="partial"``.

The first rung whose result is ``exact`` wins; if none is, the baseline
rung is chosen (it always completes), and the report keeps every attempted
rung's outcome so callers can still inspect the sharper partial results.

Warm starts never cost an answer
--------------------------------

A rung that only tripped a budget hands its snapshot to the next rung,
which resumes that prefix instead of recomputing it.  The prefix was
widened under the previous rung's ``widen_after`` and can lose what a cold
run keeps, so a warm-started rung that is not ``exact`` runs once more,
cold, before the ladder climbs (both attempts stay in the report).

Routing: skip the rungs a failed rung proves cannot answer exactly
-----------------------------------------------------------------

A Cartesian rung whose non-INFO diagnostic codes are exactly
``{GIVEUP_NO_MATCH}`` (the client's Section VI ``T``) may prove a later
one hopeless (reason ``replay``).  When that give-up was the run's first
degradation and fired before any widening in a cold run
(``AnalysisResult.giveup_before_widening``), none of the three precision
knobs had mattered yet: ``max_psets`` is read only at a split,
``widen_after`` only at a widening and ``max_steps`` only at the step
trip.  A later Cartesian rung whose three knobs are each at least as
large, with every other limit equal, repeats the same deterministic steps
to the same give-up, so it is skipped.  Everything else climbs: budget
trips, ``GIVEUP_PSET_BOUND``, ``CLIENT_FAULT``, mixed codes, and give-ups
after a widening.  The last rung of a ladder is never skipped.  Skipped
rungs are listed in ``FallbackReport.skipped`` and counted in
``driver.rung.<name>.skipped``.

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
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Union

from repro.core import diagnostics
from repro.core.engine import AnalysisResult, EngineLimits
from repro.core.topology import MatchRecord, StaticTopology
from repro.faults import plane as faults
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


@dataclass(frozen=True)
class SkippedRung:
    """A rung the ladder did not run, and why (``replay``)."""

    name: str
    reason: str

    def describe(self) -> str:
        return f"{self.name}: skipped ({self.reason})"


@dataclass
class FallbackReport:
    """The ladder's full history plus the chosen answer."""

    #: every rung the ladder reached, in ladder order: a RungOutcome per
    #: attempted rung, a SkippedRung per skipped one
    ladder: List[Union[RungOutcome, SkippedRung]] = field(default_factory=list)
    chosen: Optional[RungOutcome] = None

    @property
    def rungs(self) -> List[RungOutcome]:
        """The attempted rungs, in ladder order."""
        return [entry for entry in self.ladder if isinstance(entry, RungOutcome)]

    @property
    def skipped(self) -> List[SkippedRung]:
        return [entry for entry in self.ladder if isinstance(entry, SkippedRung)]

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
        lines = [entry.describe() for entry in self.ladder]
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
    """The standard three-rung ladder (see the module docstring)."""
    base = limits or EngineLimits()
    boosted = escalate(base)
    return [
        Rung("cartesian", _run_cartesian, base),
        Rung("cartesian-escalated", _run_cartesian, boosted),
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


#: the rung names of :func:`default_ladder` that run the Cartesian
#: analysis.  Routing compares rungs by name, not by runner identity, so a
#: ladder whose runners are wrapped (timed or traced) routes exactly like
#: the default one; rungs named otherwise are never skipped
_CARTESIAN_RUNGS = frozenset({"cartesian", "cartesian-escalated"})


def _replays(later: EngineLimits, failed: EngineLimits) -> bool:
    """Whether a run at ``later`` repeats a run at ``failed`` up to a
    give-up that no precision knob had yet influenced."""
    return (
        later.max_steps >= failed.max_steps
        and later.widen_after >= failed.widen_after
        and later.max_psets >= failed.max_psets
        and replace(
            later,
            max_steps=failed.max_steps,
            widen_after=failed.widen_after,
            max_psets=failed.max_psets,
        ) == failed
    )


def _only_no_match(result: AnalysisResult) -> bool:
    """True when the run's non-INFO diagnostic codes are exactly
    ``{GIVEUP_NO_MATCH}``."""
    codes = {d.code for d in result.diagnostics if d.severity != diagnostics.INFO}
    return codes == {diagnostics.GIVEUP_NO_MATCH}


def worst_case_runs(ladder: List[Rung]) -> int:
    """The most runs one climb of ``ladder`` can start: one per rung, plus
    a cold rerun of each later rung that can warm-start."""
    return len(ladder) + sum(_supports_checkpointing(rung.run) for rung in ladder[1:])


def _attempt(program, rung: Rung, carry, checkpointer, progress) -> RungOutcome:
    """Run one rung (warm-started from ``carry`` when it is not None)."""
    wants_ckpt = checkpointer is not None or carry is not None
    with context.bound(progress=progress), obs.span(f"driver.rung.{rung.name}"):
        context.emit({"event": "rung", "rung": rung.name})
        if wants_ckpt and _supports_checkpointing(rung.run):
            result, cfg, client = rung.run(
                program, rung.limits, checkpointer=checkpointer, resume=carry
            )
        else:
            result, cfg, client = rung.run(program, rung.limits)
    outcome = RungOutcome(rung.name, result, cfg, client)
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
    return outcome


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
    Rungs after the winning one are not run, and neither are the rungs a
    failed rung's give-up proves cannot answer exactly (see the module
    docstring): the chosen answer is the one the full climb would give,
    reached with fewer runs.

    ``checkpointer`` (a :class:`repro.core.checkpoint.Checkpointer`) and
    ``resume`` (a snapshot or path for the *first* rung) are forwarded to
    rungs whose runners accept them.  When a rung trips a budget, its
    final snapshot warm-starts the next rung instead of recomputing the
    explored prefix from scratch — but only when the tripped run was
    otherwise clean (see :func:`_carryable_snapshot`); a rung whose client
    class differs from the snapshot's is detected by the engine and falls
    back to a cold start.  A warm-started rung that is not ``exact`` runs
    once more, cold, before the ladder climbs.

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
    #: limits of every Cartesian rung proved to give up before a widening
    giveups = []
    for index, rung in enumerate(rungs):
        # a skip argues from a cold start, and the last rung always runs
        if (
            carry is None
            and index < len(rungs) - 1
            and rung.name in _CARTESIAN_RUNGS
            and any(_replays(rung.limits, limits) for limits in giveups)
        ):
            report.ladder.append(SkippedRung(rung.name, "replay"))
            giveups.append(rung.limits)
            obs.incr(f"driver.rung.{rung.name}.skipped")
            slog.info("driver.rung_skipped", name=rung.name, reason="replay")
            continue
        outcome = _attempt(program, rung, carry, checkpointer, progress)
        report.ladder.append(outcome)
        if index > 0 and outcome.resumed_from and outcome.confidence != diagnostics.EXACT:
            # the carried prefix was widened under the previous rung's
            # limits; a cold run of this rung may keep what it lost
            obs.incr("driver.rung.cold_rerun")
            outcome = _attempt(program, rung, None, checkpointer, progress)
            report.ladder.append(outcome)
        result = outcome.result
        if result.confidence == diagnostics.EXACT:
            break
        if (
            rung.name in _CARTESIAN_RUNGS
            and result.giveup_before_widening
            and _only_no_match(result)
        ):
            giveups.append(rung.limits)
        carry = _carryable_snapshot(result)
    # the first exact rung or else the last one (the baseline, for the
    # default ladder) is the answer of record
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
    lost.  A fork also copies the parent's fault plane, whose counts
    would never reach the parent's coverage, so the worker drops it."""
    faults.uninstall()
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
