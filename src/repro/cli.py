"""Command-line driver: ``python -m repro [options] <program.mpl | name>``.

Examples::

    python -m repro exchange_with_root             # analyze a corpus program
    python -m repro --list                         # list corpus programs
    python -m repro my_program.mpl --np 8          # analyze + validate a file
    python -m repro pingpong --constants           # constant propagation
    python -m repro message_leak --bugs            # bug detection
    python -m repro profile mdcask_full            # Section IX cost profile
    python -m repro sweep --tier smoke --seed 1337 # differential corpus sweep
    python -m repro mdcask_full --checkpoint-dir . # crash-safe snapshots
    python -m repro resume mdcask_full             # continue an interrupted run
    python -m repro explain pingpong --why-match   # causal chain of a match
    python -m repro explain bad --why-top          # why did a node fall to T?
    python -m repro explain pingpong --trace t.json  # Perfetto timeline
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analyses.bugs import detect_bugs
from repro.analyses.cartesian import CartesianClient
from repro.analyses.constprop import propagate_constants
from repro.analyses.patterns import classify_topology
from repro.analyses.simple_symbolic import analyze_program
from repro.core import diagnostics
from repro.core.driver import analyze_with_fallback
from repro.core.engine import EngineLimits
from repro.core.errors import GiveUp, MalformedCFG
from repro.lang import parse, programs
from repro.obs import export, profile_program, provenance, slog
from repro.runtime import DeadlockError, InputExhaustedError, MPLAssertionError, StepLimitError


def _add_log_level(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=sorted(slog.LEVELS),
        help="mirror recorder events to stderr as single-line JSON at this "
             "level (debug|info|warning|error); the REPRO_LOG environment "
             "variable sets the same knob",
    )


def _load(target: str):
    path = Path(target)
    if path.exists():
        return parse(path.read_text()), None
    try:
        spec = programs.get(target)
    except KeyError:
        raise SystemExit(
            f"error: {target!r} is neither a file nor a corpus program "
            f"(try --list)"
        )
    return spec.parse(), spec


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-sensitive static dataflow for MPL programs",
    )
    parser.add_argument("target", nargs="?", help="MPL file or corpus program name")
    parser.add_argument("--list", action="store_true", help="list corpus programs")
    parser.add_argument(
        "--np", type=int, default=8, help="process count for validation runs"
    )
    parser.add_argument(
        "--inputs", type=int, nargs="*", default=None,
        help="values consumed by input() calls",
    )
    parser.add_argument(
        "--constants", action="store_true", help="run constant propagation"
    )
    parser.add_argument("--bugs", action="store_true", help="run bug detection")
    parser.add_argument(
        "--no-validate", action="store_true", help="skip the concrete cross-check"
    )
    parser.add_argument(
        "--fallback", action="store_true",
        help="on a non-exact result, climb the precision-fallback ladder "
             "(escalated limits, then simpler clients, then the MPI-CFG "
             "baseline) and report which rung answered",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="paper-fidelity mode: abort the whole analysis on the first "
             "failure instead of localizing T to one pCFG node",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="wall-clock budget for the engine run, in seconds",
    )
    parser.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="engine step budget (default: 20000)",
    )
    parser.add_argument(
        "--max-state-bytes", type=int, default=None, metavar="BYTES",
        help="retained-state memory budget for the engine run",
    )
    parser.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe engine snapshots into DIR "
             "(default when checkpointing is active: .repro-ckpt)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="also snapshot every N engine steps (0: snapshot only on "
             "budget trips and interpreter exit)",
    )
    parser.add_argument(
        "--resume", nargs="?", const="auto", default=None, metavar="SNAPSHOT",
        help="warm-start from a snapshot file; with no value, use the "
             "target's snapshot in the checkpoint directory (a missing or "
             "stale snapshot degrades to a cold start, never an error)",
    )
    _add_log_level(parser)
    return parser


def _engine_limits(args) -> EngineLimits:
    limits = EngineLimits(strict=args.strict, deadline_sec=args.deadline,
                          max_state_bytes=args.max_state_bytes)
    if args.max_steps is not None:
        limits.max_steps = args.max_steps
    return limits


def _checkpoint_config(args, program_name: str):
    """Build the ``(checkpointer, resume)`` pair for this invocation.

    Checkpointing activates when any of ``--checkpoint-dir``,
    ``--checkpoint-every`` or ``--resume`` is given; otherwise both are
    None and the engine runs exactly as before.
    """
    from repro.core.checkpoint import Checkpointer

    wants = (
        args.checkpoint_dir is not None
        or args.checkpoint_every > 0
        or args.resume is not None
    )
    if not wants:
        return None, None
    directory = Path(args.checkpoint_dir or ".repro-ckpt")
    checkpointer = Checkpointer(
        directory, name=program_name, every_steps=args.checkpoint_every
    )
    if args.resume is None:
        resume = None
    elif args.resume == "auto":
        resume = checkpointer.path
    else:
        resume = Path(args.resume)
    return checkpointer, resume


def _print_degraded(result) -> None:
    """Report a non-exact engine result: reason, diagnostics, and whatever
    sound partial topology survived."""
    print(f"analysis gave up (T): {result.give_up_reason}")
    print(f"confidence: {result.confidence} "
          f"({diagnostics.summarize(result.diagnostics)})")
    for diag in result.diagnostics:
        print(f"  {diag.format()}")
    if result.matches:
        print("partial communication topology (sound, possibly incomplete):")
        print(result.topology.describe())


def build_profile_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro profile",
        description="Section IX cost profile of one analysis run",
    )
    parser.add_argument("target", help="MPL file or corpus program name")
    parser.add_argument(
        "--json", dest="json_path", default="profile.json",
        help="where to write the JSON profile (default: profile.json)",
    )
    parser.add_argument(
        "--no-json", action="store_true", help="print the table only"
    )
    parser.add_argument(
        "--naive", action="store_true",
        help="profile the naive full-reclosure strategy instead",
    )
    _add_log_level(parser)
    return parser


def profile_main(argv) -> int:
    args = build_profile_parser().parse_args(argv)
    if args.log_level:
        slog.configure(args.log_level)
    program, spec = _load(args.target)
    name = spec.name if spec else Path(args.target).stem
    profile, result = profile_program(program, name=name, naive=args.naive)
    print(profile.table())
    if not args.no_json:
        Path(args.json_path).write_text(profile.to_json())
        print(f"\nwrote {args.json_path}")
    if result.gave_up:
        print(f"analysis gave up (T): {result.give_up_reason}")
        return 1
    return 0


# -- repro explain -------------------------------------------------------------

_EXPLAIN_CLIENTS = ("cartesian", "simple-symbolic", "constprop")


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explain",
        description="Re-run an analysis with the provenance flight recorder "
                    "on and walk the derivation DAG backward: why did a node "
                    "fall to T, why did (or didn't) a match fire, how was a "
                    "node's state derived?",
    )
    parser.add_argument("target", help="MPL file or corpus program name")
    parser.add_argument(
        "--client", choices=_EXPLAIN_CLIENTS, default="cartesian",
        help="client analysis to run (default: cartesian)",
    )
    parser.add_argument(
        "--why-top", action="store_true",
        help="explain the first degradation: the causal chain from the "
             "entry to the event (match failure, widen, client fault, "
             "budget trip) that degraded the run",
    )
    parser.add_argument(
        "--why-match", action="store_true",
        help="explain send-receive matching: the causal chain behind each "
             "established match, or the last failed attempts when none was",
    )
    parser.add_argument(
        "--node", default=None, metavar="LOCS",
        help="explain one pCFG node: comma-separated CFG node ids, e.g. "
             "'3,7' (see the node keys in diagnostics/topology output)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="export the run's Chrome trace (Perfetto-loadable JSON)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="FILE",
        help="export the run's JSONL event journal",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="paper-fidelity mode (abort on first failure)",
    )
    parser.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="engine step budget (default: 20000)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="wall-clock budget for the engine run, in seconds",
    )
    _add_log_level(parser)
    return parser


def _explain_client(name: str):
    if name == "simple-symbolic":
        from repro.analyses.simple_symbolic import SimpleSymbolicClient

        return SimpleSymbolicClient()
    if name == "constprop":
        from repro.analyses.constprop import ConstantPropagationClient

        return ConstantPropagationClient()
    return CartesianClient()


def _print_chain(prov, event_id, cfg, header: str) -> bool:
    """Print one causal chain (oldest first); False when unresolvable."""
    chain = prov.chain(event_id)
    if not chain:
        return False
    print(header)
    for depth, event in enumerate(chain):
        indent = "  " * min(depth, 8)
        print(f"  {indent}{event.describe(cfg)}")
        if event.data:
            rendered = json.dumps(event.data, sort_keys=True, default=str)
            if len(rendered) > 240:
                rendered = rendered[:240] + "..."
            print(f"  {indent}  data: {rendered}")
    return True


def explain_main(argv) -> int:
    args = build_explain_parser().parse_args(argv)
    if args.log_level:
        slog.configure(args.log_level)
    program, _spec = _load(args.target)
    limits = EngineLimits(strict=args.strict, deadline_sec=args.deadline)
    if args.max_steps is not None:
        limits.max_steps = args.max_steps
    client = _explain_client(args.client)
    with provenance.recording() as prov:
        result, cfg, client = analyze_program(program, client, limits)

    print(
        f"confidence: {result.confidence} "
        f"({diagnostics.summarize(result.diagnostics)}); "
        f"{prov.total_events} provenance events, {result.steps} engine steps"
    )
    if args.trace:
        export.write_chrome_trace(args.trace, prov)
        print(f"wrote Chrome trace: {args.trace}")
    if args.journal:
        export.write_journal(args.journal, prov)
        print(f"wrote event journal: {args.journal}")

    status = 0
    explained = False
    if args.why_top:
        explained = True
        traced = [d for d in result.diagnostics if d.provenance_id is not None]
        if not traced:
            print("why-top: nothing degraded — the run needed no T and "
                  "tripped no budget")
            status = 1
        for diag in traced:
            ok = _print_chain(
                prov, diag.provenance_id, cfg,
                f"why-top: [{diag.code}] {diag.message}",
            )
            if not ok:
                print(f"why-top: [{diag.code}] provenance event "
                      f"#{diag.provenance_id} is not in this run's journal")
                status = 1
    if args.why_match:
        explained = True
        matches = [e for e in prov.events() if e.kind == "match"]
        if matches:
            for event in matches:
                _print_chain(
                    prov, event.event_id, cfg,
                    f"why-match: {event.detail}",
                )
        else:
            attempts = [e for e in prov.events() if e.kind == "match_attempt"]
            if attempts:
                _print_chain(
                    prov, attempts[-1].event_id, cfg,
                    "why-match: no match established; last attempt:",
                )
            else:
                print("why-match: no send-receive matching occurred")
                status = 1
    if args.node:
        explained = True
        try:
            locs = tuple(int(part) for part in args.node.split(",") if part.strip())
        except ValueError:
            raise SystemExit(f"error: --node expects comma-separated CFG "
                             f"node ids, got {args.node!r}")
        events = prov.events_for_node(locs)
        if not events:
            print(f"node {locs}: no recorded events (node never reached)")
            status = 1
        else:
            _print_chain(
                prov, events[-1].event_id, cfg,
                f"node {locs}: derivation of its current state",
            )
    if not explained:
        # no question asked: summarize the journal
        counts = prov.kind_counts()
        print("event kinds: " + ", ".join(
            f"{count}x {kind}" for kind, count in sorted(counts.items())
        ))
        last = prov.last_event_id
        if last is not None:
            _print_chain(prov, last, cfg, "causal chain of the last event:")
    return status


# -- repro sweep ---------------------------------------------------------------


def build_sweep_parser() -> argparse.ArgumentParser:
    from repro.corpus.sweep import FAULTS, SMOKE_SEED, TIER_SIZES

    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Corpus-scale differential sweep: generate seeded MPL "
                    "programs, run each through the fallback ladder AND the "
                    "concrete interpreter, and check that static matches "
                    "cover every observed dynamic match (soundness). Any "
                    "divergence fails the sweep.",
    )
    parser.add_argument(
        "--tier", choices=sorted(TIER_SIZES), default="smoke",
        help="corpus size tier: smoke (~50, pinned by the checked-in "
             "manifest), pr (~200), nightly (~2000)",
    )
    parser.add_argument(
        "--seed", type=int, default=SMOKE_SEED, metavar="N",
        help="base seed the tier's program seeds derive from (the smoke "
             "tier is pinned by corpus/manifest_smoke.json instead); "
             "printed in CI so any run reproduces exactly",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sweep (multiprocessing)",
    )
    parser.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="override the tier's program count",
    )
    parser.add_argument(
        "--report", default=None, metavar="FILE",
        help="write a JSONL report: one record per program plus a final "
             "summary line",
    )
    parser.add_argument(
        "--shrink", action="store_true",
        help="greedily minimize each divergent program and file it under "
             "the regressions directory",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="manifest path for the smoke tier "
             "(default: corpus/manifest_smoke.json)",
    )
    parser.add_argument(
        "--regressions-dir", default=None, metavar="DIR",
        help="where --shrink files minimized reproducers "
             "(default: corpus/regressions)",
    )
    parser.add_argument(
        "--write-manifest", action="store_true",
        help="regenerate the tier manifest from --seed and exit "
             "(required after any grammar change)",
    )
    parser.add_argument(
        "--inject-fault", choices=FAULTS, default=None, metavar="FAULT",
        help="harness self-test: inject a chaos-style analyzer fault "
             "(drop-match removes one claimed edge) so the sweep MUST "
             "report divergences",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SEC",
        help="per-rung wall-clock budget for each program's analysis",
    )
    parser.add_argument(
        "--max-steps", type=int, default=None, metavar="N",
        help="engine step budget per rung (default: 20000)",
    )
    _add_log_level(parser)
    return parser


def sweep_main(argv) -> int:
    from repro.corpus import sweep as sweep_mod
    from repro.obs import recorder as obs_recorder

    args = build_sweep_parser().parse_args(argv)
    if args.log_level:
        slog.configure(args.log_level)

    if args.manifest:
        manifest_path = Path(args.manifest)
    else:
        manifest_path = sweep_mod.resolve_default(sweep_mod.DEFAULT_MANIFEST)
    if args.write_manifest:
        manifest = sweep_mod.write_manifest(
            manifest_path, base_seed=args.seed, count=args.count, tier=args.tier
        )
        print(
            f"wrote {manifest_path}: {len(manifest['programs'])} programs, "
            f"grammar v{manifest['grammar_version']}, seed {args.seed}"
        )
        return 0

    limits = None
    if args.deadline is not None or args.max_steps is not None:
        limits = EngineLimits(deadline_sec=args.deadline)
        if args.max_steps is not None:
            limits.max_steps = args.max_steps

    if args.tier == "smoke":
        try:
            programs = sweep_mod.load_manifest(manifest_path)
        except FileNotFoundError:
            print(
                f"error: smoke manifest {manifest_path} not found "
                "(regenerate with 'repro sweep --write-manifest', or pass "
                "--manifest FILE)"
            )
            return 2
        except ValueError as exc:
            print(f"error: {exc}")
            return 2
        seeds = [generated.seed for generated in programs]
        if args.count is not None:
            seeds = seeds[: args.count]
        print(
            f"smoke tier: {len(seeds)} programs from {manifest_path} "
            f"(grammar v{sweep_mod.GRAMMAR_VERSION}, drift-checked)"
        )
    else:
        count = args.count or sweep_mod.TIER_SIZES[args.tier]
        seeds = sweep_mod.seed_stream(args.seed, count)
        print(
            f"{args.tier} tier: {count} programs derived from seed "
            f"{args.seed} (reproduce with --tier {args.tier} "
            f"--seed {args.seed})"
        )

    with obs_recorder.recording() as recorder:
        summary = sweep_mod.run_sweep(
            seeds,
            tier=args.tier,
            base_seed=args.seed,
            jobs=args.jobs,
            limits=limits,
            fault=args.inject_fault,
            shrink=args.shrink,
            report_path=Path(args.report) if args.report else None,
            regressions_dir=(
                Path(args.regressions_dir) if args.regressions_dir else None
            ),
        )
        counters = dict(recorder.counters)
    print(summary.table())
    sweep_counters = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith("sweep.")
    }
    if sweep_counters:
        print("  counters: " + ", ".join(
            f"{name}={value}" for name, value in sweep_counters.items()
        ))
    if args.report:
        print(f"wrote JSONL report: {args.report}")
    if summary.failures:
        print(
            f"sweep FAILED: {summary.counts.get('divergent', 0)} divergent, "
            f"{summary.counts.get('error', 0)} errored "
            f"(reproduce any program with its corpus_id via "
            f"repro.corpus.generate_from_id)"
        )
        return 1
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the analysis service: a crash-safe HTTP daemon with "
                    "admission control, a content-addressed result cache, "
                    "retry/backoff for lost or hung worker processes, and graceful "
                    "SIGTERM drain (see DESIGN.md section 13).",
    )
    parser.add_argument(
        "--state-dir", default=".repro-serve", metavar="DIR",
        help="durable state: job journal, result cache, daemon.json discovery "
             "file (default: %(default)s)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8642,
        help="listen port (0 picks an ephemeral port, published in "
             "daemon.json; default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker threads (default: %(default)s)"
    )
    parser.add_argument(
        "--queue-size", type=int, default=64,
        help="bounded admission queue; beyond it requests are shed with 429 "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--degrade-at", type=float, default=0.75, metavar="FRACTION",
        help="queue fill fraction above which executions degrade to the "
             "baseline-only ladder (default: %(default)s)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2,
        help="attempt retries after worker loss or watchdog timeout "
             "(default: %(default)s)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SEC",
        help="per-attempt watchdog override (default: derived from the "
             "ladder's deadline budget)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=30.0, metavar="SEC",
        help="graceful-shutdown budget; unfinished jobs stay journaled for "
             "the next daemon (default: %(default)s)",
    )
    parser.add_argument(
        "--deadline-sec", type=float, default=30.0,
        help="default per-job wall-clock budget (default: %(default)s)",
    )
    parser.add_argument(
        "--tenants", default=None, metavar="FILE",
        help='per-tenant QoS budgets as JSON: {"name": {"deadline_sec": ..., '
             '"max_steps": ..., "max_state_bytes": ...}}',
    )
    parser.add_argument(
        "--inline", action="store_true",
        help="run attempts in worker threads instead of disposable worker "
             "processes (tests/bench; no crash isolation)",
    )
    parser.add_argument(
        "--allow-test-faults", action="store_true",
        help="honor test_fault injection directives in requests (crash "
             "tests only; never in production)",
    )
    _add_log_level(parser)
    return parser


def serve_main(argv) -> int:
    from repro.serve.daemon import ServiceConfig, TenantBudget, load_tenants
    from repro.serve.http import run_server
    from repro.serve.retry import RetryPolicy

    args = build_serve_parser().parse_args(argv)
    if args.log_level:
        slog.configure(args.log_level)
    tenants = {}
    if args.tenants:
        tenants = load_tenants(args.tenants)
    tenants.setdefault("default", TenantBudget(deadline_sec=args.deadline_sec))
    config = ServiceConfig(
        state_dir=Path(args.state_dir),
        workers=args.workers,
        queue_size=args.queue_size,
        degrade_at=args.degrade_at,
        isolation="inline" if args.inline else "process",
        retry=RetryPolicy(max_retries=args.max_retries),
        job_timeout_sec=args.job_timeout,
        allow_test_faults=args.allow_test_faults,
        tenants=tenants,
    )
    run_server(
        config, host=args.host, port=args.port,
        drain_timeout_sec=args.drain_timeout,
    )
    return 0


def build_faults_parser() -> argparse.ArgumentParser:
    from repro.faults.plane import CATALOG

    parser = argparse.ArgumentParser(
        prog="repro faults",
        description="Soundness-under-fault invariant sweep: run seeded "
                    "fault schedules against the full pipeline (service, "
                    "checkpointer, HTTP, metrics) and machine-check that every "
                    "answer stays exact-or-accounted, sound, replayable, "
                    "and cache-clean. Any violation fails the sweep and "
                    "prints the REPRO_FAULT_SEED that replays it.",
    )
    parser.add_argument(
        "--seed", type=int, default=1337, metavar="N",
        help="base seed the per-case fault schedules derive from",
    )
    parser.add_argument(
        "--cases", type=int, default=2 * len(CATALOG), metavar="N",
        help=f"number of schedules to run (catalog has {len(CATALOG)} "
             "points; a full multiple rotates through every one)",
    )
    parser.add_argument(
        "--replay", metavar="BASE:CASE", default=None,
        help="re-run exactly one failing case from its printed "
             "REPRO_FAULT_SEED label (e.g. --replay 1337:5)",
    )
    parser.add_argument(
        "--report", metavar="FILE", default=None,
        help="write per-case verdicts + merged coverage as JSONL",
    )
    parser.add_argument(
        "--require-coverage", action="store_true",
        help="also fail if any catalog point never fired across the sweep, "
             "or any case's focus point never fired in that case",
    )
    parser.add_argument(
        "--state-root", metavar="DIR", default=None,
        help="directory for per-case service state (default: a temp dir)",
    )
    _add_log_level(parser)
    return parser


def faults_main(argv) -> int:
    import tempfile

    from repro.faults import invariants
    from repro.faults.plane import CATALOG

    args = build_faults_parser().parse_args(argv)
    if args.log_level:
        slog.configure(args.log_level)

    if args.replay:
        base_text, _, case_text = args.replay.partition(":")
        try:
            base_seed, case_index = int(base_text), int(case_text or "0")
        except ValueError:
            print(f"error: --replay wants BASE:CASE, got {args.replay!r}")
            return 2
        cases = [case_index]
    else:
        base_seed, cases = args.seed, list(range(args.cases))

    if args.state_root:
        state_root = Path(args.state_root)
        state_root.mkdir(parents=True, exist_ok=True)
        cleanup = None
    else:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-faults-")
        state_root = Path(cleanup.name)

    print(
        f"fault sweep: {len(cases)} case(s), base seed {base_seed}, "
        f"{len(CATALOG)} catalog points"
    )
    report = invariants.SweepReport(base_seed=base_seed)
    try:
        for case_index in cases:
            result = invariants.run_case(base_seed, case_index, state_root)
            report.cases.append(result)
            fired = sorted(result.coverage and {
                name for name, cell in result.coverage.items() if cell["fired"]
            } or ())
            marker = "ok  " if result.ok else "FAIL"
            print(
                f"  {marker} case {result.case:3d} focus={result.focus:24s} "
                f"channel={result.channel:7s} fired={','.join(fired) or '-'}"
            )
            for violation in result.violations:
                print(f"       {violation}")
    finally:
        if cleanup is not None:
            cleanup.cleanup()

    summary = report.summary()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            for case_result in report.cases:
                handle.write(json.dumps(case_result.to_json()) + "\n")
            handle.write(json.dumps({"summary": summary}) + "\n")
        print(f"report: {args.report}")

    failures = report.failures
    unexercised = report.unexercised()
    unfired = report.unfired_foci
    print(
        f"{len(report.cases)} case(s): {len(report.cases) - len(failures)} ok, "
        f"{len(failures)} failed; "
        f"{len(CATALOG) - len(unexercised)}/{len(CATALOG)} fault points fired; "
        f"{len(unfired)} case(s) never fired their focus"
    )
    if unexercised:
        print(f"never fired: {', '.join(unexercised)}")
    for case_result in unfired:
        print(f"focus never fired: case {case_result.case} ({case_result.focus})")
    for case_result in failures:
        print(f"replay with: REPRO_FAULT_SEED={case_result.label}")
    if failures:
        return 1
    if args.require_coverage and unexercised and not args.replay:
        print("error: --require-coverage set and some points never fired")
        return 1
    if args.require_coverage and unfired:
        print("error: --require-coverage set and some cases never fired their focus")
        return 1
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Stitch one request's per-process span shards (daemon, "
                    "attempt workers) into a single Chrome trace loadable "
                    "in chrome://tracing or "
                    "ui.perfetto.dev. Trace ids come back in every service "
                    "response and streaming admission event.",
    )
    parser.add_argument("trace_id", help="trace id from a service response")
    parser.add_argument(
        "--state-dir", default=".repro-serve", metavar="DIR",
        help="the daemon's state directory; span shards live under "
             "DIR/traces (default: %(default)s)",
    )
    parser.add_argument(
        "--sink", default=None, metavar="DIR",
        help="read span shards from DIR directly (overrides --state-dir)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="output path (default: trace-<trace_id>.json)",
    )
    _add_log_level(parser)
    return parser


def trace_main(argv) -> int:
    from repro.obs import trace as trace_mod

    args = build_trace_parser().parse_args(argv)
    if args.log_level:
        slog.configure(args.log_level)
    sink = Path(args.sink) if args.sink else Path(args.state_dir) / "traces"
    try:
        document = trace_mod.stitch(sink, args.trace_id)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out) if args.out else Path(f"trace-{args.trace_id}.json")
    out.write_text(json.dumps(document, indent=1))
    spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
    pids = {e["pid"] for e in spans}
    names = sorted({e["name"] for e in spans})
    span_of = {e["args"].get("span"): e for e in spans}
    roots = [
        e for e in spans if e["args"].get("parent") not in span_of
    ]
    wall_us = 0
    if spans:
        start = min(e["ts"] for e in spans)
        end = max(e["ts"] + e.get("dur", 0) for e in spans)
        wall_us = end - start
    print(
        f"trace {args.trace_id}: {len(spans)} spans across {len(pids)} "
        f"process(es), {wall_us / 1000.0:.1f} ms wall"
    )
    print(f"  root span(s): " + ", ".join(sorted(e["name"] for e in roots)))
    print(f"  span names: {', '.join(names)}")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    """Top-level entry point: GiveUp-family failures exit nonzero with a
    one-line message, never a traceback."""
    try:
        return _main(argv)
    except MalformedCFG as exc:
        print(f"error: malformed CFG: {exc}", file=sys.stderr)
        return 1
    except GiveUp as exc:
        print(f"error: analysis gave up (T): {exc.reason}", file=sys.stderr)
        return 1


def _main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    slog.configure_from_env()
    if argv and argv[0] == "profile":
        return profile_main(argv[1:])
    if argv and argv[0] == "explain":
        return explain_main(argv[1:])
    if argv and argv[0] == "sweep":
        return sweep_main(argv[1:])
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "faults":
        return faults_main(argv[1:])
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "resume":
        # ``repro resume <target> [...]`` == ``repro <target> [...] --resume``
        return _main(list(argv[1:]) + ["--resume"])
    args = build_parser().parse_args(argv)
    if args.log_level:
        slog.configure(args.log_level)
    if args.list:
        for spec in programs.all_specs():
            print(f"{spec.name:26s} {spec.paper_ref:18s} {spec.pattern}")
        return 0
    if not args.target:
        build_parser().print_help()
        return 2

    program, spec = _load(args.target)
    name = spec.name if spec else Path(args.target).stem
    checkpointer, resume = _checkpoint_config(args, name)
    limits = _engine_limits(args)

    if args.bugs:
        report, result, _cfg = detect_bugs(program)
        print(report.describe())
        return 0 if report.is_clean() else 1

    if args.constants:
        report, result, cfg = propagate_constants(
            program, limits=limits, checkpointer=checkpointer, resume=resume
        )
        for node_id in sorted(report.parallel):
            print(
                f"print at node {cfg.node(node_id).label}: "
                f"parallel={report.parallel[node_id]} "
                f"sequential={report.sequential[node_id]}"
            )
        return 0

    if args.fallback:
        report = analyze_with_fallback(
            program, limits=limits, checkpointer=checkpointer, resume=resume
        )
        for entry in report.ladder:
            print(f"rung {entry.describe()}")
        print(f"answer from rung: {report.rung_name}")
        result, cfg = report.result, report.cfg
        if result.confidence != diagnostics.EXACT:
            if result.diagnostics:
                _print_degraded(result)
            else:
                # the baseline rung: total but over-approximate
                print("communication topology (baseline over-approximation):")
                print(result.topology.describe())
            return 1
    else:
        result, cfg, client = analyze_program(
            program, CartesianClient(), limits,
            checkpointer=checkpointer, resume=resume,
        )
        if result.confidence != diagnostics.EXACT:
            _print_degraded(result)
            return 1
    print("communication topology:")
    print(result.topology.describe())
    if not args.no_validate:
        try:
            report = classify_topology(
                program, result, cfg, probe_np=args.np, inputs=args.inputs
            )
        except DeadlockError as deadlock:
            print(f"validation run deadlocked: {deadlock}")
            return 1
        except (InputExhaustedError, MPLAssertionError, StepLimitError,
                ZeroDivisionError, NameError, ValueError) as failure:
            # the program itself failed at the probed np and inputs (an
            # invalid rank is a ValueError)
            print(f"validation run failed: {failure} (set the program's input() "
                  "values with --inputs, or pass --no-validate)")
            return 1
        print(f"pattern: {report.pattern} ({report.confidence})")
        if report.suggestion:
            print(f"suggested rewrite: {report.suggestion}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
