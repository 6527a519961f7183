"""Analyzer-vs-interpreter differential sweep over generated corpora.

For every generated program the harness runs both legs:

* **analyzer leg** — :func:`repro.core.driver.analyze_with_fallback`
  (the production entry point: the full precision-fallback ladder), whose
  chosen answer claims a set of ``(send CFG node, recv CFG node)`` match
  edges;
* **oracle leg** — the concrete interpreter at each of the program's
  ``np_values``, via :func:`repro.runtime.interpreter.observe_program`,
  which tolerates deadlock/step-limit and still returns the partial trace.

The soundness contract under test is the paper's: static matches must
*over-approximate* every observed dynamic match.  A dynamic edge missing
from the analyzer's claim is a **divergence** — the one outcome that is
never acceptable.  Everything else is classified by the analyzer's own
confidence (``exact`` / ``partial`` / ``gave_up``), with ``error``
reserved for harness-visible crashes (which a generated corpus should
never produce).

Divergent programs are greedily shrunk (:func:`shrink_divergence`) by
deleting statements and hoisting branch/loop bodies while the divergence
still reproduces, then filed under ``corpus/regressions/`` — the
permanent-regression inbox that ``tests/corpus/test_regressions.py``
replays forever after.

``fault="drop-match"`` injects a chaos-style analyzer bug (the claimed
edge set loses one edge) so the harness's own detection and shrinking
machinery stays tested even while the real analyzer is sound.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.driver import analyze_with_fallback, pool_map
from repro.core.engine import EngineLimits
from repro.corpus.generator import (
    GRAMMAR_VERSION,
    GeneratedProgram,
    generate,
    generate_from_id,
    seed_stream,
)
from repro.lang.ast import For, If, Program, Stmt, While
from repro.lang.build import to_source
from repro.obs import recorder as obs
from repro.runtime.interpreter import observe_program

#: programs per tier; ``smoke`` is pinned by the checked-in manifest,
#: ``pr``/``nightly`` regenerate from seeds (nothing large is checked in)
TIER_SIZES: Dict[str, int] = {"smoke": 50, "pr": 200, "nightly": 2000}

#: the seed the smoke manifest was minted from (CI passes it explicitly)
SMOKE_SEED = 1337

#: repository-relative default locations
DEFAULT_MANIFEST = Path("corpus") / "manifest_smoke.json"
DEFAULT_REGRESSIONS = Path("corpus") / "regressions"


def resolve_default(relative: Path) -> Path:
    """Resolve a repository-relative default path from any cwd.

    Prefers the cwd (a checkout the user is standing in); falls back to
    the repository this module was imported from, so ``repro sweep`` works
    outside the repo root too.
    """
    if relative.is_absolute() or relative.exists():
        return relative
    repo_root = Path(__file__).resolve().parents[3]
    candidate = repo_root / relative
    return candidate if candidate.exists() else relative

#: recognized chaos-style harness faults
FAULTS = ("drop-match",)

#: interpreter step budget per oracle execution
ORACLE_MAX_STEPS = 200_000

_OUTCOMES = ("exact", "partial", "gave_up", "divergent", "error")


# ---------------------------------------------------------------------------
# Single-program differential check
# ---------------------------------------------------------------------------


@dataclass
class Divergence:
    """One np at which the concrete run escaped the static claim."""

    num_procs: int
    #: dynamic (send node, recv node) edges the analyzer failed to claim
    missing_edges: List[Tuple[int, int]]
    #: oracle terminal status at this np (``ok`` / ``deadlock`` / ...)
    oracle_status: str
    detail: str = ""


@dataclass
class SweepRecord:
    """Everything the JSONL report persists about one program."""

    corpus_id: str
    seed: int
    outcome: str
    topology: str = ""
    rung: str = ""
    confidence: str = ""
    claimed_edges: int = 0
    dynamic_edges: int = 0
    np_values: List[int] = field(default_factory=list)
    oracle_statuses: List[str] = field(default_factory=list)
    diagnostic_codes: List[str] = field(default_factory=list)
    provenance_ids: List[int] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    fault: Optional[str] = None
    error: str = ""
    elapsed: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def _inject_fault(claimed: set, fault: Optional[str]) -> set:
    if fault is None:
        return claimed
    if fault == "drop-match":
        # drop the largest claimed edge: deterministic, and on any
        # communicating program it removes a real claim
        if claimed:
            claimed = set(claimed)
            claimed.discard(max(claimed))
        return claimed
    raise ValueError(f"unknown fault {fault!r} (choose from {FAULTS})")


def differential_check(
    program: Program,
    claimed: set,
    np_values: Sequence[int],
) -> Tuple[int, List[str], List[Divergence]]:
    """Run the oracle leg; return (dynamic edge count, statuses, divergences)."""
    dynamic_total: set = set()
    statuses: List[str] = []
    divergences: List[Divergence] = []
    for num_procs in np_values:
        with obs.span("sweep.oracle"):
            observation = observe_program(
                program, num_procs, max_steps=ORACLE_MAX_STEPS
            )
        statuses.append(observation.status)
        dynamic = set(observation.trace.topology().node_edges)
        dynamic_total |= dynamic
        missing = sorted(dynamic - claimed)
        if missing:
            divergences.append(
                Divergence(
                    num_procs=num_procs,
                    missing_edges=missing,
                    oracle_status=observation.status,
                    detail=(
                        f"{len(missing)} dynamic match(es) at np={num_procs} "
                        "not covered by the static claim"
                    ),
                )
            )
    return len(dynamic_total), statuses, divergences


def check_program(
    program: Program,
    np_values: Sequence[int],
    limits: Optional[EngineLimits] = None,
    fault: Optional[str] = None,
):
    """Both legs for one already-parsed program.

    Returns ``(report, claimed, dynamic_count, statuses, divergences)``;
    the sweep and the shrinker share this core.
    """
    with obs.span("sweep.analyze"):
        report = analyze_with_fallback(program, limits=limits)
    claimed = _inject_fault(set(report.result.matches), fault)
    dynamic_count, statuses, divergences = differential_check(
        program, claimed, np_values
    )
    return report, claimed, dynamic_count, statuses, divergences


def run_one(
    seed: int,
    limits: Optional[EngineLimits] = None,
    fault: Optional[str] = None,
    generated: Optional[GeneratedProgram] = None,
) -> SweepRecord:
    """Generate, analyze, and differentially check one seed."""
    start = time.perf_counter()
    generated = generated if generated is not None else generate(seed)
    record = SweepRecord(
        corpus_id=generated.corpus_id,
        seed=generated.seed,
        outcome="error",
        topology=str(generated.axes.get("topology", "")),
        np_values=list(generated.np_values),
        fault=fault,
    )
    try:
        program = generated.parse()
        report, claimed, dynamic_count, statuses, divergences = check_program(
            program, generated.np_values, limits=limits, fault=fault
        )
    except Exception as exc:  # noqa: BLE001 - the sweep must never crash
        record.error = f"{type(exc).__name__}: {exc}"
        record.elapsed = time.perf_counter() - start
        return record
    result = report.result
    record.rung = report.rung_name
    record.confidence = result.confidence
    record.claimed_edges = len(claimed)
    record.dynamic_edges = dynamic_count
    record.oracle_statuses = statuses
    record.diagnostic_codes = [diag.code for diag in result.diagnostics]
    record.provenance_ids = [
        diag.provenance_id
        for diag in result.diagnostics
        if diag.provenance_id is not None
    ]
    record.divergences = divergences
    record.outcome = "divergent" if divergences else result.confidence
    record.elapsed = time.perf_counter() - start
    return record


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _block_variants(block: Tuple[Stmt, ...]) -> Iterator[Tuple[Stmt, ...]]:
    """One-step reductions of a statement block: delete a statement, hoist
    a structured statement's body, or reduce inside a nested block."""
    for index, stmt in enumerate(block):
        rest = block[:index] + block[index + 1:]
        yield rest
        if isinstance(stmt, If):
            if stmt.then_body:
                yield block[:index] + stmt.then_body + block[index + 1:]
            if stmt.else_body:
                yield block[:index] + stmt.else_body + block[index + 1:]
            for variant in _block_variants(stmt.then_body):
                yield (
                    block[:index]
                    + (If(stmt.cond, variant, stmt.else_body),)
                    + block[index + 1:]
                )
            for variant in _block_variants(stmt.else_body):
                yield (
                    block[:index]
                    + (If(stmt.cond, stmt.then_body, variant),)
                    + block[index + 1:]
                )
        elif isinstance(stmt, While):
            if stmt.body:
                yield block[:index] + stmt.body + block[index + 1:]
            for variant in _block_variants(stmt.body):
                yield block[:index] + (While(stmt.cond, variant),) + block[index + 1:]
        elif isinstance(stmt, For):
            if stmt.body:
                yield block[:index] + stmt.body + block[index + 1:]
            for variant in _block_variants(stmt.body):
                yield (
                    block[:index]
                    + (For(stmt.var, stmt.start, stmt.stop, variant),)
                    + block[index + 1:]
                )


def _program_size(program: Program) -> int:
    return sum(1 for _ in program.walk())


def shrink_divergence(
    program: Program,
    reproduces: Callable[[Program], bool],
    max_attempts: int = 2000,
) -> Program:
    """Greedy structural minimization while the divergence reproduces.

    First-improvement descent: take the first one-step reduction that
    still diverges, restart from it, stop at a local minimum (or after
    ``max_attempts`` candidate evaluations — shrinking is best-effort).
    """
    current = program
    attempts = 0
    improved = True
    while improved and attempts < max_attempts:
        improved = False
        for variant in _block_variants(current.body):
            attempts += 1
            candidate = Program(variant)
            if _program_size(candidate) >= _program_size(current):
                continue
            try:
                if reproduces(candidate):
                    current = candidate
                    improved = True
                    break
            except Exception:  # noqa: BLE001 - a crashing candidate is not a repro
                continue
            if attempts >= max_attempts:
                break
    return current


def make_reproducer(
    np_values: Sequence[int],
    limits: Optional[EngineLimits] = None,
    fault: Optional[str] = None,
) -> Callable[[Program], bool]:
    """The shrinker's predicate: does this candidate still diverge?"""

    def reproduces(candidate: Program) -> bool:
        _report, _claimed, _dyn, _statuses, divergences = check_program(
            candidate, np_values, limits=limits, fault=fault
        )
        return bool(divergences)

    return reproduces


def file_regression(
    record: SweepRecord,
    minimized: Program,
    regressions_dir: Path,
) -> Path:
    """Persist a minimized divergent program for permanent regression."""
    regressions_dir.mkdir(parents=True, exist_ok=True)
    source = to_source(minimized)
    mpl_path = regressions_dir / f"{record.corpus_id}.mpl"
    mpl_path.write_text(source)
    meta = {
        "corpus_id": record.corpus_id,
        "seed": record.seed,
        "grammar_version": GRAMMAR_VERSION,
        "topology": record.topology,
        "np_values": record.np_values,
        "fault": record.fault,
        "divergences": [asdict(div) for div in record.divergences],
        "minimized_statements": _program_size(minimized),
        "source_sha256": hashlib.sha256(source.encode()).hexdigest(),
    }
    (regressions_dir / f"{record.corpus_id}.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    return mpl_path


# ---------------------------------------------------------------------------
# Manifest (the checked-in smoke tier)
# ---------------------------------------------------------------------------


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def write_manifest(
    path: Path,
    base_seed: int = SMOKE_SEED,
    count: Optional[int] = None,
    tier: str = "smoke",
) -> dict:
    """Mint the tier manifest: seeds plus source digests for drift detection."""
    count = count if count is not None else TIER_SIZES[tier]
    entries = []
    for seed in seed_stream(base_seed, count):
        generated = generate(seed)
        entries.append(
            {
                "corpus_id": generated.corpus_id,
                "seed": generated.seed,
                "topology": generated.axes.get("topology", ""),
                "np_values": list(generated.np_values),
                "source_sha256": _source_digest(generated.source),
            }
        )
    manifest = {
        "grammar_version": GRAMMAR_VERSION,
        "tier": tier,
        "base_seed": base_seed,
        "count": count,
        "programs": entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def load_manifest(path: Path) -> List[GeneratedProgram]:
    """Regenerate every manifest entry from its id, verifying no drift.

    A digest mismatch means the generator grammar changed without a
    ``GRAMMAR_VERSION`` bump + manifest regeneration — fail loudly.
    """
    manifest = json.loads(Path(path).read_text())
    if manifest["grammar_version"] != GRAMMAR_VERSION:
        raise ValueError(
            f"manifest {path} is grammar v{manifest['grammar_version']}, "
            f"generator is v{GRAMMAR_VERSION}; regenerate it with "
            "'repro sweep --write-manifest'"
        )
    programs: List[GeneratedProgram] = []
    for entry in manifest["programs"]:
        generated = generate_from_id(entry["corpus_id"])
        digest = _source_digest(generated.source)
        if digest != entry["source_sha256"]:
            raise ValueError(
                f"manifest drift for {entry['corpus_id']}: regenerated source "
                f"digest {digest[:12]} != manifest {entry['source_sha256'][:12]}; "
                "the grammar changed — bump GRAMMAR_VERSION and regenerate "
                "the manifest"
            )
        programs.append(generated)
    return programs


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


@dataclass
class SweepSummary:
    """Aggregated sweep result (what the CLI prints and CI gates on)."""

    tier: str
    base_seed: int
    grammar_version: int
    total: int = 0
    jobs: int = 1
    counts: Dict[str, int] = field(default_factory=dict)
    by_topology: Dict[str, int] = field(default_factory=dict)
    divergent_ids: List[str] = field(default_factory=list)
    error_ids: List[str] = field(default_factory=list)
    regression_files: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def failures(self) -> int:
        """Outcomes CI must fail on: divergences and harness errors."""
        return self.counts.get("divergent", 0) + self.counts.get("error", 0)

    def to_json(self) -> str:
        return json.dumps({"summary": asdict(self)}, sort_keys=True)

    def table(self) -> str:
        lines = [
            f"sweep tier={self.tier} seed={self.base_seed} "
            f"grammar=v{self.grammar_version} programs={self.total} "
            f"jobs={self.jobs}",
            f"  {'outcome':<12} count",
        ]
        for outcome in _OUTCOMES:
            lines.append(f"  {outcome:<12} {self.counts.get(outcome, 0):>5}")
        if self.by_topology:
            shapes = ", ".join(
                f"{name}={count}"
                for name, count in sorted(self.by_topology.items())
            )
            lines.append(f"  topologies: {shapes}")
        if self.divergent_ids:
            lines.append(f"  DIVERGENT: {', '.join(self.divergent_ids)}")
        if self.error_ids:
            lines.append(f"  ERRORS: {', '.join(self.error_ids)}")
        if self.regression_files:
            lines.append(
                f"  regressions filed: {', '.join(self.regression_files)}"
            )
        lines.append(f"  elapsed: {self.elapsed:.2f}s")
        return "\n".join(lines)


def seeds_for_tier(tier: str, base_seed: int) -> List[int]:
    """The seed list a (non-manifest) tier derives from its base seed."""
    if tier not in TIER_SIZES:
        raise ValueError(f"unknown tier {tier!r} (choose from {sorted(TIER_SIZES)})")
    return seed_stream(base_seed, TIER_SIZES[tier])


def run_sweep(
    seeds: Sequence[int],
    tier: str = "pr",
    base_seed: int = SMOKE_SEED,
    jobs: int = 1,
    limits: Optional[EngineLimits] = None,
    fault: Optional[str] = None,
    shrink: bool = False,
    report_path: Optional[Path] = None,
    regressions_dir: Optional[Path] = None,
    on_record: Optional[Callable[[SweepRecord], None]] = None,
) -> SweepSummary:
    """Differentially check every seed; report, count, and (optionally)
    shrink-and-file divergences."""
    start = time.perf_counter()
    summary = SweepSummary(
        tier=tier,
        base_seed=base_seed,
        grammar_version=GRAMMAR_VERSION,
        jobs=max(1, jobs),
    )
    records: List[SweepRecord] = []

    report_file = None
    if report_path is not None:
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        report_file = open(report_path, "w")
    try:
        check = partial(run_one, limits=limits, fault=fault)
        with obs.span("sweep.run"):
            for _seed, record in pool_map(check, seeds, summary.jobs):
                records.append(record)
                _ingest(summary, record, report_file, on_record)

        if shrink:
            for record in records:
                if record.outcome != "divergent":
                    continue
                generated = generate(record.seed)
                reproduces = make_reproducer(
                    generated.np_values, limits=limits, fault=fault
                )
                minimized = shrink_divergence(generated.parse(), reproduces)
                target_dir = Path(regressions_dir or DEFAULT_REGRESSIONS)
                filed = file_regression(record, minimized, target_dir)
                summary.regression_files.append(str(filed))
                obs.incr("sweep.regressions_filed")

        summary.elapsed = time.perf_counter() - start
        if report_file is not None:
            report_file.write(summary.to_json() + "\n")
    finally:
        if report_file is not None:
            report_file.close()
    return summary


def _ingest(
    summary: SweepSummary,
    record: SweepRecord,
    report_file,
    on_record: Optional[Callable[[SweepRecord], None]],
) -> None:
    summary.total += 1
    summary.counts[record.outcome] = summary.counts.get(record.outcome, 0) + 1
    if record.topology:
        summary.by_topology[record.topology] = (
            summary.by_topology.get(record.topology, 0) + 1
        )
    if record.outcome == "divergent":
        summary.divergent_ids.append(record.corpus_id)
    elif record.outcome == "error":
        summary.error_ids.append(record.corpus_id)
    obs.incr("sweep.programs")
    obs.incr(f"sweep.outcome.{record.outcome}")
    if report_file is not None:
        report_file.write(record.to_json() + "\n")
    if on_record is not None:
        on_record(record)


def smoke_programs(manifest_path: Optional[Path] = None) -> List[GeneratedProgram]:
    """The checked-in smoke corpus (regenerated + drift-verified)."""
    return load_manifest(manifest_path or DEFAULT_MANIFEST)


__all__ = [
    "Divergence",
    "SweepRecord",
    "SweepSummary",
    "TIER_SIZES",
    "SMOKE_SEED",
    "FAULTS",
    "DEFAULT_MANIFEST",
    "DEFAULT_REGRESSIONS",
    "check_program",
    "differential_check",
    "file_regression",
    "load_manifest",
    "make_reproducer",
    "run_one",
    "run_sweep",
    "seeds_for_tier",
    "shrink_divergence",
    "smoke_programs",
    "write_manifest",
]
