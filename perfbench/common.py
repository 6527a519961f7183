"""Shared plumbing: source discovery, statistics, set-up probes, answers.

Nothing here imports ``repro`` at module level: the set-up probes time
imports as part of set-up, so the program is imported only once a
workload asks for it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: spans, answer digests and daemon state dirs; listed in .gitignore
OUT = BENCH_DIR / "out"

#: fresh processes timed per run for ``setup_s``; the median is reported
SETUP_PROBES = 9

#: a tail percentile is reported only with at least this many samples
#: beyond it, so one outlier cannot move it alone
TAIL_SAMPLES = 10


def require_source() -> None:
    """Put the program's ``src`` on the path, or exit without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: the program source is missing (expected {SRC}/repro); "
            "run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, the definition ``repro.obs`` uses."""
    from repro.obs.recorder import percentile as nearest_rank

    return nearest_rank(list(values), q)


def typical(samples: Mapping[object, Sequence[float]]) -> List[float]:
    """Each input's median latency over the run's passes.

    Every pass answers the same fixed inputs, so an input's samples
    differ only by the host's speed while they ran.  A slow phase of the
    host moves an input's median only if it covered half of its samples.
    """
    return [statistics.median(values) for values in samples.values()]


def tail(values: Sequence[float], q: float, repeats: int = 1) -> float:
    """``percentile`` that refuses a tail with too few samples beyond it
    (``repeats``: the samples each value stands for, as their median)."""
    beyond = len(values) * (1.0 - q) * repeats
    if beyond < TAIL_SAMPLES - 1e-9:
        raise RuntimeError(
            f"p{round(q * 100)} of {len(values)} samples has only {beyond:.1f} beyond it"
        )
    return percentile(values, q)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def reset_memos() -> None:
    """Drop the process-wide closure/equivalence memos and closure stats,
    the state a fresh ``repro analyze`` process starts from."""
    from repro.cgraph.constraint_graph import clear_closure_caches
    from repro.cgraph.stats import reset_global_stats

    clear_closure_caches()
    reset_global_stats()


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up work of fresh processes, in CPU seconds.

    Each probe (``run.py --setup-probe``) starts a new interpreter, sets
    up (imports, input generation, and for the service the daemon until
    its first ``/readyz`` 200) and reports the CPU time its processes
    spent on that from their start (the probe's polling excluded).  CPU
    time rather than wall time: on a shared host the wall time of the
    same set-up varies by up to 2x with the CPU time stolen by other
    tenants.  Each probe scales its figure to the nominal host of
    ``calibrate`` by readings it takes just before and just after its
    set-up: unscaled, the median moved by 15-35% between quiet and busy
    phases of the host.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = probe.stdout.read()
        finally:
            probe.stdout.close()
            code = probe.wait(timeout=120)
        words = line.split()
        if code != 0 or len(words) != 2 or words[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(float(words[1]))
    return statistics.median(samples)


def cpu_seconds(pid: int) -> float:
    """CPU time of a process: its live threads, from ``schedstat``
    (nanoseconds; a thread that ends while being read is skipped, which
    for the daemon is at most a finished request handler), plus the
    children it has reaped (``cutime`` + ``cstime``, in clock ticks)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue
    # fields after the parenthesised command name; cutime, cstime are 16, 17
    fields = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    children = int(fields[13]) + int(fields[14])
    return total / 1e9 + children / os.sysconf("SC_CLK_TCK")


def probe_reading() -> Tuple[float, float]:
    """A ``calibrate`` reading taken as a probe starts, and the CPU
    seconds it cost (not set-up work)."""
    from calibrate import reference_seconds

    began = time.process_time()
    reading = reference_seconds()
    return reading, time.process_time() - began


def ready(cpu: float, before: float) -> None:
    """A probe's report: the set-up's CPU seconds on the nominal host of
    ``calibrate``, scaled by the readings just before and after it."""
    from calibrate import nominal, reference_seconds

    print(f"ready {nominal(cpu, (before + reference_seconds()) / 2.0)!r}", flush=True)


@dataclass(frozen=True)
class Answer:
    """The part of an analysis answer the gate and the digests look at."""

    rung: str
    confidence: str
    matches: FrozenSet[Tuple[int, int]]
    codes: Tuple[str, ...]

    @classmethod
    def from_report(cls, report) -> "Answer":
        result = report.result
        return cls(
            rung=report.rung_name,
            confidence=result.confidence,
            matches=frozenset((int(s), int(r)) for s, r in result.matches),
            codes=tuple(sorted({diag.code for diag in result.diagnostics})),
        )

    @classmethod
    def from_document(cls, document: dict) -> "Answer":
        """From the service's rendered result document."""
        return cls(
            rung=str(document["rung"]),
            confidence=str(document["confidence"]),
            matches=frozenset((int(s), int(r)) for s, r in document["matches"]),
            codes=tuple(sorted(document.get("diagnostic_codes", []))),
        )

    def digest(self) -> str:
        body = json.dumps(
            [self.rung, self.confidence, sorted(self.matches), list(self.codes)],
            separators=(",", ":"),
        )
        return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class Item:
    """One fixed input: a program plus the process counts (and ``input()``
    values per count) the runtime oracle executes it at."""

    name: str
    source: str
    np_values: Tuple[int, ...]
    inputs: Optional[Dict[int, Tuple[int, ...]]] = None

    def parse(self):
        from repro.lang import parse

        return parse(self.source)


def inputs_digest(items: Sequence[Item]) -> str:
    """Digest of the input *set* (presentation order is the run's choice)."""
    body = json.dumps(
        sorted([i.name, i.source, list(i.np_values), sorted((i.inputs or {}).items())]
               for i in items),
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def write_json(name: str, document) -> Path:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics},
        sort_keys=False,
    )

