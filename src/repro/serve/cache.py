"""Content-addressed result cache for the analysis service.

At millions-of-users scale the common case is the *same* program being
submitted over and over.  The cache turns that case into an O(1) lookup:
results are keyed by a digest of

* the **CFG structural fingerprint** (:func:`repro.core.checkpoint.
  cfg_fingerprint`) — the identity check checkpoints already use, so two
  textually different builds of the same program share a key while any
  structural drift (different program, changed lowering) misses;
* the **ladder** (which rungs, in order, would answer); and
* the **effective engine limits** (canonicalized field-by-field) — a
  tenant with a bigger budget must never be served a smaller budget's
  partial answer, and vice versa.

Entries are one JSON file per key, written with the same durable
atomic write-rename the checkpointer uses, so a SIGKILL mid-store never
leaves a torn entry — a cache directory is always a set of valid entries.
Entries written by older builds of this format may also carry ``cfg``
and ``snapshot`` fields; nothing reads them, and the checksum covers
whatever fields an entry holds, so such entries still verify and hit.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

from repro import __version__
from repro.core import diagnostics
from repro.core.checkpoint import atomic_write_text
from repro.core.engine import EngineLimits
from repro.faults import plane as faults
from repro.obs import recorder as obs
from repro.obs import slog

#: cache entry format version; bump on any incompatible schema change
#: (v2: per-entry integrity checksum — bit-flipped entries must miss)
ENTRY_FORMAT = "repro-serve-cache/2"


def entry_checksum(entry: Dict[str, object]) -> str:
    """Integrity digest over an entry's canonical JSON (checksum field
    excluded).  The atomic write-rename protects against *torn* entries;
    this protects against the disk handing back *wrong bytes* — a
    bit-flip that still parses as JSON must miss, not serve garbage."""
    body = json.dumps(
        {k: v for k, v in entry.items() if k != "checksum"},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def canonical_limits(limits: EngineLimits) -> Dict[str, object]:
    """A stable, JSON-able rendering of the effective engine limits.

    Every field participates: changing any precision or budget knob must
    change the cache key (a cheaper budget's partial answer is not the
    answer to a bigger budget's question).
    """
    return {key: value for key, value in sorted(asdict(limits).items())}


def compute_key(cfg_fp: str, ladder_id: str, limits: EngineLimits) -> str:
    """The content address of one analysis question.

    ``cfg_fp`` is the CFG structural fingerprint, ``ladder_id`` names the
    rung sequence that would answer (e.g.
    ``"cartesian>cartesian-escalated>mpi-cfg"``), and ``limits`` are the
    *effective* (tenant-clamped) engine limits.  The engine version is
    folded in so an upgraded analyzer never serves a previous build's
    answers.
    """
    body = json.dumps(
        {
            "v": __version__,
            "format": ENTRY_FORMAT,
            "cfg": cfg_fp,
            "ladder": ladder_id,
            "limits": canonical_limits(limits),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def render_report(report) -> Dict[str, object]:
    """Flatten a :class:`~repro.core.driver.FallbackReport` into the
    JSON-plain result document the service returns and caches."""
    result = report.result
    return {
        "confidence": result.confidence,
        "rung": report.rung_name,
        "matches": sorted([s, r] for s, r in result.matches),
        "topology": result.topology.describe(),
        "diagnostics": [diag.format() for diag in result.diagnostics],
        "diagnostic_codes": sorted({diag.code for diag in result.diagnostics}),
        "summary": diagnostics.summarize(result.diagnostics),
        "steps": result.steps,
        "resumed_from": getattr(result, "resumed_from", ""),
        "rungs": [
            {
                "name": outcome.name,
                "confidence": outcome.confidence,
                "diagnostics": diagnostics.summarize(outcome.result.diagnostics),
            }
            for outcome in report.rungs
        ],
    }


class ResultCache:
    """Disk-backed, crash-safe, content-addressed result store.

    One JSON file per key under ``directory``; an in-memory LRU mirror
    bounds the resident set (``max_entries``) while the disk keeps
    everything.  All operations are thread-safe — the service's worker
    threads store while its admission path looks up.
    """

    def __init__(self, directory, max_entries: int = 4096):
        self.directory = Path(directory)
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        #: key -> entry (most-recently-used last)
        self._entries: "OrderedDict[str, dict]" = OrderedDict()
        self.directory.mkdir(parents=True, exist_ok=True)
        self._load_index()

    # -- internals -------------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _read_entry(self, path: Path) -> Optional[dict]:
        """Read + verify one on-disk entry; evict it if it is corrupt.

        Verification layers: valid JSON, a dict, our format version, and
        the integrity checksum.  Unparseable bytes, a missing format
        field or a checksum mismatch mean the file is damaged (bit rot,
        truncation, external edit) — the entry is *deleted*
        (``serve.cache.corrupt_evictions``) so the damage cannot be
        re-served or re-indexed.  A well-formed entry of
        a *different* format version is merely skipped: it belongs to
        another build, not to the trash.
        """
        try:
            raw = path.read_bytes()
        except OSError:
            obs.incr("serve.cache.read_errors")
            return None
        fault = faults.check("cache.read.corrupt")
        if fault is not None:
            raw = faults.corrupt_bytes(raw, fault.arg)
        try:
            entry = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._evict_corrupt(path, "undecodable")
            return None
        if not isinstance(entry, dict):
            self._evict_corrupt(path, "not an object")
            return None
        if not isinstance(entry.get("format"), str):
            # every build writes a format string; its absence is damage
            self._evict_corrupt(path, "no format")
            return None
        if entry["format"] != ENTRY_FORMAT:
            obs.incr("serve.cache.index_skipped")
            return None
        if entry.get("checksum") != entry_checksum(entry):
            self._evict_corrupt(path, "checksum mismatch")
            return None
        return entry

    def _evict_corrupt(self, path: Path, why: str) -> None:
        obs.incr("serve.cache.corrupt_evictions")
        slog.warning("serve.cache_corrupt_entry", path=str(path), reason=why)
        try:
            path.unlink()
        except OSError:
            pass

    def _load_index(self) -> None:
        """Rebuild the in-memory index from the entry files on disk.

        Unreadable, malformed, or corrupt files are skipped or removed
        (counted), never fatal: a half-written entry cannot exist (atomic
        rename), but a damaged disk can still hand us garbage and the
        cache must shrug it off.
        """
        for path in sorted(self.directory.glob("*.json")):
            entry = self._read_entry(path)
            if entry is None:
                continue
            key = entry.get("key") or path.stem
            self._remember(key, entry)

    def _remember(self, key: str, entry: dict) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # -- the public surface ----------------------------------------------------

    def lookup(self, key: str) -> Optional[dict]:
        """The cached result document for ``key``, or None.

        Falls back to disk when the LRU mirror dropped the entry, so the
        resident-set bound never turns into a correctness miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                obs.incr("serve.cache.hits")
                return entry
        path = self._path(key)
        if path.exists():
            entry = self._read_entry(path)
            if entry is not None:
                with self._lock:
                    self._remember(key, entry)
                obs.incr("serve.cache.hits")
                return entry
        obs.incr("serve.cache.misses")
        return None

    def store(
        self,
        key: str,
        ladder_id: str,
        limits: EngineLimits,
        result: Dict[str, object],
    ) -> dict:
        """Persist one result document (durable atomic write) and index it."""
        entry = {
            "format": ENTRY_FORMAT,
            "key": key,
            "ladder": ladder_id,
            "limits": canonical_limits(limits),
            "result": result,
            "created": time.time(),
        }
        entry["checksum"] = entry_checksum(entry)
        try:
            atomic_write_text(
                self._path(key),
                json.dumps(entry, sort_keys=True),
                fault_scope="cache",
            )
        except OSError:
            # a cache that cannot persist still serves from memory
            obs.incr("serve.cache.write_errors")
        else:
            obs.incr("serve.cache.stores")
        with self._lock:
            self._remember(key, entry)
        return entry

    def warm_snapshot(self, cfg_fp: str, client_name: str) -> None:
        """A no-op nothing calls: a patch target of ``perfbench/traced_daemon.py``
        only, until the product emits the bench's spans (ROADMAP, "One benchmark PR")."""

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "resident_entries": len(self._entries),
                "disk_entries": sum(1 for _ in self.directory.glob("*.json")),
            }
