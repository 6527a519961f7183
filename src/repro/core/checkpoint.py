"""Crash-safe checkpoint/resume for the pCFG fixpoint engine.

A long fixpoint over a large pCFG is the dominant cost of an analysis run
(ROADMAP: production scale).  Before this module, any budget trip, SIGKILL
or host crash discarded every converged configuration.  A *snapshot* is
the engine's :class:`~repro.core.engine.Run`, encoded: the worklist heap
and its sequence counter, visit counts, and the
:class:`~repro.core.engine.AnalysisResult` being built (per-node
``(dfState, pSets)`` map, step count, partial topology, diagnostics) — so
a later run can continue exactly where the interrupted one stopped and
converge to the identical result.

Snapshot format (``repro-ckpt/3``)
----------------------------------

One JSON document::

    {"format": "repro-ckpt/3", "checksum": "<sha256 of payload>", "payload": {...}}

The payload is produced by a *structural codec*: plain scalars pass
through, containers are tagged (``{"__t__": "tuple", "v": [...]}``), and
domain objects — the run itself, constraint graphs, interval process
sets, HSM terms, client states — go through serializers registered per
type with :func:`register_codec`.  A dataclass registers with its tag
alone and is encoded as its ``__init__`` fields in order; other types
supply an encoder and a decoder.  The tag registry is also the decode
allow-list: a payload can only build the types registered in it.  Client
analyses register codecs for their own state types
(``repro.analyses.simple_symbolic`` registers the Section VII state;
subclasses inherit it) and may persist client-side accumulators via
:meth:`~repro.core.client.ClientAnalysis.checkpoint_extra`.

Integrity and identity
----------------------

Snapshots are written atomically (temp file + ``os.replace``) and verified
on load: JSON well-formedness, format version, and the payload checksum.
A snapshot also names the CFG it was taken over (a structural fingerprint)
and the client class; the engine refuses to warm-start from a snapshot of
a different program or client.  Every rejection degrades to a cold start
with a ``CHECKPOINT_CORRUPT`` / ``CHECKPOINT_MISMATCH`` diagnostic — a bad
snapshot can never crash or taint an analysis.
"""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import heapq
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core import diagnostics
from repro.core.diagnostics import Diagnostic
from repro.core.pcfg import ExploredPCFG, PCFGEdge
from repro.core.topology import MatchRecord, StaticTopology
from repro.faults import plane as faults
from repro.obs import context
from repro.obs import recorder as obs

#: snapshot format version; bump on any incompatible payload change
FORMAT = "repro-ckpt/3"


class SnapshotError(Exception):
    """A snapshot could not be used.

    ``code`` is :data:`~repro.core.diagnostics.CHECKPOINT_CORRUPT` for
    integrity failures (unreadable file, bad JSON, checksum mismatch,
    undecodable payload) and
    :data:`~repro.core.diagnostics.CHECKPOINT_MISMATCH` for well-formed
    snapshots of a different format version, program/CFG, or client.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# -- structural codec ---------------------------------------------------------

#: type -> (tag, encode); exact-type lookup with an isinstance fallback so
#: client-state subclasses reuse their base codec
_ENCODERS: Dict[type, Tuple[str, Callable[[Any], Any]]] = {}
#: tag -> decode; also the decode allow-list
_DECODERS: Dict[str, Callable[[Any], Any]] = {}

_TAG = "__t__"


def register_codec(
    cls: type,
    tag: str,
    encode_fn: Optional[Callable[[Any], Any]] = None,
    decode_fn: Optional[Callable[[Any], Any]] = None,
) -> None:
    """Register a stable serializer for one domain type.

    A dataclass needs only its tag: it encodes as the list of its
    ``__init__`` fields in order and decodes by calling ``cls`` on them.
    Otherwise ``encode_fn`` must return JSON-able-after-:func:`encode`
    data and ``decode_fn`` receives the decoded data back.  Round-trip
    stability (``decode(encode(x))`` semantically equal to ``x``) is what
    the Hypothesis property tests enforce per codec.
    """
    if encode_fn is None:
        names = [f.name for f in dataclasses.fields(cls) if f.init]
        encode_fn = lambda obj: [getattr(obj, name) for name in names]  # noqa: E731
        decode_fn = lambda values: cls(*values)  # noqa: E731
    _ENCODERS[cls] = (tag, encode_fn)
    _DECODERS[tag] = decode_fn


def _lookup_encoder(obj: Any) -> Optional[Tuple[str, Callable[[Any], Any]]]:
    entry = _ENCODERS.get(type(obj))
    if entry is not None:
        return entry
    for cls, candidate in _ENCODERS.items():
        if isinstance(obj, cls):
            return candidate
    return None


def _canonical(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def encode(obj: Any) -> Any:
    """Encode a Python object into tagged JSON-able plain data."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, tuple):
        return {_TAG: "tuple", "v": [encode(item) for item in obj]}
    if isinstance(obj, dict):
        return {_TAG: "dict", "v": [[encode(k), encode(v)] for k, v in obj.items()]}
    if isinstance(obj, (set, frozenset)):
        items = sorted((encode(item) for item in obj), key=_canonical)
        tag = "frozenset" if isinstance(obj, frozenset) else "set"
        return {_TAG: tag, "v": items}
    entry = _lookup_encoder(obj)
    if entry is None:
        raise SnapshotError(
            diagnostics.CHECKPOINT_CORRUPT,
            f"no snapshot codec registered for {type(obj).__name__}",
        )
    tag, encode_fn = entry
    return {_TAG: tag, "v": encode(encode_fn(obj))}


def decode(data: Any) -> Any:
    """Invert :func:`encode`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, list):
        return [decode(item) for item in data]
    if isinstance(data, dict):
        tag = data.get(_TAG)
        if tag == "tuple":
            return tuple(decode(item) for item in data["v"])
        if tag == "dict":
            return {decode(k): decode(v) for k, v in data["v"]}
        if tag == "set":
            return {decode(item) for item in data["v"]}
        if tag == "frozenset":
            return frozenset(decode(item) for item in data["v"])
        decoder = _DECODERS.get(tag)
        if decoder is None:
            raise SnapshotError(
                diagnostics.CHECKPOINT_CORRUPT,
                f"unknown snapshot codec tag {tag!r}",
            )
        return decoder(decode(data["v"]))
    raise SnapshotError(
        diagnostics.CHECKPOINT_CORRUPT,
        f"unencodable snapshot datum of type {type(data).__name__}",
    )


# -- fingerprints -------------------------------------------------------------


def cfg_fingerprint(cfg) -> str:
    """Structural identity of a CFG: nodes (kind + rendering) and edges.

    Two builds of the same program fingerprint identically; any structural
    drift (different program, changed lowering) changes the digest, which
    is what makes stale snapshots detectable.
    """
    parts = [f"entry={cfg.entry}", f"exit={cfg.exit}"]
    for node_id in sorted(cfg.nodes):
        node = cfg.nodes[node_id]
        parts.append(f"n{node_id}:{node.kind.value}:{node.describe()}:{node.label}")
        for dst, label in cfg.edges.get(node_id, []):
            parts.append(f"e{node_id}->{dst}:{label}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()


# -- the snapshot object ------------------------------------------------------


@dataclasses.dataclass
class Snapshot:
    """One captured fixpoint state, held in its encoded (JSON-able) form.

    The same representation backs in-memory warm starts (the fallback
    ladder) and on-disk checkpoints, so both paths exercise the same
    codecs.
    """

    payload: dict

    @property
    def cfg_fingerprint(self) -> str:
        return self.payload.get("cfg", "")

    @property
    def client_name(self) -> str:
        return self.payload.get("client", "")

    @property
    def steps(self) -> int:
        return self.payload.get("steps", 0)

    def describe(self) -> str:
        """Short human-readable identity for ``resumed_from`` reporting."""
        return f"snapshot(step={self.steps}, client={self.client_name})"

    def to_json(self) -> str:
        body = _canonical(self.payload)
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        return json.dumps(
            {"format": FORMAT, "checksum": checksum, "payload": self.payload},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        """Parse and verify a serialized snapshot (raises SnapshotError)."""
        try:
            document = json.loads(text)
        except ValueError as exc:
            raise SnapshotError(
                diagnostics.CHECKPOINT_CORRUPT, f"snapshot is not valid JSON: {exc}"
            ) from exc
        if not isinstance(document, dict) or "payload" not in document:
            raise SnapshotError(
                diagnostics.CHECKPOINT_CORRUPT, "snapshot document has no payload"
            )
        if document.get("format") != FORMAT:
            raise SnapshotError(
                diagnostics.CHECKPOINT_MISMATCH,
                f"snapshot format {document.get('format')!r} != {FORMAT!r}",
            )
        body = _canonical(document["payload"])
        checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if checksum != document.get("checksum"):
            raise SnapshotError(
                diagnostics.CHECKPOINT_CORRUPT, "snapshot checksum mismatch"
            )
        return cls(payload=document["payload"])


def load_snapshot(path) -> Snapshot:
    """Load and verify a snapshot file (raises SnapshotError)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SnapshotError(
            diagnostics.CHECKPOINT_CORRUPT, f"cannot read snapshot {path}: {exc}"
        ) from exc
    return Snapshot.from_json(text)


# -- engine-state capture / restore -------------------------------------------


def capture_run(engine, run) -> Snapshot:
    """Encode the engine's :class:`~repro.core.engine.Run` into a Snapshot.

    A capture inside an iteration (``run.open``) rolls it back to the last
    step boundary: its step is uncounted, and the key it popped, if any, is
    back on the worklist with its visit undone.  A resumed run replays that
    iteration, so its final step count matches an uninterrupted run's.
    """
    if run.open:
        worklist, visits = list(run.worklist), run.visits
        if run.inflight is not None:
            key = run.inflight
            heapq.heappush(worklist, (engine._priority(key), run.seq, key))
            visits = {**visits, key: visits[key] - 1}
        result = dataclasses.replace(run.result, steps=run.result.steps - 1)
        run = dataclasses.replace(run, result=result, visits=visits, worklist=worklist)
    client = engine.client
    payload = {
        "format": FORMAT,
        "cfg": cfg_fingerprint(engine.cfg),
        "client": type(client).__name__,
        "steps": run.result.steps,
        "run": encode(run),
        "client_extra": encode(client.checkpoint_extra()),
    }
    prov = context.current().provenance
    if prov is not None:
        # the flight-recorder journal rides along (already JSON-plain), so
        # a resumed run continues the interrupted run's causal history
        payload["provenance"] = prov.snapshot_state()
    return Snapshot(payload=payload)


def restore_run(snapshot: Snapshot, engine):
    """Verify a snapshot against the engine's CFG/client and decode its run.

    Raises :class:`SnapshotError` on any mismatch or decoding failure; the
    engine turns that into a diagnostic plus a cold start.
    """
    payload = snapshot.payload
    if not isinstance(payload, dict):
        raise SnapshotError(
            diagnostics.CHECKPOINT_CORRUPT, "snapshot payload is not a mapping"
        )
    if payload.get("format") != FORMAT:
        raise SnapshotError(
            diagnostics.CHECKPOINT_MISMATCH,
            f"snapshot format {payload.get('format')!r} != {FORMAT!r}",
        )
    fingerprint = cfg_fingerprint(engine.cfg)
    if payload.get("cfg") != fingerprint:
        raise SnapshotError(
            diagnostics.CHECKPOINT_MISMATCH,
            "snapshot was taken over a different program/CFG "
            f"({str(payload.get('cfg'))[:12]}... != {fingerprint[:12]}...)",
        )
    client_name = type(engine.client).__name__
    if payload.get("client") != client_name:
        raise SnapshotError(
            diagnostics.CHECKPOINT_MISMATCH,
            f"snapshot client {payload.get('client')!r} != {client_name!r}",
        )
    try:
        run = decode(payload["run"])
        engine.client.restore_extra(decode(payload.get("client_extra")))
    except SnapshotError:
        raise
    except Exception as exc:
        raise SnapshotError(
            diagnostics.CHECKPOINT_CORRUPT, f"snapshot payload undecodable: {exc}"
        ) from exc
    return run


# -- the on-disk checkpointer -------------------------------------------------


def atomic_write_text(path, text: str, fsync: bool = True, fault_scope: str = "disk") -> None:
    """Durable atomic file replacement: write-fsync-rename-fsync(dir).

    The temp file is created *next to* the target (same directory, hence
    same filesystem), so the final ``os.replace`` is a true atomic rename
    — never the cross-device ``EXDEV`` failure a ``/tmp``-hosted temp
    file can hit.  With ``fsync`` (the default) the file's bytes are
    flushed to stable storage before the rename and the directory entry
    after it, so a power loss leaves either the old file or the complete
    new one, never a torn write that merely *looks* renamed.  Raises
    ``OSError`` — callers that must not crash wrap this (see
    :meth:`Checkpointer.write`).  On *any* failure the temp file is
    removed: an ENOSPC/EIO abort never strands an orphan next to the
    target, and the target keeps its previous content.

    ``fault_scope`` names the trust boundary for the fault plane
    (:mod:`repro.faults.plane`): the checkpointer writes under ``ckpt``,
    the result cache under ``cache``, the journal compactor under
    ``journal``, so one instrumented site covers every durable write in
    the system.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    enospc = faults.check(f"{fault_scope}.write.enospc")
    eio = faults.check(f"{fault_scope}.write.eio")
    torn = faults.check(f"{fault_scope}.write.torn")
    crash = faults.check(f"{fault_scope}.write.crash")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            if enospc is not None:
                handle.write(text[: len(text) // 2])
                raise OSError(
                    errno.ENOSPC,
                    f"injected fault {fault_scope}.write.enospc: no space left on device",
                )
            if torn is not None:
                # a crash mid-write: partial bytes in the temp file, no
                # rename — the target must keep its old content
                handle.write(text[: max(1, int(len(text) * torn.arg))])
                handle.flush()
                raise OSError(
                    errno.EIO,
                    f"injected fault {fault_scope}.write.torn: crashed mid-write",
                )
            handle.write(text)
            if fsync:
                handle.flush()
                if eio is not None:
                    raise OSError(
                        errno.EIO,
                        f"injected fault {fault_scope}.write.eio: fsync failed",
                    )
                os.fsync(handle.fileno())
        if crash is not None:
            # crashed after the bytes were durable but before the rename:
            # the new content is lost, the old file survives intact
            raise OSError(
                errno.EIO,
                f"injected fault {fault_scope}.write.crash: "
                "crashed after fsync, before rename",
            )
        os.replace(tmp, path)
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass
    if fsync:
        # persist the rename itself; some platforms cannot open a
        # directory for fsync — that degrades durability, not atomicity
        try:
            dir_fd = os.open(str(path.parent), os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)


class Checkpointer:
    """Writes snapshots atomically into a directory, one file per analysis.

    ``every_steps > 0`` additionally enables periodic checkpointing from
    inside the engine loop; 0 keeps only the budget-trip and interpreter-
    exit writes.
    """

    def __init__(self, directory, name: str = "analysis", every_steps: int = 0):
        self.directory = Path(directory)
        self.name = name
        self.every_steps = int(every_steps)

    @property
    def path(self) -> Path:
        return self.directory / f"{self.name}.ckpt.json"

    def write(self, snapshot: Snapshot) -> Path:
        """Durable atomic write-rename; a crash mid-write never corrupts
        the file (see :func:`atomic_write_text`).

        Any I/O failure — unwritable directory, disk full, the directory
        racing away — surfaces as :class:`SnapshotError` with code
        :data:`~repro.core.diagnostics.CHECKPOINT_IO`, so callers record
        a diagnostic instead of dying on a raw ``OSError``.
        """
        start = time.perf_counter()
        text = snapshot.to_json()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.path, text, fault_scope="ckpt")
        except OSError as exc:
            obs.incr("engine.ckpt.io_errors")
            raise SnapshotError(
                diagnostics.CHECKPOINT_IO,
                f"cannot write snapshot {self.path}: {exc}",
            ) from exc
        obs.incr("engine.ckpt.writes")
        obs.observe("engine.ckpt.bytes", len(text))
        obs.observe("engine.ckpt.write_seconds", time.perf_counter() - start)
        return self.path

    def load(self) -> Snapshot:
        """Load this checkpointer's snapshot (raises SnapshotError)."""
        return load_snapshot(self.path)


# -- built-in codecs ----------------------------------------------------------
#
# Leaf domain types every client shares.  Client-specific state types are
# registered by the client modules (see ``repro.analyses.simple_symbolic``).


def _register_builtin_codecs() -> None:
    from repro.cgraph.constraint_graph import ConstraintGraph
    from repro.expr.linear import LinearExpr
    from repro.expr.poly import Monomial, Poly
    from repro.hsm.hsm import HSM
    from repro.procset.interval import ProcSet, SymRange

    register_codec(
        LinearExpr,
        "linexpr",
        lambda e: {"c": e.constant, "k": sorted(e.coeffs.items())},
        lambda d: LinearExpr(d["c"], dict(d["k"])),
    )
    register_codec(SymRange, "symrange")
    register_codec(
        ProcSet,
        "procset",
        lambda p: list(p.ranges),
        lambda ranges: ProcSet(ranges),
    )
    register_codec(
        ConstraintGraph,
        "cgraph",
        lambda g: g.to_state(),
        ConstraintGraph.from_state,
    )
    register_codec(
        Monomial,
        "monomial",
        lambda m: sorted(m.powers.items()),
        lambda items: Monomial(dict(items)),
    )
    register_codec(
        Poly,
        "poly",
        lambda p: sorted(p.terms.items(), key=lambda item: str(item[0])),
        lambda items: Poly(dict(items)),
    )
    register_codec(HSM, "hsm")
    register_codec(MatchRecord, "match_record")
    register_codec(StaticTopology, "topology")
    register_codec(PCFGEdge, "pcfg_edge")
    register_codec(ExploredPCFG, "explored_pcfg")
    register_codec(Diagnostic, "diagnostic")


_register_builtin_codecs()
