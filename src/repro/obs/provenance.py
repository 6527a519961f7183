"""Provenance flight recorder: causal tracing of dataflow facts.

The aggregate counters and spans of :mod:`repro.obs.recorder` answer *how
much* the engine did; they cannot answer *why* a particular dataflow fact
holds — why a node fell to ``T``, why a topology is missing an edge, which
widening erased the bound a match needed.  This module records every
state-changing engine event as a :class:`ProvenanceEvent` carrying

* the pCFG node it established a fact at (``node_key``),
* the events it was *caused by* (``parents`` — the event that last defined
  the source node's state, plus, for joins, the event that last defined
  the target's), forming a derivation DAG over the whole run,
* a client-supplied delta (``data``: constraint-graph edge diffs, HSM
  prover proof/refutation traces, pset descriptions — see
  :meth:`repro.core.client.ClientAnalysis.describe_transfer`), and
* monotonic timing (``ts``/``dur``), which is what the Chrome-trace
  exporter (:mod:`repro.obs.export`) turns into a timeline.

The recorder keeps every event of one run, in emission order.  The
engine's step budget already bounds that record, as it bounds the
run's explored pCFG edges: the largest corpus run emits about a hundred
events.

The flight recorder is a field of the thread's :mod:`repro.obs.context`,
installed for a scope by :func:`recording` and absent by default.  It is
zero-cost when absent: the engine reads ``context.current().provenance``
once per run and guards every emit site with a single ``is not None``
check.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs import context, slog

#: recursion cap for :func:`_plain` (client deltas are shallow in practice)
_PLAIN_DEPTH = 6


def _plain(value: Any, depth: int = _PLAIN_DEPTH) -> Any:
    """Coerce a client-supplied value to JSON-plain data.

    Events must serialize into the JSONL journal, the Chrome trace, and
    checkpoint snapshots without registering codecs, so anything a client
    attaches is flattened here: containers recurse (depth-capped), scalars
    pass through, everything else becomes ``str``.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # NaN/inf are not valid JSON; render them as strings
        return value if value == value and abs(value) != float("inf") else str(value)
    if depth <= 0:
        return str(value)
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [_plain(item, depth - 1) for item in items]
    if isinstance(value, dict):
        return {str(k): _plain(v, depth - 1) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class ProvenanceEvent:
    """One recorded state-changing engine event (a node of the derivation DAG).

    ``kind`` is one of the engine's event vocabulary: ``run_start``,
    ``entry``, ``transfer``, ``branch``, ``split``, ``match``, ``buffer``,
    ``merge``, ``join``, ``widen``, ``match_attempt``, ``giveup``,
    ``client_fault``, ``cfg_malformed``, ``budget_trip``,
    ``checkpoint_write``, ``checkpoint_resume``, ``checkpoint_rejected``.
    Clients and tools may introduce further kinds; consumers must treat the
    vocabulary as open.
    """

    event_id: int
    kind: str
    step: int = 0
    #: pCFG node key whose state this event (re)defined, if any
    node_key: Optional[tuple] = None
    #: causal parent event ids
    parents: Tuple[int, ...] = ()
    detail: str = ""
    #: JSON-plain client delta (constraint edge diffs, prover traces, ...)
    data: Optional[dict] = None
    #: seconds since the recorder started
    ts: float = 0.0
    #: measured duration in seconds (0 for instant events)
    dur: float = 0.0

    def to_dict(self) -> dict:
        """JSON-plain rendering (the journal line / snapshot form)."""
        doc: Dict[str, Any] = {
            "id": self.event_id,
            "kind": self.kind,
            "step": self.step,
            "ts": round(self.ts, 9),
        }
        if self.node_key is not None:
            doc["node"] = [list(part) for part in self.node_key]
        if self.parents:
            doc["parents"] = list(self.parents)
        if self.detail:
            doc["detail"] = self.detail
        if self.data is not None:
            doc["data"] = self.data
        if self.dur:
            doc["dur"] = round(self.dur, 9)
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "ProvenanceEvent":
        node = doc.get("node")
        return cls(
            event_id=int(doc["id"]),
            kind=str(doc["kind"]),
            step=int(doc.get("step", 0)),
            node_key=tuple(tuple(part) for part in node) if node is not None else None,
            parents=tuple(int(p) for p in doc.get("parents", ())),
            detail=str(doc.get("detail", "")),
            data=doc.get("data"),
            ts=float(doc.get("ts", 0.0)),
            dur=float(doc.get("dur", 0.0)),
        )

    def describe(self, cfg=None) -> str:
        """One-line human rendering for causal-chain output."""
        where = ""
        if self.node_key is not None:
            locs, pending = self.node_key
            if cfg is not None:
                labels = ",".join(
                    cfg.node(nid).label or str(nid) for nid in locs
                )
            else:
                labels = ",".join(str(nid) for nid in locs)
            inflight = f" +{len(pending)} in flight" if pending else ""
            where = f" at node ({labels}{inflight})"
        detail = f" — {self.detail}" if self.detail else ""
        return f"#{self.event_id} {self.kind}{where} [step {self.step}]{detail}"


class ProvenanceRecorder:
    """Every provenance event of one run, in emission order (ids 1, 2, ...)."""

    def __init__(self) -> None:
        self._events: Dict[int, ProvenanceEvent] = {}
        #: id of the most recently recorded event (None before the first)
        self.last_event_id: Optional[int] = None
        #: pCFG node key -> id of the event that last defined its state
        self.node_event: Dict[tuple, int] = {}
        self._start = perf_counter()

    # -- recording -------------------------------------------------------------

    def emit(
        self,
        kind: str,
        node_key: Optional[tuple] = None,
        parents: Tuple[Optional[int], ...] = (),
        detail: str = "",
        data: Optional[dict] = None,
        step: int = 0,
        dur: float = 0.0,
    ) -> int:
        """Record one event; returns its id (the DAG handle)."""
        event = ProvenanceEvent(
            event_id=(self.last_event_id or 0) + 1,
            kind=kind,
            step=step,
            node_key=node_key,
            parents=tuple(p for p in parents if p is not None),
            detail=detail,
            data=_plain(data) if data is not None else None,
            ts=perf_counter() - self._start,
            dur=dur,
        )
        self._record(event)
        if slog.enabled_for("debug"):
            slog.debug(f"prov.{kind}", id=event.event_id, step=step,
                       node=list(node_key[0]) if node_key else None,
                       detail=detail or None)
        return event.event_id

    def _record(self, event: ProvenanceEvent) -> None:
        self._events[event.event_id] = event
        self.last_event_id = event.event_id
        if event.node_key is not None:
            self.node_event[event.node_key] = event.event_id

    # -- queries ---------------------------------------------------------------

    @property
    def total_events(self) -> int:
        """Events recorded in this run."""
        return len(self._events)

    def events(self) -> List[ProvenanceEvent]:
        """Every recorded event, oldest first."""
        return list(self._events.values())

    def get(self, event_id: int) -> Optional[ProvenanceEvent]:
        """The event with this id, or None when the run recorded none."""
        return self._events.get(event_id)

    def events_for_node(self, locs: tuple) -> List[ProvenanceEvent]:
        """Events whose node key has the given CFG-location tuple."""
        locs = tuple(locs)
        return [
            event
            for event in self._events.values()
            if event.node_key is not None and tuple(event.node_key[0]) == locs
        ]

    def chain(self, event_id: int, limit: int = 200) -> List[ProvenanceEvent]:
        """The causal chain of an event: its ancestors plus itself.

        Walks the parent DAG backward (breadth-first, deduplicated) and
        returns the events in causal order (oldest first, the queried event
        last).  ``limit`` bounds the walk for pathological fan-in.
        """
        seen = set()
        frontier = [event_id]
        collected: Dict[int, ProvenanceEvent] = {}
        while frontier and len(collected) < limit:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            event = self.get(current)
            if event is None:
                continue
            collected[event.event_id] = event
            frontier.extend(event.parents)
        return [collected[eid] for eid in sorted(collected)]

    # -- checkpoint integration -------------------------------------------------

    def snapshot_state(self) -> dict:
        """JSON-plain journal for a checkpoint snapshot."""
        return {"events": [event.to_dict() for event in self._events.values()]}

    def preload(self, state: dict) -> None:
        """Take a journal captured by :meth:`snapshot_state` as this run's.

        Used on resume so the recovered run continues the interrupted
        run's causal history: the snapshot's events replace the journal,
        the per-node defining events are rebuilt, and new ids continue
        after them, so new events link into the restored DAG.
        """
        self._events = {}
        self.node_event = {}
        self.last_event_id = None
        for doc in state.get("events", ()):
            self._record(ProvenanceEvent.from_dict(doc))

    def kind_counts(self) -> Dict[str, int]:
        """Tally of events by kind (summary output)."""
        counts: Dict[str, int] = {}
        for event in self._events.values():
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


@contextmanager
def recording() -> Iterator[ProvenanceRecorder]:
    """Bind a fresh flight recorder into this thread's context for the
    scope of the ``with`` — how ``repro explain`` isolates its journal."""
    recorder = ProvenanceRecorder()
    with context.bound(provenance=recorder):
        yield recorder
