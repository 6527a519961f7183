"""Execution traces and concrete communication topologies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Tuple


@dataclass(frozen=True)
class MatchEvent:
    """One dynamic send-receive match.

    ``send_node`` / ``recv_node`` are CFG node ids, so a set of MatchEvents
    projects onto the static ``matches`` relation the pCFG analysis computes.
    """

    src: int
    dst: int
    value: int
    send_node: int
    recv_node: int
    mtype_sent: str
    mtype_received: str


@dataclass(frozen=True)
class Topology:
    """A concrete communication topology.

    * ``proc_edges`` — dynamic (sender rank, receiver rank) pairs.
    * ``node_edges`` — static (send CFG node, receive CFG node) pairs that
      actually communicated; this is the relation to compare against the
      static analysis' ``matches``.
    """

    proc_edges: FrozenSet[Tuple[int, int]]
    node_edges: FrozenSet[Tuple[int, int]]


@dataclass
class Trace:
    """Everything observable about one execution."""

    num_procs: int
    matches: List[MatchEvent] = field(default_factory=list)
    prints: Dict[int, List[int]] = field(default_factory=dict)
    leaked: List[Tuple[int, int, int]] = field(default_factory=list)
    #: per-process count of executed CFG steps
    steps: Dict[int, int] = field(default_factory=dict)

    def record_match(self, event: MatchEvent) -> None:
        """Append a dynamic match."""
        self.matches.append(event)

    def record_print(self, rank: int, value: int) -> None:
        """Append a printed value for a process."""
        self.prints.setdefault(rank, []).append(value)

    def topology(self) -> Topology:
        """Project the trace onto its communication topology."""
        proc_edges = frozenset((event.src, event.dst) for event in self.matches)
        node_edges = frozenset(
            (event.send_node, event.recv_node) for event in self.matches
        )
        return Topology(proc_edges, node_edges)

    def type_mismatches(self) -> List[MatchEvent]:
        """Dynamic matches whose declared send/receive types disagree."""
        return [
            event
            for event in self.matches
            if event.mtype_sent != event.mtype_received
        ]

    def observable(self) -> Tuple:
        """A canonical fingerprint of observable behaviour.

        Two executions of an interleaving-oblivious program must produce
        identical fingerprints regardless of schedule: same per-process
        prints and the same set of dynamic matches (matches are compared as
        a multiset since their global interleaving order is not observable).
        """
        matches = tuple(
            sorted(
                (e.src, e.dst, e.value, e.send_node, e.recv_node)
                for e in self.matches
            )
        )
        prints = tuple(sorted((rank, tuple(vals)) for rank, vals in self.prints.items()))
        leaked = tuple(sorted(self.leaked))
        return (matches, prints, leaked)
