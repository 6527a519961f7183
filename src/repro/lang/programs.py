"""Corpus of MPL programs: every example from the paper plus extras.

Each entry is registered with metadata describing where in the paper it comes
from, which communication pattern it implements, and which client analysis is
expected to handle it.  The benchmark harness and the test suite both draw
from this registry.

The three headline examples:

* :data:`EXCHANGE_WITH_ROOT` — Fig. 1 / Fig. 5 (mdcask): process 0 exchanges
  a message with every other process inside a loop.
* :data:`TRANSPOSE_SQUARE` / :data:`TRANSPOSE_RECT` — Fig. 6 (NAS-CG):
  exchange with the transpose process on a square or 2:1 rectangular grid.
* :data:`SHIFT_RIGHT` — Fig. 7: 1-D nearest-neighbor shift with three
  process roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.lang.ast import Program
from repro.lang.parser import parse


@dataclass(frozen=True)
class ProgramSpec:
    """A named corpus program with provenance metadata."""

    name: str
    source: str
    description: str
    paper_ref: str
    pattern: str
    #: which client analysis should fully resolve it:
    #: "simple" (Section VII), "cartesian" (Section VIII), or "none"
    #: (expected conservative give-up / buggy program).
    client: str = "simple"
    notes: str = ""

    def parse(self) -> Program:
        """Parse the program source."""
        return parse(self.source)


_REGISTRY: Dict[str, ProgramSpec] = {}


def register(spec: ProgramSpec) -> ProgramSpec:
    """Add a spec to the global corpus registry."""
    if spec.name in _REGISTRY:
        raise ValueError(f"duplicate program name {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ProgramSpec:
    """Look up a corpus program by name."""
    return _REGISTRY[name]


def names() -> List[str]:
    """All registered program names, sorted."""
    return sorted(_REGISTRY)


def all_specs() -> List[ProgramSpec]:
    """All registered programs, sorted by name."""
    return [_REGISTRY[name] for name in names()]


def by_client(client: str) -> List[ProgramSpec]:
    """All programs a given client analysis is expected to resolve."""
    return [spec for spec in all_specs() if spec.client == client]


# ---------------------------------------------------------------------------
# Fig. 2 — ping-pong constant propagation example
# ---------------------------------------------------------------------------

PINGPONG = register(
    ProgramSpec(
        name="pingpong",
        source="""
            if id == 0 then
                x = 5
                send x -> 1
                receive y <- 1
                print y
            elif id == 1 then
                receive y <- 0
                send y -> 0
                print y
            else
                skip
            end
        """,
        description=(
            "Processes 0 and 1 exchange a value initialized to 5 by process 0 "
            "and both print it; constant propagation must prove both prints "
            "emit 5."
        ),
        paper_ref="Fig. 2",
        pattern="pairwise-exchange",
    )
)

# ---------------------------------------------------------------------------
# Fig. 1 / Fig. 5 — mdcask exchange with root
# ---------------------------------------------------------------------------

EXCHANGE_WITH_ROOT = register(
    ProgramSpec(
        name="exchange_with_root",
        source="""
            x = 5
            if id == 0 then
                for i = 1 to np - 1 do
                    send x -> i
                    receive y <- i
                end
            else
                receive y <- 0
                send x -> 0
            end
        """,
        description=(
            "mdcask pattern: process 0 exchanges a message with every other "
            "process inside a loop. Detecting it enables the broadcast+gather "
            "collective rewrite of Fig. 1."
        ),
        paper_ref="Fig. 1 / Fig. 5",
        pattern="exchange-with-root",
    )
)

GATHER_TO_ROOT = register(
    ProgramSpec(
        name="gather_to_root",
        source="""
            x = id
            if id == 0 then
                for i = 1 to np - 1 do
                    receive y <- i
                end
            else
                send x -> 0
            end
        """,
        description="All non-root processes send one message to process 0.",
        paper_ref="Fig. 1 (first phase)",
        pattern="gather",
    )
)

BROADCAST_FANOUT = register(
    ProgramSpec(
        name="broadcast_fanout",
        source="""
            x = 7
            if id == 0 then
                for i = 1 to np - 1 do
                    send x -> i
                end
            else
                receive y <- 0
            end
        """,
        description=(
            "Fan-out broadcast: root sends one message to every other "
            "process. This is the Section IX profiling workload."
        ),
        paper_ref="Sec. IX",
        pattern="broadcast",
    )
)

SCATTER_FROM_ROOT = register(
    ProgramSpec(
        name="scatter_from_root",
        source="""
            if id == 0 then
                for i = 1 to np - 1 do
                    x = i * 10
                    send x -> i
                end
            else
                receive y <- 0
            end
        """,
        description="Scatter: root sends a distinct value to each process.",
        paper_ref="Sec. VII (scatter-gather family)",
        pattern="scatter",
    )
)

# ---------------------------------------------------------------------------
# Fig. 7 — 1-D nearest-neighbor shift (three process roles)
# ---------------------------------------------------------------------------

SHIFT_RIGHT = register(
    ProgramSpec(
        name="shift_right",
        source="""
            x = id
            if id == 0 then
                send x -> id + 1
            elif id == np - 1 then
                receive y <- id - 1
            else
                receive y <- id - 1
                send x -> id + 1
            end
        """,
        description=(
            "Shift along one mesh dimension: interior processes receive from "
            "the left and send to the right; edges only send or only receive."
        ),
        paper_ref="Fig. 7 / Fig. 8",
        pattern="shift",
    )
)

NEIGHBOR_EXCHANGE_1D = register(
    ProgramSpec(
        name="neighbor_exchange_1d",
        source="""
            x = id
            if id == 0 then
                send x -> id + 1
                receive y <- id + 1
            elif id == np - 1 then
                receive y <- id - 1
                send x -> id - 1
            else
                receive y <- id - 1
                send x -> id + 1
                receive z <- id + 1
                send x -> id - 1
            end
        """,
        description=(
            "Full 1-D nearest-neighbor exchange (both directions), the "
            "2d+1 = 3 role pattern of PDE stencils."
        ),
        paper_ref="Sec. VIII-C",
        pattern="nearest-neighbor",
    )
)

RING_SHIFT_NOWRAP = register(
    ProgramSpec(
        name="ring_shift_nowrap",
        source="""
            x = 1
            if id < np - 1 then
                send x -> id + 1
            end
            if id > 0 then
                receive y <- id - 1
            end
        """,
        description="Open-ended ring: send right, receive from left.",
        paper_ref="Fig. 7 variant",
        pattern="shift",
    )
)

# ---------------------------------------------------------------------------
# Fig. 6 — NAS-CG transpose on square and rectangular grids
# ---------------------------------------------------------------------------

TRANSPOSE_SQUARE = register(
    ProgramSpec(
        name="transpose_square",
        source="""
            nrows = input()
            ncols = input()
            assert np == ncols * nrows
            assert ncols == nrows
            x = id
            send x -> (id % nrows) * nrows + id / nrows
            receive y <- (id % nrows) * nrows + id / nrows
        """,
        description=(
            "NAS-CG transpose, square grid: each process exchanges with the "
            "process at the transposed grid location."
        ),
        paper_ref="Fig. 6 (ncols == nrows)",
        pattern="transpose",
        client="cartesian",
    )
)

TRANSPOSE_RECT = register(
    ProgramSpec(
        name="transpose_rect",
        source="""
            nrows = input()
            ncols = input()
            assert np == ncols * nrows
            assert ncols == nrows * 2
            x = id
            send x -> 2 * ((id / 2) % nrows) * nrows + (id / (2 * nrows)) * 2 + id % 2
            receive y <- 2 * ((id / 2) % nrows) * nrows + (id / (2 * nrows)) * 2 + id % 2
        """,
        description=(
            "NAS-CG transpose, rectangular grid (ncols == 2*nrows): the "
            "folded exchange formula from the CG benchmark."
        ),
        paper_ref="Fig. 6 (ncols == 2*nrows)",
        pattern="transpose",
        client="cartesian",
    )
)

# ---------------------------------------------------------------------------
# Buggy programs for the error-detection client
# ---------------------------------------------------------------------------

MESSAGE_LEAK = register(
    ProgramSpec(
        name="message_leak",
        source="""
            x = 3
            if id == 0 then
                send x -> 1
                send x -> 1
            elif id == 1 then
                receive y <- 0
            else
                skip
            end
        """,
        description=(
            "Process 0 sends two messages but process 1 receives only one: "
            "the second message is leaked (sent but never received)."
        ),
        paper_ref="Sec. I (error detection)",
        pattern="buggy",
        client="none",
        notes="expected diagnosis: message leak on the second send",
    )
)

TYPE_MISMATCH = register(
    ProgramSpec(
        name="type_mismatch",
        source="""
            x = 3
            if id == 0 then
                send x -> 1 : float
            elif id == 1 then
                receive y <- 0 : int
            else
                skip
            end
        """,
        description=(
            "Matched send/receive pair with inconsistent message types "
            "(float vs int)."
        ),
        paper_ref="Sec. I (error detection)",
        pattern="buggy",
        client="none",
        notes="expected diagnosis: type mismatch on the matched pair",
    )
)

STUCK_RECEIVE = register(
    ProgramSpec(
        name="stuck_receive",
        source="""
            if id == 0 then
                receive y <- 1
            else
                skip
            end
        """,
        description=(
            "Process 0 blocks on a receive no process ever sends to: the "
            "analysis must give up with T and the bug detector must flag the "
            "stuck receive."
        ),
        paper_ref="Sec. VI (T on unmatched communication)",
        pattern="buggy",
        client="none",
        notes="expected diagnosis: permanently blocked receive",
    )
)

RING_MODULAR = register(
    ProgramSpec(
        name="ring_modular",
        source="""
            x = id
            send x -> (id + 1) % np
            receive y <- (id + np - 1) % np
        """,
        description=(
            "True wrap-around ring using modular arithmetic. Beyond both "
            "clients' message-expression abstractions; documents the "
            "conservative give-up path (T)."
        ),
        paper_ref="Sec. X (limitations)",
        pattern="ring",
        client="none",
        notes="expected: conservative T, no unsound matching",
    )
)

# ---------------------------------------------------------------------------
# Larger compositions
# ---------------------------------------------------------------------------

MDCASK_FULL = register(
    ProgramSpec(
        name="mdcask_full",
        source="""
            x = 5
            if id == 0 then
                for i = 1 to np - 1 do
                    receive y <- i
                end
                for i = 1 to np - 1 do
                    send x -> i
                    receive y <- i
                end
            else
                send x -> 0
                receive y <- 0
                send x -> 0
            end
        """,
        description=(
            "The full Fig. 1 mdcask structure: a gather-to-root phase "
            "followed by an exchange-with-root phase."
        ),
        paper_ref="Fig. 1",
        pattern="gather+exchange-with-root",
    )
)

MASTER_WORKER = register(
    ProgramSpec(
        name="master_worker",
        source="""
            if id == 0 then
                for i = 1 to np - 1 do
                    w = i * 100
                    send w -> i
                end
                for i = 1 to np - 1 do
                    receive r <- i
                end
            else
                receive w <- 0
                r = w + 1
                send r -> 0
            end
        """,
        description=(
            "Master-worker: the master scatters work items and gathers "
            "results; two process roles."
        ),
        paper_ref="Sec. V (role example)",
        pattern="master-worker",
    )
)

PIPELINE_STAGES = register(
    ProgramSpec(
        name="pipeline_stages",
        source="""
            x = 1
            if id == 0 then
                send x -> 1
            elif id < np - 1 then
                receive y <- id - 1
                x = y + 1
                send x -> id + 1
            else
                receive y <- id - 1
                print y
            end
        """,
        description="Linear pipeline: data flows 0 -> 1 -> ... -> np-1.",
        paper_ref="shift family",
        pattern="pipeline",
    )
)

SEQUENTIAL_ONLY = register(
    ProgramSpec(
        name="sequential_only",
        source="""
            x = 2
            y = x * 3
            while y > 0 do
                y = y - 1
            end
            print y
        """,
        description="No communication at all; baseline for the framework.",
        paper_ref="-",
        pattern="none",
    )
)
