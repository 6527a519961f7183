"""The traced run's span ledger.

Spans are recorded by the benchmark's own code around calls into each
layer's public functions (``lang.parse``, ``lang.cfg.build_cfg``, each
rung runner of ``driver.default_ladder()``, and in the daemon the
service's admission, cache and journal calls).  The engine phases inside
a rung come from the program's ``repro.obs`` recorder, which the traced
run switches on.  A rung span stores how much of its time those
recorder spans cover, so a stage's self time is its duration minus its
child spans minus that covered time, and no second is counted twice.

Spans live in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

#: recorder spans the benchmark measures from outside (its rung spans
#: wrap the same calls), excluded so their time is not counted twice
OUTSIDE_PREFIX = "driver."


class Ledger:
    """Spans with ``name``, ``start``, ``end``, ``parent`` and ``answer``
    (the answer or request they belong to), safe to record from threads."""

    def __init__(self, answer_of: Optional[Callable[[], object]] = None) -> None:
        self.spans: List[dict] = []
        self.answer = None
        self._answer_of = answer_of
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current_answer(self):
        return self._answer_of() if self._answer_of is not None else self.answer

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = {
            "id": f"{os.getpid()}:{next(self._ids)}",
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "answer": self._current_answer(),
            "pid": os.getpid(),
            **attrs,
        }
        stack.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            stack.pop()
            self.spans.append(record)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def adopt_orphans(spans: List[dict], root: str) -> None:
    """Give each parentless span the ``root`` span of its answer as parent
    (spans recorded where the root was not on the stack: in another
    process)."""
    roots = {span["answer"]: span["id"] for span in spans if span["name"] == root}
    for span in spans:
        if span["parent"] is None and span["name"] != root:
            span["parent"] = roots.get(span["answer"])


def _covered_by(intervals: List[tuple], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def with_self_times(spans: Iterable[dict]) -> List[dict]:
    """Each span gains ``self``: its duration minus the union of its child
    spans (children may run on other threads and overlap) and the
    recorder time it covers (``obs_covered``)."""
    spans = list(spans)
    children: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    for span in spans:
        inner = _covered_by(children.get(span["id"], []), span["start"], span["end"])
        span["self"] = duration(span) - inner - span.get("obs_covered", 0.0)
    return spans


# -- the program's recorder ----------------------------------------------------


def recorder_self_times(recorder) -> Dict[str, float]:
    """Self seconds per recorder span name, minus the outside-measured ones."""
    return {
        name: stats.self_time
        for name, stats in getattr(recorder, "spans", {}).items()
        if not name.startswith(OUTSIDE_PREFIX)
    }


def covered(recorder) -> float:
    return sum(recorder_self_times(recorder).values())


# -- wrappers --------------------------------------------------------------------


def timed_ladder(ledger: Ledger, recorder, ladder=None):
    """``driver.default_ladder()`` with each rung runner wrapped in a span.

    A wrapper keeps its runner's signature class (with or without the
    ``checkpointer``/``resume`` keywords), because the driver decides on
    warm starts by inspecting it.
    """
    from repro.core.driver import Rung, default_ladder

    def timed(rung: Rung) -> Rung:
        def measure(call):
            before = covered(recorder)
            with ledger.span(f"driver.rung.{rung.name}") as record:
                result, cfg, client = call()
            record["obs_covered"] = covered(recorder) - before
            record["confidence"] = result.confidence
            return result, cfg, client

        params = inspect.signature(rung.run).parameters
        if "checkpointer" in params and "resume" in params:
            def run(program, limits, *, checkpointer=None, resume=None):
                return measure(lambda: rung.run(
                    program, limits, checkpointer=checkpointer, resume=resume))
        else:
            def run(program, limits):
                return measure(lambda: rung.run(program, limits))
        return Rung(rung.name, run, rung.limits)

    return [timed(rung) for rung in (ladder if ladder is not None else default_ladder())]


class Patches:
    """Module/class attributes replaced by spanned wrappers, undone on exit."""

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self._undo: List[tuple] = []

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper recording span ``name``;
        ``after(record, result)`` may annotate the span."""
        original = getattr(owner, attr)
        ledger = self.ledger

        def wrapper(*args, **kwargs):
            with ledger.span(name) as record:
                result = original(*args, **kwargs)
                if after is not None:
                    after(record, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_lang(self, owner=None) -> None:
        """Span ``build_cfg`` (counting CFG nodes) where ``owner`` calls it;
        by default in ``repro.lang.cfg``, which the analyses import at
        call time."""
        if owner is None:
            import repro.lang.cfg as owner
        self.wrap(owner, "build_cfg", "lang.build_cfg",
                  after=lambda record, cfg: record.__setitem__("nodes", len(cfg.nodes)))

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.undo()
