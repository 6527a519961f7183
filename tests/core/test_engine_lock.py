"""Behaviour lock: the ladder's answers and the engine's work, pinned.

``tests/data/engine_lock.json`` records, for every program under every
limit set of :mod:`tests.core.test_ladder_routing`, what
``analyze_with_fallback`` answered and how much engine work it took:
the answering rung, its confidence, the sorted match set, the sorted
diagnostic codes, ``result.steps`` and the explored pCFG's node and edge
counts.  A change that is meant to be behaviour-preserving (a faster
algorithm, a deleted memo) must leave every entry equal; a change that
moves an answer on purpose regenerates the file in the same commit::

    PYTHONPATH=src python -m tests.core.test_engine_lock

The tier-1 test covers the 18 registered programs; the ``ladder_slow``
twin covers the 100 service programs (base seed 4242) and the 50
smoke-manifest programs.  ``tests/data/match_descriptions.json`` pins, for
the 18 registered programs at default limits, the printed match records
(``send:[set] -> recv:[set]``) a reader of ``explain`` sees; the same
command regenerates it.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.driver import analyze_with_fallback
from repro.lang import programs
from tests.core.test_ladder_routing import LIMIT_SETS, _wide_corpus

LOCK_PATH = Path(__file__).resolve().parent.parent / "data" / "engine_lock.json"
DESCRIPTIONS_PATH = LOCK_PATH.parent / "match_descriptions.json"


def lock_entry(program, limits) -> dict:
    """The locked fields of one ``analyze_with_fallback`` run."""
    report = analyze_with_fallback(program, limits=limits)
    result = report.result
    return {
        "rung": report.rung_name,
        "confidence": result.confidence,
        "matches": [list(pair) for pair in sorted(result.matches)],
        "codes": sorted(diag.code for diag in result.diagnostics),
        "steps": result.steps,
        "nodes": result.explored.node_count(),
        "edges": result.explored.edge_count(),
    }


def match_descriptions(program) -> list:
    """The sorted printed match records of one default-limits run."""
    report = analyze_with_fallback(program)
    return sorted(str(record) for record in report.result.topology.records)


def _paper_programs():
    return [(name, programs.get(name).parse()) for name in programs.names()]


def _corpus_programs():
    return [(item.corpus_id, item.parse()) for item in _wide_corpus()]


def _key(name: str, limits_id: str) -> str:
    return f"{name} @ {limits_id}"


def compute(named_programs) -> dict:
    return {
        _key(name, limits_id): lock_entry(program, limits)
        for name, program in named_programs
        for limits_id, limits in LIMIT_SETS.items()
    }


def _load() -> dict:
    return json.loads(LOCK_PATH.read_text())


def _differences(tier: str, named_programs) -> list:
    locked = _load()[tier]
    current = compute(named_programs)
    assert sorted(current) == sorted(locked)
    return [
        (key, locked[key], current[key])
        for key in sorted(current)
        if current[key] != locked[key]
    ]


def test_paper_programs_match_the_lock():
    assert _differences("paper", _paper_programs()) == []


def test_paper_match_descriptions_match_the_lock():
    locked = json.loads(DESCRIPTIONS_PATH.read_text())
    current = {name: match_descriptions(program) for name, program in _paper_programs()}
    assert current == locked


@pytest.mark.ladder_slow
def test_corpus_programs_match_the_lock():
    assert _differences("corpus", _corpus_programs()) == []


def write_lock() -> None:
    """Regenerate the lock file (one entry per line, for reviewable diffs)."""
    tiers = {"paper": compute(_paper_programs()), "corpus": compute(_corpus_programs())}
    lines = ["{"]
    for t, (tier, entries) in enumerate(tiers.items()):
        lines.append(f"  {json.dumps(tier)}: {{")
        keys = sorted(entries)
        for i, key in enumerate(keys):
            comma = "," if i < len(keys) - 1 else ""
            body = json.dumps(entries[key], sort_keys=True)
            lines.append(f"    {json.dumps(key)}: {body}{comma}")
        lines.append("  }" + ("," if t < len(tiers) - 1 else ""))
    lines.append("}")
    LOCK_PATH.parent.mkdir(parents=True, exist_ok=True)
    LOCK_PATH.write_text("\n".join(lines) + "\n")
    described = {name: match_descriptions(program) for name, program in _paper_programs()}
    body = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(described[name])}" for name in sorted(described)
    )
    DESCRIPTIONS_PATH.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    write_lock()
