"""Relation 4 of the metamorphic precision oracle: names carry no meaning.

Renaming every program variable consistently must leave the ladder's
answer identical: the answering rung, its confidence, the matches
(compared by statement text, mapped back through the renaming) and the
steps of every rung it ran.  The new names reverse the variables' sort
order, so whatever the analysis orders by name (closure order, a bound's
canonical form, fingerprints) runs the other way round.

Only variables are renamed, through the lexer's ``NAME`` tokens.
Keywords, ``id``, ``np`` and message type names keep their meaning;
``int`` in particular is the default message type and is not printed, so
renaming it would change a typed message's statement text.
"""

from __future__ import annotations

from typing import Dict

import pytest

from repro.core.driver import analyze_with_fallback
from repro.corpus.generator import generate, seed_stream
from repro.corpus.sweep import DEFAULT_MANIFEST, resolve_default, smoke_programs
from repro.lang import build_cfg, parse, programs
from repro.lang.lexer import _TOKEN_RE, KEYWORDS

#: names with a fixed meaning: the rank and the process count
FIXED = {"id", "np"}

SERVICE_SEEDS = seed_stream(4242, 100)


def _names(source: str):
    """``(span, text, is_variable)`` for every ``NAME`` token of ``source``;
    a name right after ``:`` is a message type, not a variable."""
    previous = None
    for match in _TOKEN_RE.finditer(source):
        kind, text = match.lastgroup, match.group()
        if kind == "NAME":
            is_variable = (
                text not in KEYWORDS and text not in FIXED and previous != ":"
            )
            yield match.span(), text, is_variable
        if kind not in ("SKIP", "NEWLINE", "COMMENT"):
            previous = text


def rename(source: str, mapping: Dict[str, str]) -> str:
    """``source`` with every variable renamed through ``mapping``."""
    pieces, end = [], 0
    for (start, stop), text, is_variable in _names(source):
        if is_variable and text in mapping:
            pieces.append(source[end:start])
            pieces.append(mapping[text])
            end = stop
    pieces.append(source[end:])
    return "".join(pieces)


def reversing_names(source: str) -> Dict[str, str]:
    """A fresh name per variable, in the reverse of the variables' order."""
    variables = sorted({text for _, text, is_variable in _names(source) if is_variable})
    count = len(variables)
    mapping = {name: f"v{count - 1 - i:03d}" for i, name in enumerate(variables)}
    taken = {text for _, text, is_variable in _names(source) if not is_variable}
    assert taken.isdisjoint(mapping.values()), taken
    return mapping


def answer(source: str, back: Dict[str, str]):
    """The ladder's answer, statement texts renamed through ``back``."""
    program = parse(source)
    cfg = build_cfg(program)
    report = analyze_with_fallback(program)
    matches = sorted(
        (
            rename(str(cfg.node(send).stmt), back),
            rename(str(cfg.node(recv).stmt), back),
        )
        for send, recv in report.result.matches
    )
    rungs = [
        (outcome.name, outcome.result.confidence, outcome.result.steps)
        for outcome in report.rungs
    ]
    return report.rung_name, report.result.confidence, matches, rungs


def renamed_answers(source: str):
    """(answer of ``source``, answer of its renamed copy mapped back)."""
    mapping = reversing_names(source)
    back = {new: old for old, new in mapping.items()}
    return answer(source, {}), answer(rename(source, mapping), back)


def test_renaming_reverses_the_variable_order():
    source = "x = id + 1\nsend x -> 0 : msg\nreceive y <- np - 1 : int\n"
    mapping = reversing_names(source)
    assert mapping == {"x": "v001", "y": "v000"}
    assert rename(source, mapping) == (
        "v001 = id + 1\nsend v001 -> 0 : msg\nreceive v000 <- np - 1 : int\n"
    )


@pytest.mark.parametrize("name", programs.names())
def test_renaming_paper_variables_keeps_the_answer(name):
    original, renamed = renamed_answers(programs.get(name).source)
    assert renamed == original


@pytest.mark.parametrize("seed", SERVICE_SEEDS)
def test_renaming_service_variables_keeps_the_answer(seed):
    original, renamed = renamed_answers(generate(seed).source)
    assert renamed == original


@pytest.mark.ladder_slow
def test_renaming_smoke_variables_keeps_the_answer():
    differences = []
    for generated in smoke_programs(resolve_default(DEFAULT_MANIFEST)):
        original, renamed = renamed_answers(generated.source)
        if renamed != original:
            differences.append((generated.corpus_id, original, renamed))
    assert differences == []
