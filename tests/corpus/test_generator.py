"""Property tests for the corpus generator.

Every program the generator can ever emit must (1) parse, (2) round-trip
through the unparser/parser pair, and (3) build a structurally well-formed
CFG — the invariants the sweep harness and the checked-in manifest lean on.
The paper programs, which use ``for``, ``assert`` and typed messages the
generator does not emit, must round-trip too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.generator import (
    ANALYZER_MIN_NP,
    GRAMMAR_VERSION,
    corpus_id_for,
    generate,
    generate_from_id,
    parse_corpus_id,
    seed_stream,
)
from repro.lang.build import to_source
from repro.lang import programs
from repro.lang.cfg import NodeKind, build_cfg
from repro.lang.parser import parse

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def assert_well_formed(cfg) -> None:
    """The structural invariants the engine enforces as ``CFG_MALFORMED``:
    branch nodes have exactly one True- and one False-successor, every
    other non-exit node exactly one unlabeled successor."""
    for node_id, node in cfg.nodes.items():
        succs = cfg.successors(node_id)
        if node.kind == NodeKind.EXIT:
            assert succs == [], f"exit node {node_id} has successors"
        elif node.kind == NodeKind.BRANCH:
            labels = sorted(label for _dst, label in succs)
            assert labels == [False, True], (
                f"branch node {node_id} has successors {succs}"
            )
        else:
            labels = [label for _dst, label in succs]
            assert labels == [None], f"node {node_id} has successors {succs}"


class TestPaperPrograms:
    @pytest.mark.parametrize("name", programs.names())
    def test_round_trips(self, name):
        program = programs.get(name).parse()
        assert parse(to_source(program)) == program


class TestGeneratedPrograms:
    @given(seed=seeds)
    @settings(max_examples=60, deadline=None)
    def test_parses_round_trips_and_builds_well_formed_cfg(self, seed):
        generated = generate(seed)
        program = generated.parse()  # (1) parses
        assert parse(to_source(program)) == program  # (2) round-trips
        assert_well_formed(build_cfg(program))  # (3) no CFG_MALFORMED

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_deterministic_and_regenerable_from_id(self, seed):
        first = generate(seed)
        second = generate(seed)
        assert first == second
        assert generate_from_id(first.corpus_id) == first

    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_np_values_respect_analyzer_precondition(self, seed):
        generated = generate(seed)
        assert generated.np_values, "every program needs oracle np values"
        assert all(np_ >= ANALYZER_MIN_NP for np_ in generated.np_values)
        assert all(np_ >= generated.axes["min_np"] for np_ in generated.np_values)
        assert list(generated.np_values) == sorted(set(generated.np_values))


class TestCorpusIds:
    @given(seed=seeds)
    @settings(max_examples=30, deadline=None)
    def test_id_round_trip(self, seed):
        corpus_id = corpus_id_for(seed)
        assert parse_corpus_id(corpus_id) == (GRAMMAR_VERSION, seed)

    def test_malformed_ids_rejected(self):
        for bad in ("mplg1-xyz", "mplg-00000001", "prog1-00000001", "mplg1-1"):
            with pytest.raises(ValueError):
                parse_corpus_id(bad)

    def test_seed_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            corpus_id_for(2**32)

    def test_wrong_grammar_version_rejected(self):
        other = corpus_id_for(7, grammar_version=GRAMMAR_VERSION + 1)
        with pytest.raises(ValueError, match="grammar"):
            generate_from_id(other)


class TestSeedStream:
    def test_deterministic_and_distinct(self):
        first = seed_stream(1337, 100)
        assert first == seed_stream(1337, 100)
        assert len(set(first)) == 100
        assert first[:50] == seed_stream(1337, 50)

    def test_different_bases_diverge(self):
        assert seed_stream(1, 20) != seed_stream(2, 20)
