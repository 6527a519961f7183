"""Symbolic process-set tests, validated against concrete enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyses.simple_symbolic import (
    PSetEntry,
    SimpleSymbolicClient,
    SymbolicState,
    _store,
    _stored,
)
from repro.cgraph.constraint_graph import ConstraintGraph
from repro.expr.linear import LinearExpr
from repro.procset.interval import Order, ProcSet, SymRange, canonical, eq, lt


def L(value):
    return LinearExpr.coerce(value)


@pytest.fixture
def oracle():
    """Constraint graph knowing i == 2 and np >= 6."""
    g = ConstraintGraph()
    g.set_const("i", 2)
    g.add_lower("np", 6)
    return g


class TestBound:
    """A bound is one expression.  Inside a client state it is a variable of
    the constraint graph, so what the paper keeps as a bound's set of
    equal expressions is the graph's equality class of that variable, its
    widening is the graph's, and the canonical rule picks the form a
    reader sees."""

    def test_canonical_prefers_constant(self):
        assert canonical({L("i"), L(2)}) == L(2)

    def test_canonical_prefers_fewer_variables_then_text(self):
        assert canonical({L("np") - 1, L("i") + L("j")}) == L("np") - 1
        assert canonical({L("np") - 1, L("ps1::i")}) == L("np") - 1

    def test_shift(self):
        assert SymRange.point(L("i")).shift(3).lb == L("i") + 3

    def test_translate_symbolic(self):
        assert SymRange.point(0).shift(L("np")).ub == L("np")

    def test_widen_keeps_common(self):
        # lb == i == 1, then lb == i == 2: widening keeps the common form
        older, newer = ConstraintGraph(), ConstraintGraph()
        for graph, value in ((older, 1), (newer, 2)):
            graph.set_const("i", value)
            graph.add_eq_diff("i", "lb", 0)
            graph.close()
        widened = older.widen(older.join(newer))
        assert widened.equivalents(L("lb")) == frozenset({L("lb"), L("i")})

    def test_join_without_a_common_form_keeps_what_both_know(self):
        # [0..np-5] joined with [0..np-7]: no form is common, and the join
        # still knows np - 7 <= ub <= np - 5
        older, newer = ConstraintGraph(), ConstraintGraph()
        for graph, offset in ((older, -5), (newer, -7)):
            graph.add_lower("np", 12)
            graph.add_eq_diff("np", "ub", offset)
            graph.close()
        joined = older.join(newer)
        assert joined.equivalents(L("ub")) == frozenset({L("ub")})
        assert joined.entails_leq(L("ub"), L("np") - 5) is True
        assert joined.entails_leq(L("np") - 7, L("ub")) is True
        assert joined.entails_leq(L("ub"), L("np") - 6) is None

    def test_union(self):
        # two descriptions of one bound are both its forms once the graph
        # knows they are equal
        g = ConstraintGraph()
        g.set_const("lb", 1)
        g.assume_eq(L("lb"), L("i"))
        assert {L(1), L("i")} <= g.equivalents(L("lb"))

    def test_empty_bound_rejected(self):
        with pytest.raises(ValueError):
            canonical(set())

    def test_leq_via_oracle(self, oracle):
        assert oracle.entails_leq(L("i"), L("np") - 1) is True

    def test_eq_via_shared_expr(self):
        assert eq(Order(), L("i"), L("i")) is True
        assert eq(Order(), L("i"), L("j")) is None

    def test_eq_and_lt_via_oracle(self, oracle):
        assert eq(oracle, L("i"), L(2)) is True
        assert eq(oracle, L("i"), L(3)) is False
        assert lt(oracle, L("i"), L(3)) is True
        assert lt(oracle, L("i"), L("j")) is None

    def test_substitute(self):
        # x := x + 1 on a bound equal to i + 1 leaves it equal to the new i
        g = ConstraintGraph()
        g.add_lower("i", 0)
        g.add_eq_diff("i", "lb", 1)
        g.close()
        g.assign("i", L("i") + 1)
        assert L("i") in g.equivalents(L("lb"))

    def test_unrelated_bindings_return_the_same_objects(self):
        # storing a set whose bounds already are its variables binds
        # nothing: the set object is shared and the graph is not touched
        stored = _stored(1, 2)
        assert _stored(1, 2) is stored
        g = ConstraintGraph()
        g.set_const("ps1::.lb0", 0)
        g.close()
        before = g.fingerprint()
        shared = g.copy()
        assert _store(shared, 1, stored) is stored
        assert shared._bound is g._bound
        assert shared.fingerprint() == before


class TestSymRange:
    def test_emptiness_decided(self, oracle):
        assert SymRange.make(3, 2).is_empty(oracle) is True
        assert SymRange.make(2, 3).is_empty(oracle) is False

    def test_emptiness_unknown(self, oracle):
        rng = SymRange.make("i", "j")
        assert rng.is_empty(oracle) is None

    def test_singleton(self, oracle):
        assert SymRange.point(L("i")).is_singleton(oracle) is True
        assert SymRange.make(1, 2).is_singleton(oracle) is False

    def test_contains(self, oracle):
        rng = SymRange.make(1, L("np") - 1)
        assert rng.contains_expr(L("i"), oracle) is True
        assert rng.contains_expr(L(0), oracle) is False

    def test_intersect(self, oracle):
        a = SymRange.make(1, L("np") - 1)
        b = SymRange.point(L("i"))
        inter = a.intersect(b, oracle)
        assert eq(oracle, inter.lb, b.lb) is True

    def test_intersect_unknown_is_none(self, oracle):
        a = SymRange.make("j", 10)
        b = SymRange.make(1, 10)
        assert a.intersect(b, oracle) is None

    def test_difference_middle(self, oracle):
        a = SymRange.make(1, L("np") - 1)
        pieces = a.difference(SymRange.point(L("i")), oracle)
        assert len(pieces) == 2
        low, high = pieces
        assert eq(oracle, low.ub, L("i") - 1) is True
        assert eq(oracle, high.lb, L("i") + 1) is True

    def test_difference_disjoint(self, oracle):
        a = SymRange.make(5, 9)
        pieces = a.difference(SymRange.make(1, 2), oracle)
        assert pieces == [a]

    def test_difference_whole(self, oracle):
        a = SymRange.make(1, 4)
        pieces = a.difference(SymRange.make(1, 4), oracle)
        assert pieces == []

    def test_enumerate(self):
        rng = SymRange.make(2, L("np") - 1)
        assert rng.enumerate({"np": 5}) == [2, 3, 4]


class TestProcSet:
    def test_empty_set(self, oracle):
        assert ProcSet.empty().is_empty(oracle) is True

    def test_prune_empty(self, oracle):
        pset = ProcSet([SymRange.make(1, 0), SymRange.make(2, 5)])
        pruned = pset.prune_empty(oracle)
        assert len(pruned.ranges) == 1

    def test_union_coalesces_adjacent(self, oracle):
        a = ProcSet([SymRange.make(0, 0)])
        b = ProcSet([SymRange.make(1, L("np") - 1)])
        merged = a.union_with(b, oracle)
        rng = merged.single_range()
        assert rng is not None
        assert rng.enumerate({"np": 6, "i": 2}) == [0, 1, 2, 3, 4, 5]

    def test_union_keeps_disjoint(self, oracle):
        a = ProcSet([SymRange.make(0, 0)])
        b = ProcSet([SymRange.make(4, 5)])
        merged = a.union_with(b, oracle)
        assert len(merged.ranges) == 2

    def test_union_coalesces_symbolic(self, oracle):
        # [1..i-1] followed by [i..np-1] must coalesce
        a = ProcSet([SymRange.make(1, L("i") - 1)])
        b = ProcSet([SymRange.make(L("i"), L("np") - 1)])
        merged = a.union_with(b, oracle)
        assert merged.single_range() is not None

    def test_sets_compare_by_value(self):
        assert ProcSet.range(1, L("np") - 1) == ProcSet.range(1, L("np") - 1)
        assert ProcSet.range(1, 2) != ProcSet.range(1, 3)
        assert len({ProcSet.point(0), ProcSet.point(0)}) == 1

    def test_widen_positional(self):
        # the client pairs sets by position and ranges by index, so range k
        # of both states is the same pair of graph variables; widening the
        # joined graph keeps the loop counter form of the lower bound
        def state(value):
            cg = ConstraintGraph()
            cg.set_const("ps1::i", value)
            pset = _store(cg, 1, ProcSet.range(L("ps1::i"), 5))
            return SymbolicState(cg, (PSetEntry(1, pset),), (), 2)

        client = SimpleSymbolicClient()
        older = state(1)
        widened = client.widen(older, client.join(older, state(2)))
        (rng,) = widened.psets[0].pset.ranges
        assert L("ps1::i") in widened.cg.equivalents(rng.lb)
        assert L(5) in widened.cg.equivalents(rng.ub)

    def test_widen_shape_mismatch(self):
        def state(pset):
            cg = ConstraintGraph()
            return SymbolicState(cg, (PSetEntry(1, _store(cg, 1, pset)),), (), 2)

        one = state(ProcSet([SymRange.make(1, 2)]))
        two = state(ProcSet([SymRange.make(1, 2), SymRange.make(4, 5)]))
        assert SimpleSymbolicClient().join(one, two) is None

    def test_shift_and_translate(self):
        pset = ProcSet([SymRange.make(1, 3)])
        assert pset.shift(2).enumerate({}) == [3, 4, 5]
        assert pset.shift(L("np")).enumerate({"np": 10}) == [11, 12, 13]

    def test_enumerate_dedupes(self):
        pset = ProcSet([SymRange.make(1, 3), SymRange.make(3, 4)])
        assert pset.enumerate({}) == [1, 2, 3, 4]


class TestSetAlgebraConcretely:
    """Symbolic operations agree with concrete set algebra (hypothesis)."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
    )
    def test_intersect_concrete(self, a_lo, a_hi, b_lo, b_hi):
        order = Order()
        a = SymRange.make(a_lo, a_hi)
        b = SymRange.make(b_lo, b_hi)
        inter = a.intersect(b, order)
        expected = set(range(a_lo, a_hi + 1)) & set(range(b_lo, b_hi + 1))
        assert inter is not None
        got = set(inter.enumerate({})) if inter.is_empty(order) is not True else set()
        assert got == expected

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)
    )
    def test_difference_concrete(self, a_lo, a_hi, b_lo, b_hi):
        order = Order()
        a = SymRange.make(a_lo, a_hi)
        b = SymRange.make(b_lo, b_hi)
        pieces = a.difference(b, order)
        assert pieces is not None
        expected = set(range(a_lo, a_hi + 1)) - set(range(b_lo, b_hi + 1))
        got = set()
        for piece in pieces:
            if piece.is_empty(order) is not True:
                got |= set(piece.enumerate({}))
        assert got == expected
