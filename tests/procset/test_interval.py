"""Symbolic process-set tests, validated against concrete enumeration."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cgraph.constraint_graph import ConstraintGraph
from repro.expr.linear import LinearExpr
from repro.procset.interval import Bound, Order, ProcSet, SymRange


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
    def test_canonical_prefers_constant(self):
        bound = Bound({L("i"), L(2)})
        assert bound.canonical() == L(2)

    def test_shift(self):
        bound = Bound({L("i")}).shift(3)
        assert bound.exprs == frozenset({L("i") + 3})

    def test_translate_symbolic(self):
        bound = Bound({L(0)}).translate(L("np"))
        assert bound.exprs == frozenset({L("np")})

    def test_widen_keeps_common(self):
        a = Bound({L(1), L("i")})
        b = Bound({L(2), L("i")})
        assert a.widen_with(b).exprs == frozenset({L("i")})

    def test_widen_empty_is_none(self):
        assert Bound({L(1)}).widen_with(Bound({L(2)})) is None

    def test_union(self):
        merged = Bound({L(1)}).union_with(Bound({L("i")}))
        assert merged.exprs == frozenset({L(1), L("i")})

    def test_empty_bound_rejected(self):
        with pytest.raises(ValueError):
            Bound(set())

    def test_leq_via_oracle(self, oracle):
        assert Bound({L("i")}).leq(Bound({L("np") - 1}), oracle) is True

    def test_eq_via_shared_expr(self):
        a = Bound({L("i"), L(5)})
        b = Bound({L("i")})
        assert a.eq(b, Order()) is True

    def test_substitute(self):
        bound = Bound({L("i") + 1}).substitute({"i": L("i") - 1})
        assert bound.exprs == frozenset({L("i")})

    def test_unrelated_bindings_return_the_same_objects(self):
        bound = Bound({L("i") + 1, L(5)})
        rng = SymRange(bound, Bound.of("j"))
        pset = ProcSet([rng, SymRange.make(7, 9)])
        bindings = {"k": L("i")}
        assert bound.substitute(bindings) is bound
        assert rng.substitute(bindings) is rng
        assert pset.substitute(bindings) is pset
        moved = pset.substitute({"j": L("k")})
        assert moved is not pset
        assert moved.ranges[0].lb is bound
        assert moved.ranges[0].ub == Bound.of("k")
        assert moved.ranges[1] is pset.ranges[1]


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
        assert inter.lb.eq(b.lb, oracle) is True

    def test_intersect_unknown_is_none(self, oracle):
        a = SymRange.make("j", 10)
        b = SymRange.make(1, 10)
        assert a.intersect(b, oracle) is None

    def test_difference_middle(self, oracle):
        a = SymRange.make(1, L("np") - 1)
        pieces = a.difference(SymRange.point(L("i")), oracle)
        assert len(pieces) == 2
        low, high = pieces
        assert low.ub.eq(Bound({L("i") - 1}), oracle) is True
        assert high.lb.eq(Bound({L("i") + 1}), oracle) is True

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

    def test_widen_positional(self):
        a = ProcSet([SymRange(Bound({L(1), L("i")}), Bound({L(5)}))])
        b = ProcSet([SymRange(Bound({L(2), L("i")}), Bound({L(5)}))])
        widened = a.widen_with(b)
        assert widened.single_range().lb.exprs == frozenset({L("i")})

    def test_widen_shape_mismatch(self):
        a = ProcSet([SymRange.make(1, 2)])
        b = ProcSet([SymRange.make(1, 2), SymRange.make(4, 5)])
        assert a.widen_with(b) is None

    def test_shift_and_translate(self):
        pset = ProcSet([SymRange.make(1, 3)])
        assert pset.shift(2).enumerate({}) == [3, 4, 5]
        assert pset.translate(L("np")).enumerate({"np": 10}) == [11, 12, 13]

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
