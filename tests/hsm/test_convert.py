"""Expression -> HSM conversion tests (Section VIII-A mechanization)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.expr.poly import Poly
from repro.expr.rewrite import InvariantSystem
from repro.hsm.convert import expr_to_hsm, pset_to_hsm
from repro.hsm.hsm import enumerate_hsm
from repro.lang.parser import parse_expr
from tests.expr.test_poly import rebuilt


def plain_inv():
    inv = InvariantSystem()
    inv.assume_positive("nrows", "ncols", "np")
    inv.add_equality("np", Poly.var("nrows") * Poly.var("ncols"))
    return inv


class TestConversion:
    def test_id_is_domain(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(0), Poly.const(6))
        h = expr_to_hsm(parse_expr("id"), domain, inv)
        assert enumerate_hsm(h, {}) == list(range(6))

    def test_constant_broadcast(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(0), Poly.const(4))
        h = expr_to_hsm(parse_expr("7"), domain, inv)
        assert enumerate_hsm(h, {}) == [7, 7, 7, 7]

    def test_uniform_parameter_broadcast(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(0), Poly.const(3))
        h = expr_to_hsm(parse_expr("nrows"), domain, inv)
        assert enumerate_hsm(h, {"nrows": 5}) == [5, 5, 5]

    def test_shift(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(0), Poly.const(4))
        h = expr_to_hsm(parse_expr("id + 1"), domain, inv)
        assert enumerate_hsm(h, {}) == [1, 2, 3, 4]

    def test_subtraction(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(2), Poly.const(4))
        h = expr_to_hsm(parse_expr("id - 2"), domain, inv)
        assert enumerate_hsm(h, {}) == [0, 1, 2, 3]

    def test_reverse_subtraction(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(0), Poly.const(3))
        h = expr_to_hsm(parse_expr("10 - id"), domain, inv)
        assert enumerate_hsm(h, {}) == [10, 9, 8]

    def test_scaling(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(0), Poly.const(3))
        h = expr_to_hsm(parse_expr("id * 4"), domain, inv)
        assert enumerate_hsm(h, {}) == [0, 4, 8]

    def test_hsm_times_hsm_unsupported(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(0), Poly.const(3))
        assert expr_to_hsm(parse_expr("id * id"), domain, inv) is None

    def test_div_by_hsm_unsupported(self):
        inv = plain_inv()
        domain = pset_to_hsm(Poly.const(1), Poly.const(3))
        assert expr_to_hsm(parse_expr("6 / id"), domain, inv) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4))
    def test_combined_expression_concrete(self, a, b, q):
        inv = InvariantSystem()
        domain = pset_to_hsm(Poly.const(0), Poly.const(12))
        source = f"(id / {q}) * {a} + id % {q} + {b}"
        h = expr_to_hsm(parse_expr(source), domain, inv)
        if h is None:
            return
        expected = [(i // q) * a + i % q + b for i in range(12)]
        assert enumerate_hsm(h, {}) == expected


TRANSPOSES = [
    "(id % nrows) * nrows + id / nrows",
    "2 * ((id / 2) % nrows) * nrows + (id / (2 * nrows)) * 2 + id % 2",
]


@pytest.mark.parametrize("rect", [False, True])
@pytest.mark.parametrize("source", TRANSPOSES)
def test_transpose_hsms_match_the_rebuilding_substitution(source, rect, monkeypatch):
    """The Fig. 6 destinations convert to the same HSMs when every
    substitution rebuilds its polynomial, as before the identity shortcut."""

    def convert():
        inv = InvariantSystem()
        inv.assume_positive("nrows", "ncols", "np")
        inv.add_equality("np", Poly.var("nrows") * Poly.var("ncols"))
        inv.add_equality("ncols", 2 * Poly.var("nrows") if rect else Poly.var("nrows"))
        domain = pset_to_hsm(Poly.const(0), Poly.var("np"))
        return expr_to_hsm(parse_expr(source), domain, inv)

    fast = convert()
    monkeypatch.setattr(Poly, "substitute", rebuilt)
    assert convert() == fast
