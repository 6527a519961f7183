"""Tests for invariant-system normalization and sign reasoning."""

import pytest
from hypothesis import given, strategies as st

from repro.expr.poly import Poly
from repro.expr.rewrite import InvariantSystem
from tests.expr.test_poly import polys, rebuilt


@pytest.fixture
def square_system():
    inv = InvariantSystem()
    inv.add_equality("ncols", Poly.var("nrows"))
    inv.add_equality("np", Poly.var("nrows") * Poly.var("ncols"))
    inv.assume_positive("nrows", "ncols", "np")
    return inv


@pytest.fixture
def rect_system():
    inv = InvariantSystem()
    inv.add_equality("ncols", 2 * Poly.var("nrows"))
    inv.add_equality("np", Poly.var("nrows") * Poly.var("ncols"))
    inv.assume_positive("nrows", "ncols", "np")
    return inv


class TestNormalization:
    def test_chained_substitution(self, square_system):
        normal = square_system.normalize(Poly.var("np"))
        assert normal == Poly.var("nrows") * Poly.var("nrows")

    def test_rect_substitution(self, rect_system):
        normal = rect_system.normalize(Poly.var("np"))
        assert normal == 2 * Poly.var("nrows") * Poly.var("nrows")

    def test_equal_modulo_invariants(self, square_system):
        assert square_system.equal(
            Poly.var("np"), Poly.var("nrows") * Poly.var("ncols")
        )

    def test_unrelated_not_equal(self, square_system):
        assert not square_system.equal(Poly.var("np"), Poly.var("nrows"))

    def test_circular_invariant_rejected(self):
        inv = InvariantSystem()
        with pytest.raises(ValueError):
            inv.add_equality("x", Poly.var("x") + 1)

    @given(polys(), st.booleans())
    def test_normal_forms_equal_the_rebuilding_fixpoint(self, poly, rect):
        """The identity shortcut of ``Poly.substitute`` ends the fixpoint
        round early but changes no normal form under the transpose
        invariants."""
        inv = InvariantSystem()
        inv.add_equality("ncols", 2 * Poly.var("nrows") if rect else Poly.var("nrows"))
        inv.add_equality("np", Poly.var("nrows") * Poly.var("ncols"))
        reference = poly
        while rebuilt(reference, inv.substitutions) != reference:
            reference = rebuilt(reference, inv.substitutions)
        assert inv.normalize(poly) == reference

    def test_a_normal_form_normalizes_to_itself(self, square_system):
        normal = square_system.normalize(Poly.var("np") + Poly.var("ncols"))
        assert square_system.normalize(normal) is normal

    def test_later_equality_renormalizes_earlier(self):
        inv = InvariantSystem()
        inv.add_equality("np", Poly.var("nrows") * Poly.var("ncols"))
        inv.add_equality("ncols", Poly.var("nrows"))
        assert inv.normalize(Poly.var("np")) == Poly.var("nrows") * Poly.var("nrows")


class TestDivision:
    def test_divides_np_by_nrows(self, square_system):
        assert square_system.divides(Poly.var("nrows"), Poly.var("np"))

    def test_exact_div_value(self, square_system):
        quotient = square_system.exact_div(Poly.var("np"), Poly.var("nrows"))
        assert quotient == Poly.var("nrows")

    def test_rect_div_by_two(self, rect_system):
        quotient = rect_system.exact_div(Poly.var("np"), Poly.const(2))
        assert quotient == Poly.var("nrows") * Poly.var("nrows")

    def test_non_divisor(self, square_system):
        assert square_system.exact_div(Poly.var("nrows") + 1, Poly.var("nrows")) is None

    def test_div_by_zero_is_none(self, square_system):
        assert square_system.exact_div(Poly.var("np"), Poly.const(0)) is None


class TestSigns:
    def test_positive_variable(self, square_system):
        assert square_system.is_positive(Poly.var("nrows"))

    def test_positive_product(self, square_system):
        assert square_system.is_positive(Poly.var("np"))

    def test_monomial_dominance(self, square_system):
        # 2*nrows - 2 >= 0 because nrows >= 1
        assert square_system.is_nonnegative(2 * Poly.var("nrows") - 2)

    def test_dominance_needs_enough_credit(self, square_system):
        # nrows - 2 can be negative at nrows = 1
        assert not square_system.is_nonnegative(Poly.var("nrows") - 2)

    def test_quadratic_dominates_linear(self, square_system):
        # nrows^2 - nrows >= 0 for nrows >= 1
        nrows = Poly.var("nrows")
        assert square_system.is_nonnegative(nrows * nrows - nrows)

    def test_unknown_variable_blocks_proof(self, square_system):
        assert not square_system.is_nonnegative(Poly.var("mystery"))

    def test_negative_constant(self, square_system):
        assert not square_system.is_nonnegative(Poly.const(-1))

    @given(st.integers(1, 30), st.integers(0, 30))
    def test_dominance_sound_on_samples(self, nrows, slack):
        inv = InvariantSystem()
        inv.assume_positive("nrows")
        poly = 3 * Poly.var("nrows") - slack
        if inv.is_nonnegative(poly):
            assert poly.evaluate({"nrows": nrows}) >= 0


class TestSampleEnvironment:
    def test_derives_dependents(self, square_system):
        env = square_system.sample_environment({"nrows": 4})
        assert env["ncols"] == 4
        assert env["np"] == 16

    def test_rect_environment(self, rect_system):
        env = rect_system.sample_environment({"nrows": 3})
        assert env["ncols"] == 6
        assert env["np"] == 18
