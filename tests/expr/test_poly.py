"""Unit and property tests for multivariate polynomials."""

import pytest
from hypothesis import given, strategies as st

from repro.expr.linear import LinearExpr
from repro.expr.poly import Monomial, Poly

VARS = ["nrows", "ncols", "np"]


def polys():
    monos = st.builds(
        Monomial,
        st.dictionaries(st.sampled_from(VARS), st.integers(1, 2), max_size=2),
    )
    return st.builds(
        Poly, st.dictionaries(monos, st.integers(-9, 9), max_size=4)
    )


def envs():
    return st.fixed_dictionaries({name: st.integers(1, 8) for name in VARS})


class TestMonomial:
    def test_unit(self):
        assert Monomial.unit().is_unit()
        assert Monomial.unit().degree() == 0

    def test_multiplication(self):
        m = Monomial.var("nrows") * Monomial.var("nrows") * Monomial.var("ncols")
        assert m.powers == {"nrows": 2, "ncols": 1}
        assert m.degree() == 3

    def test_divides(self):
        big = Monomial({"nrows": 2, "ncols": 1})
        small = Monomial.var("nrows")
        assert small.divides(big)
        assert not big.divides(small)

    def test_floordiv(self):
        big = Monomial({"nrows": 2})
        assert big // Monomial.var("nrows") == Monomial.var("nrows")

    def test_floordiv_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            Monomial.var("nrows") // Monomial.var("ncols")

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Monomial({"x": -1})


class TestPolyBasics:
    def test_const_roundtrip(self):
        assert Poly.const(4).as_constant() == 4

    def test_zero(self):
        assert (Poly.var("x") - Poly.var("x")).is_zero()

    def test_coerce_linear(self):
        linear = LinearExpr(2, {"nrows": 3})
        poly = Poly.coerce(linear)
        assert poly.evaluate({"nrows": 5}) == 17

    def test_as_linear_roundtrip(self):
        linear = LinearExpr(2, {"nrows": 3})
        assert Poly.coerce(linear).as_linear() == linear

    def test_as_linear_refuses_quadratic(self):
        quadratic = Poly.var("nrows") * Poly.var("nrows")
        assert quadratic.as_linear() is None

    def test_as_monomial(self):
        coeff, mono = (2 * Poly.var("nrows")).as_monomial()
        assert coeff == 2
        assert mono == Monomial.var("nrows")

    def test_variables(self):
        poly = Poly.var("nrows") * Poly.var("ncols") + 1
        assert poly.variables() == ("ncols", "nrows")

    def test_int_equality(self):
        assert Poly.const(3) == 3


class TestExactDivision:
    def test_divide_by_monomial(self):
        numerator = Poly.var("nrows") * Poly.var("nrows") * 4
        assert numerator.exact_div(2 * Poly.var("nrows")) == 2 * Poly.var("nrows")

    def test_inexact_coefficient(self):
        assert (3 * Poly.var("x")).exact_div(Poly.const(2)) is None

    def test_inexact_variable(self):
        assert Poly.var("nrows").exact_div(Poly.var("ncols")) is None

    def test_multi_term_division(self):
        # (nrows^2 + nrows) / nrows -- divisor single term, numerator multi
        numerator = Poly.var("nrows") * Poly.var("nrows") + Poly.var("nrows")
        assert numerator.exact_div(Poly.var("nrows")) == Poly.var("nrows") + 1

    def test_general_division(self):
        # (x^2 - 1) / (x - 1) = x + 1 via leading-term steps
        x = Poly.var("x")
        assert (x * x - 1).exact_div(x - 1) == x + 1

    def test_general_division_inexact(self):
        x = Poly.var("x")
        assert (x * x + 1).exact_div(x - 1) is None

    def test_divide_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            Poly.var("x").exact_div(Poly.const(0))


class TestSubstitution:
    def test_substitute_product(self):
        np_ = Poly.var("np")
        replaced = np_.substitute({"np": Poly.var("nrows") * Poly.var("ncols")})
        assert replaced == Poly.var("nrows") * Poly.var("ncols")

    def test_substitute_power(self):
        poly = Poly.var("x") * Poly.var("x")
        replaced = poly.substitute({"x": Poly.var("y") + 1})
        y = Poly.var("y")
        assert replaced == y * y + 2 * y + 1

    def test_unrelated_bindings_return_the_same_object(self):
        poly = Poly.var("nrows") * Poly.var("ncols") + 3
        assert poly.substitute({"np": Poly.var("nrows")}) is poly
        assert poly.substitute({}) is poly

    @given(polys(), st.dictionaries(st.sampled_from(VARS + ["x"]), polys(), max_size=2))
    def test_substitution_equals_rebuilding_every_term(self, poly, bindings):
        assert poly.substitute(bindings) == rebuilt(poly, bindings)


def rebuilt(poly: Poly, bindings) -> Poly:
    """``poly.substitute(bindings)`` rebuilding every term, whether or not it
    mentions a bound variable (the reference for the identity shortcut)."""
    result = Poly()
    for mono, coeff in poly.terms.items():
        term = Poly.const(coeff)
        for name, power in mono.powers.items():
            base = Poly.coerce(bindings[name]) if name in bindings else Poly.var(name)
            for _ in range(power):
                term = term * base
        result = result + term
    return result


class TestProperties:
    @given(polys(), polys(), envs())
    def test_add_homomorphic(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(polys(), polys(), envs())
    def test_mul_homomorphic(self, a, b, env):
        assert (a * b).evaluate(env) == a.evaluate(env) * b.evaluate(env)

    @given(polys(), polys())
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(polys(), polys(), polys())
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys(), polys())
    def test_exact_div_inverts_mul(self, a, b):
        single = b.as_monomial()
        if single is None or single[0] == 0:
            return
        product = a * b
        assert product.exact_div(b) == a
