"""Unit and property tests for affine expressions."""

import pytest
from hypothesis import given, strategies as st

from repro.expr.linear import LinearExpr, sum_exprs

VARS = ["x", "y", "z", "np", "i"]


def small_exprs():
    return st.builds(
        LinearExpr,
        st.integers(-50, 50),
        st.dictionaries(st.sampled_from(VARS), st.integers(-5, 5), max_size=3),
    )


def envs():
    return st.fixed_dictionaries({name: st.integers(-20, 20) for name in VARS})


class TestConstruction:
    def test_const(self):
        assert LinearExpr.const(7).as_constant() == 7

    def test_var(self):
        expr = LinearExpr.var("x")
        assert expr.coeff("x") == 1
        assert expr.constant == 0

    def test_zero_coefficients_dropped(self):
        expr = LinearExpr(3, {"x": 0, "y": 2})
        assert expr.variables() == ("y",)

    def test_coerce_int(self):
        assert LinearExpr.coerce(5) == LinearExpr.const(5)

    def test_coerce_str(self):
        assert LinearExpr.coerce("np") == LinearExpr.var("np")

    def test_coerce_rejects_float(self):
        with pytest.raises(TypeError):
            LinearExpr.coerce(1.5)


class TestArithmetic:
    def test_add_vars(self):
        expr = LinearExpr.var("x") + LinearExpr.var("x") + 1
        assert expr.coeff("x") == 2
        assert expr.constant == 1

    def test_sub_cancels(self):
        expr = (LinearExpr.var("i") + 3) - LinearExpr.var("i")
        assert expr.as_constant() == 3

    def test_scalar_multiplication(self):
        expr = 3 * (LinearExpr.var("x") + 1)
        assert expr.coeff("x") == 3
        assert expr.constant == 3

    def test_negation(self):
        expr = -(LinearExpr.var("x") - 2)
        assert expr.coeff("x") == -1
        assert expr.constant == 2

    def test_rsub(self):
        expr = 10 - LinearExpr.var("x")
        assert expr.constant == 10
        assert expr.coeff("x") == -1

    def test_sum_exprs(self):
        total = sum_exprs([1, "x", LinearExpr.var("x")])
        assert total == LinearExpr(1, {"x": 2})

    def test_sum_empty(self):
        assert sum_exprs([]).as_constant() == 0


class TestShapeQueries:
    def test_var_plus_const(self):
        assert (LinearExpr.var("i") + 4).split_var_plus_const() == ("i", 4)

    def test_not_var_plus_const_with_coeff(self):
        assert (2 * LinearExpr.var("i")).split_var_plus_const() is None

    def test_not_var_plus_const_two_vars(self):
        expr = LinearExpr.var("i") + LinearExpr.var("j")
        assert expr.split_var_plus_const() is None

    def test_mentions(self):
        expr = LinearExpr.var("np") - 1
        assert expr.mentions("np")
        assert not expr.mentions("x")


class TestSubstitution:
    def test_substitute_var(self):
        expr = LinearExpr.var("i") + 1
        replaced = expr.substitute({"i": LinearExpr.var("i") - 1})
        assert replaced == LinearExpr.var("i")

    def test_substitute_const(self):
        expr = 2 * LinearExpr.var("x") + LinearExpr.var("y")
        replaced = expr.substitute({"x": 3})
        assert replaced == LinearExpr.var("y") + 6

    def test_substitute_untouched(self):
        expr = LinearExpr.var("x")
        assert expr.substitute({"y": 0}) == expr

    def test_unrelated_bindings_return_the_same_object(self):
        expr = 2 * LinearExpr.var("x") + LinearExpr.var("y") + 1
        assert expr.substitute({"z": 0}) is expr


class TestProtocol:
    def test_equality_and_hash(self):
        a = LinearExpr.var("x") + 1
        b = LinearExpr(1, {"x": 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_in_sets(self):
        exprs = {LinearExpr.var("x"), LinearExpr.var("x"), LinearExpr.const(0)}
        assert len(exprs) == 2

    def test_str_renders_signs(self):
        expr = LinearExpr.var("np") - 1
        assert str(expr) == "np - 1"


class TestProperties:
    @given(small_exprs(), small_exprs(), envs())
    def test_add_homomorphic(self, a, b, env):
        assert (a + b).evaluate(env) == a.evaluate(env) + b.evaluate(env)

    @given(small_exprs(), st.integers(-10, 10), envs())
    def test_scalar_mul_homomorphic(self, a, k, env):
        assert (k * a).evaluate(env) == k * a.evaluate(env)

    @given(small_exprs(), small_exprs(), envs())
    def test_sub_homomorphic(self, a, b, env):
        assert (a - b).evaluate(env) == a.evaluate(env) - b.evaluate(env)

    @given(small_exprs())
    def test_double_negation(self, a):
        assert -(-a) == a

    @given(small_exprs(), small_exprs())
    def test_commutative_add(self, a, b):
        assert a + b == b + a

    @given(small_exprs(), envs())
    def test_substitution_respects_semantics(self, a, env):
        bindings = {"x": LinearExpr.var("y") + 2}
        substituted = a.substitute(bindings)
        env2 = dict(env)
        env2["x"] = env["y"] + 2
        assert substituted.evaluate(env) == a.evaluate(env2)
