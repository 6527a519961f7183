"""The two facts the cheap bound operations rely on, on random graphs.

* ``equivalents`` is a function of the equality class: for every ``m`` in
  ``equivalents(e)``, ``equivalents(m) == equivalents(e)``, so the
  printable form the client picks for a process-set bound depends only on
  the bound's class.
* ``equivalents`` memoizes its answers with the lifecycle of the classes:
  a memoized answer equals a fresh computation on a rebuilt graph, before
  and after a mutation, on both sides of a copy-on-write copy.
* The ``var + c`` / constant fast path of ``entails_leq`` gives the same
  three-valued verdict as the general evaluation through ``lhs - rhs``,
  kept here as the reference.

Graphs come from random sequences of the operations the analyses apply:
constraint entry, assumed inequalities, assignment, havoc, renaming,
namespace copies, projection, join and widen.
"""

from hypothesis import given, settings, strategies as st

from repro.cgraph.constraint_graph import ZERO, ConstraintGraph
from repro.expr.linear import LinearExpr

VARS = ["x", "y", "z", "w", "v"]
OFFSETS = (-2, 0, 1)


def _expr(name, offset):
    return LinearExpr.const(offset) if name is None else LinearExpr.var(name) + offset


_base_op = st.one_of(
    st.tuples(
        st.just("add_diff"),
        st.sampled_from(VARS),
        st.sampled_from(VARS),
        st.integers(-3, 3),
    ),
    st.tuples(
        st.just("add_eq_diff"),
        st.sampled_from(VARS),
        st.sampled_from(VARS),
        st.integers(-3, 3),
    ),
    st.tuples(
        st.just("assume_leq"),
        st.one_of(st.none(), st.sampled_from(VARS)),
        st.one_of(st.none(), st.sampled_from(VARS)),
        st.integers(-3, 3),
    ),
    st.tuples(
        st.just("assign"),
        st.sampled_from(VARS),
        st.one_of(st.none(), st.sampled_from(VARS)),
        st.integers(-2, 2),
    ),
    st.tuples(st.just("assign_havoc"), st.sampled_from(VARS)),
    st.tuples(st.just("havoc"), st.sampled_from(VARS)),
    st.tuples(st.just("rename"), st.sampled_from(VARS), st.sampled_from(VARS)),
    st.tuples(
        st.just("copy_namespace"), st.sampled_from(VARS), st.sampled_from(VARS)
    ),
    st.tuples(st.just("remove_vars"), st.sets(st.sampled_from(VARS), max_size=2)),
    st.tuples(st.just("copy"),),
)

_op = st.one_of(
    _base_op,
    st.tuples(
        st.sampled_from(["join", "widen"]), st.lists(_base_op, max_size=8)
    ),
)


def _build(ops) -> ConstraintGraph:
    g = ConstraintGraph()
    for op in ops:
        g = _apply(g, op)
    return g


def _apply(g: ConstraintGraph, op) -> ConstraintGraph:
    name = op[0]
    if name == "add_diff":
        g.add_diff(op[1], op[2], op[3])
    elif name == "add_eq_diff":
        g.add_eq_diff(op[1], op[2], op[3])
    elif name == "assume_leq":
        g.assume_leq(_expr(op[1], op[3]), _expr(op[2], 0))
    elif name == "assign":
        g.assign(op[1], _expr(op[2], op[3]))
    elif name == "assign_havoc":
        g.assign(op[1], None)
    elif name == "havoc":
        g.havoc(op[1])
    elif name == "rename":
        # process-set renames always target a fresh name
        if op[1] != op[2] and not g.has_var(op[2]):
            g.rename({op[1]: op[2]})
    elif name == "copy_namespace":
        if op[1] != op[2] and not g.has_var(op[2]):
            g.copy_namespace_from([op[1]], {op[1]: op[2]})
    elif name == "remove_vars":
        g.remove_vars(op[1])
    elif name == "copy":
        g = g.copy()
    elif name == "join":
        g = g.join(_build(op[1]))
    elif name == "widen":
        g = g.widen(_build(op[1]))
    return g


def _forms():
    """Every ``var + c`` and constant probe, including untracked vars."""
    return [_expr(name, c) for name in VARS + [None] for c in OFFSETS]


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(_op, max_size=14))
def test_equivalents_is_a_function_of_the_class(ops):
    g = _build(ops)
    for expr in _forms():
        cls = g.equivalents(expr)
        assert expr in cls
        for member in cls:
            assert g.equivalents(member) == cls, (g, expr, member)


def _fresh_equivalents(g: ConstraintGraph, expr):
    """``equivalents`` on a rebuilt copy of ``g``, which has no memo."""
    return ConstraintGraph.from_state(g.to_state()).equivalents(expr)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_op, max_size=14), mutation=_base_op)
def test_memoized_equivalents_equal_a_fresh_computation(ops, mutation):
    g = _build(ops)
    forms = _forms()
    for expr in forms:
        g.equivalents(expr)  # fill the memo
    clone = g.copy()
    mutated = _apply(clone, mutation)
    for expr in forms:
        assert g.equivalents(expr) == _fresh_equivalents(g, expr), (g, expr)
        assert mutated.equivalents(expr) == _fresh_equivalents(mutated, expr), (
            mutated,
            mutation,
            expr,
        )
    # the mutation of the copy left the original's answers as they were
    for expr in forms:
        assert g.equivalents(expr) == _fresh_equivalents(g, expr), (g, expr)


def test_the_ablations_memoize_no_equivalents():
    # both ablations reproduce the memo-free cost profile
    for flags in ({"naive_copy": True}, {"naive_closure": True}):
        g = ConstraintGraph(**flags)
        g.add_eq_diff("x", "y", 1)
        assert LinearExpr.var("y") in g.equivalents(LinearExpr.var("x") + 1)
        assert g._equivalents == {}


def reference_entails_leq(g: ConstraintGraph, lhs, rhs):
    """``entails_leq`` evaluated through ``delta = lhs - rhs`` (the general
    path), for deltas with unit coefficients."""
    if g.infeasible:
        return True
    delta = lhs - rhs
    coeffs = delta.coeffs
    const = delta.constant
    names = sorted(coeffs)
    if not names:
        return const <= 0
    if not all(g.has_var(name) for name in names):
        return None
    if len(names) == 1:
        # delta = s * name + const with s = +-1: delta <= 0 is a bound on
        # name against the zero node
        name = names[0]
        if coeffs[name] == 1:
            up, down = (ZERO, name, -const), (name, ZERO, const - 1)
        else:
            up, down = (name, ZERO, -const), (ZERO, name, const - 1)
    else:
        pos = next(name for name in names if coeffs[name] == 1)
        neg = next(name for name in names if coeffs[name] == -1)
        # delta = pos - neg + const <= 0  <=>  pos <= neg - const
        up, down = (neg, pos, -const), (pos, neg, const - 1)
    if g.entails_diff(*up):
        return True
    if g.entails_diff(*down):
        return False
    return None


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(_op, max_size=14))
def test_entails_leq_fast_path_matches_the_delta_evaluation(ops):
    g = _build(ops)
    forms = _forms()
    for lhs in forms:
        for rhs in forms:
            assert g.entails_leq(lhs, rhs) == reference_entails_leq(g, lhs, rhs), (
                g,
                lhs,
                rhs,
            )
