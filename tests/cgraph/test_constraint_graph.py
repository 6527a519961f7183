"""Constraint-graph (difference-bound) tests, including closure soundness."""

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cgraph.constraint_graph import ZERO, ConstraintGraph
from repro.expr.linear import LinearExpr
from repro.obs.profile import closure_summary

X, Y, Z = "x", "y", "z"


def L(value):
    return LinearExpr.coerce(value)


class TestBasics:
    def test_const_roundtrip(self):
        g = ConstraintGraph()
        g.set_const(X, 5)
        assert g.const_value(X) == 5

    def test_diff_bound(self):
        g = ConstraintGraph()
        g.add_diff(X, Y, 3)  # y <= x + 3
        assert g.diff_bound(X, Y) == 3
        assert g.diff_bound(Y, X) is None

    def test_transitivity(self):
        g = ConstraintGraph()
        g.add_diff(X, Y, 1)
        g.add_diff(Y, Z, 2)
        assert g.entails_diff(X, Z, 3)

    def test_infeasible_cycle(self):
        g = ConstraintGraph()
        g.add_diff(X, Y, 0)
        g.add_diff(Y, X, -1)
        assert g.infeasible

    def test_feasible_zero_cycle(self):
        g = ConstraintGraph()
        g.add_eq_diff(X, Y, 2)
        assert not g.infeasible
        assert g.diff_bound(X, Y) == 2
        assert g.diff_bound(Y, X) == -2

    def test_eval_const(self):
        g = ConstraintGraph()
        g.set_const(X, 2)
        g.set_const(Y, 3)
        assert g.eval_const(L("x") + 2 * L("y") + 1) == 9

    def test_eval_const_unknown(self):
        g = ConstraintGraph()
        g.set_const(X, 2)
        assert g.eval_const(L("x") + L("y")) is None

    def test_copy_independent(self):
        g = ConstraintGraph()
        g.set_const(X, 1)
        clone = g.copy()
        clone.set_const(Y, 2)
        assert not g.has_var(Y)


class TestEntailment:
    def test_entails_leq_two_vars(self):
        g = ConstraintGraph()
        g.add_diff(Y, X, -1)  # x <= y - 1
        assert g.entails_leq(L("x"), L("y") - 1) is True
        assert g.entails_leq(L("y"), L("x")) is False

    def test_entails_leq_single_var(self):
        g = ConstraintGraph()
        g.set_const(X, 3)
        assert g.entails_leq(L("x"), L(5)) is True
        assert g.entails_leq(L("x"), L(2)) is False
        assert g.entails_leq(L(3), L("x")) is True
        assert g.entails_leq(L(4), L("x")) is False

    def test_entails_leq_negated_var(self):
        # the historical sign-bug case: x == 7 must NOT prove 1 <= x - 7
        g = ConstraintGraph()
        g.set_const(X, 7)
        assert g.entails_leq(L(1), L("x") - 7) is False
        assert g.entails_leq(L(0), L("x") - 7) is True

    def test_entails_eq(self):
        g = ConstraintGraph()
        g.add_eq_diff(X, Y, 1)
        assert g.entails_eq(L("y"), L("x") + 1) is True
        assert g.entails_eq(L("y"), L("x")) is False

    def test_unknown_is_none(self):
        g = ConstraintGraph()
        g.add_var(X)
        g.add_var(Y)
        assert g.entails_leq(L("x"), L("y")) is None

    def test_constants_decided_syntactically(self):
        g = ConstraintGraph()
        assert g.entails_leq(L(1), L(2)) is True
        assert g.entails_leq(L(3), L(2)) is False

    def test_outside_fragment_is_none(self):
        g = ConstraintGraph()
        g.add_var(X)
        g.add_var(Y)
        g.add_var(Z)
        # x + y <= z has three variables: outside the difference fragment
        assert g.entails_leq(L("x") + L("y"), L("z")) is None


class TestAssume:
    def test_assume_leq(self):
        g = ConstraintGraph()
        assert g.assume_leq(L("x"), L("y") - 1)
        assert g.entails_leq(L("x") + 1, L("y")) is True

    def test_assume_eq(self):
        g = ConstraintGraph()
        assert g.assume_eq(L("x"), L(4))
        assert g.const_value(X) == 4

    def test_assume_contradiction(self):
        g = ConstraintGraph()
        g.assume_eq(L("x"), L(1))
        g.assume_eq(L("x"), L(2))
        assert g.infeasible

    def test_assume_outside_fragment_refused(self):
        g = ConstraintGraph()
        assert not g.assume_leq(2 * L("x"), L("y"))

    def test_assume_constant_contradiction(self):
        g = ConstraintGraph()
        g.assume_leq(L(3), L(2))
        assert g.infeasible


class TestAssignment:
    def test_assign_const(self):
        g = ConstraintGraph()
        g.assign(X, L(5))
        assert g.const_value(X) == 5

    def test_assign_var_plus_const(self):
        g = ConstraintGraph()
        g.set_const(Y, 10)
        g.assign(X, L("y") + 2)
        assert g.const_value(X) == 12

    def test_self_increment_shifts(self):
        g = ConstraintGraph()
        g.set_const("i", 1)
        g.add_diff("np", "i", -1)  # i <= np - 1
        g.assign("i", L("i") + 1)
        assert g.const_value("i") == 2
        assert g.entails_leq(L("i"), L("np")) is True

    def test_self_increment_preserves_relations(self):
        g = ConstraintGraph()
        g.add_eq_diff(X, Y, 0)  # y == x
        g.assign(Y, L("y") + 5)
        assert g.entails_eq(L("y"), L("x") + 5) is True

    def test_assign_havoc(self):
        g = ConstraintGraph()
        g.set_const(X, 1)
        g.assign(X, None)
        assert g.const_value(X) is None

    def test_assign_nonaffine_havocs(self):
        g = ConstraintGraph()
        g.set_const(X, 1)
        g.assign(X, L("y") + L("z"))
        assert g.const_value(X) is None

    def test_havoc_keeps_other_relations(self):
        g = ConstraintGraph()
        g.set_const(X, 1)
        g.set_const(Y, 2)
        g.havoc(X)
        assert g.const_value(Y) == 2


class TestEquivalents:
    def test_const_expr_equivalents(self):
        g = ConstraintGraph()
        g.set_const("i", 1)
        forms = g.equivalents(L(1))
        assert L("i") in forms

    def test_var_plus_const_equivalents(self):
        g = ConstraintGraph()
        g.add_eq_diff("i", "j", 2)  # j == i + 2
        forms = g.equivalents(L("i") + 3)
        assert L("j") + 1 in forms

    def test_pinned_var_gets_const_form(self):
        g = ConstraintGraph()
        g.set_const("i", 4)
        forms = g.equivalents(L("i") + 1)
        assert L(5) in forms

    def test_no_false_equivalents(self):
        g = ConstraintGraph()
        g.add_diff("i", "j", 2)  # j <= i + 2 only (not equality)
        forms = g.equivalents(L("i"))
        assert all(not f.mentions("j") for f in forms)


class TestLattice:
    def test_join_intervals(self):
        a = ConstraintGraph()
        a.set_const(X, 1)
        b = ConstraintGraph()
        b.set_const(X, 4)
        j = a.join(b)
        assert j.entails_leq(L("x"), L(4)) is True
        assert j.entails_leq(L(1), L("x")) is True
        assert j.const_value(X) is None

    def test_join_with_bottom(self):
        a = ConstraintGraph()
        a.set_const(X, 1)
        bottom = ConstraintGraph()
        bottom.assume_leq(L(1), L(0))
        assert a.join(bottom).const_value(X) == 1

    def test_meet_conjoins(self):
        a = ConstraintGraph()
        a.add_diff(ZERO, X, 5)  # x <= 5
        b = ConstraintGraph()
        b.add_diff(X, ZERO, -3)  # x >= 3
        m = a.meet(b)
        assert m.entails_leq(L(3), L("x")) is True
        assert m.entails_leq(L("x"), L(5)) is True

    def test_widen_drops_unstable(self):
        older = ConstraintGraph()
        older.set_const(X, 1)
        newer = ConstraintGraph()
        newer.set_const(X, 2)
        w = older.widen(newer)
        # lower bound 1 is stable (1 <= x in both); upper bound grew -> drop
        assert w.entails_leq(L(1), L("x")) is True
        assert w.diff_bound(ZERO, X) is None

    def test_widen_stable_fixpoint(self):
        a = ConstraintGraph()
        a.set_const(X, 1)
        w = a.widen(a.copy())
        assert w.equivalent_to(a)

    def test_equivalent_to(self):
        a = ConstraintGraph()
        a.set_const(X, 1)
        b = ConstraintGraph()
        b.set_const(X, 1)
        assert a.equivalent_to(b)
        b.set_const(Y, 2)
        assert not a.equivalent_to(b)


class TestRenameAndCopy:
    def test_rename(self):
        g = ConstraintGraph()
        g.set_const("ps0::x", 7)
        g.rename({"ps0::x": "ps1::x"})
        assert g.const_value("ps1::x") == 7
        assert not g.has_var("ps0::x")

    def test_copy_namespace_preserves_relations(self):
        g = ConstraintGraph()
        g.set_const("ps0::x", 7)
        g.add_eq_diff("ps0::x", "ps0::y", 1)
        g.copy_namespace_from(
            ["ps0::x", "ps0::y"], {"ps0::x": "ps1::x", "ps0::y": "ps1::y"}
        )
        assert g.const_value("ps1::x") == 7
        assert g.entails_eq(L("ps1::y"), L("ps1::x") + 1) is True

    def test_remove_vars_projects(self):
        g = ConstraintGraph()
        g.set_const(X, 1)
        g.add_eq_diff(X, Y, 1)
        g.remove_vars([X])
        # y == 2 must survive projection because the graph was closed
        assert g.const_value(Y) == 2


class TestClosureSoundness:
    """Closure must agree with brute-force shortest paths (hypothesis)."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([X, Y, Z, ZERO]),
                st.sampled_from([X, Y, Z, ZERO]),
                st.integers(-6, 6),
            ),
            max_size=8,
        )
    )
    def test_closure_matches_floyd_warshall(self, constraints):
        g = ConstraintGraph()
        names = [ZERO, X, Y, Z]
        for name in (X, Y, Z):
            g.add_var(name)
        weights = {}
        for src, dst, c in constraints:
            if src == dst:
                continue
            g.add_diff(src, dst, c)
            key = (src, dst)
            weights[key] = min(weights.get(key, c), c)
        # reference: Floyd-Warshall over the same edges
        dist = {(a, b): (0 if a == b else None) for a in names for b in names}
        for (a, b), c in weights.items():
            if dist[(a, b)] is None or c < dist[(a, b)]:
                dist[(a, b)] = c
        for k in names:
            for a in names:
                for b in names:
                    if dist[(a, k)] is not None and dist[(k, b)] is not None:
                        via = dist[(a, k)] + dist[(k, b)]
                        if dist[(a, b)] is None or via < dist[(a, b)]:
                            dist[(a, b)] = via
        negative = any(dist[(a, a)] < 0 for a in names)
        assert g.infeasible == negative
        if not negative:
            for a in names:
                for b in names:
                    if a != b:
                        assert g.diff_bound(a, b) == dist[(a, b)]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([X, Y, Z, ZERO]),
                st.sampled_from([X, Y, Z, ZERO]),
                st.integers(-5, 5),
            ),
            min_size=1,
            max_size=6,
        ),
        st.tuples(
            st.sampled_from([X, Y, Z]),
            st.sampled_from([X, Y, Z, ZERO]),
            st.integers(-5, 5),
        ),
    )
    def test_incremental_matches_full(self, constraints, extra):
        base = ConstraintGraph()
        for name in (X, Y, Z):
            base.add_var(name)
        for src, dst, c in constraints:
            if src != dst:
                base.add_diff(src, dst, c)
        base.close()
        if base.infeasible:
            return
        src, dst, c = extra
        if src == dst:
            return
        incremental = base.copy()
        incremental.close_incremental(src, dst, c)
        full = base.copy()
        full.add_diff(src, dst, c)
        full.close()
        assert incremental.infeasible == full.infeasible
        if not full.infeasible:
            assert incremental.equivalent_to(full)


class TestInstrumentation:
    def test_stats_recorded(self):
        with obs.recording() as recorder:
            g = ConstraintGraph()
            g.set_const(X, 1)
            g.close()
            assert recorder.counters["cgraph.closure.full.calls"] >= 1
            g.close_incremental(ZERO, Y, 5)
        assert recorder.counters["cgraph.closure.incremental.calls"] == 1
        assert recorder.histograms["cgraph.closure.incremental.vars"].mean > 0
        assert recorder.spans["cgraph.closure.incremental"].count == 1

    def test_report_text(self):
        recorder = obs.Recorder()
        recorder.incr("cgraph.closure.full.calls")
        recorder.observe("cgraph.closure.full.vars", 10)
        recorder.observe("cgraph.closure.full.time", 0.5)
        report = closure_summary(recorder.snapshot(), total_time=1.0)["report"]
        assert "full closures" in report
        assert "50.0%" in report
