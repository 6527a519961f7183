"""Difference-bound constraint graphs.

A :class:`ConstraintGraph` is a conjunction of inequalities ``y <= x + c``
over named integer variables, plus a distinguished zero node so absolute
bounds (``x <= 5``) are the special case ``x <= ZERO + 5``.  This is the
constraint-graph representation of CLR ch. 24.4/25.5 used by the paper's
Section VII-A state analysis.

Consistency is maintained by transitive closure (Floyd–Warshall, O(n^3)),
by an incremental single-constraint update (O(n^2)), or by the closed form
of a client update; each reports to :mod:`repro.obs` (a
``cgraph.closure.{full,incremental}`` span plus the ``.calls`` counter
and the ``.vars``/``.time`` histograms) because reproducing the paper's
Section IX profile requires counting exactly these operations.  A graph
that is closed stays closed through the client's own updates: an
asserted inequality goes through the incremental update, a namespace
copy onto fresh names and the binding ``x := y + c`` write the closed
matrix directly, and folding one namespace into another
(:meth:`ConstraintGraph.fold_namespace`, two process sets merging) reads
the closed matrix once into a closed result.  Each yields the matrix that
the slower path it replaces would, so the full closure runs only on
graphs built edge by edge (the initial state) or flagged by ``widen``.
Closedness also makes forgetting exact: :meth:`ConstraintGraph.without`
deletes the rows and columns of variables no process can read any more
and keeps every constraint among the rest, because a closed graph holds
each one as an edge.  A widened graph is not projected (it may lack
implied edges), so the engine's stored states shrink only where that is
exact.

Representation sharing.  The bound matrix is **copy-on-write**:
:meth:`ConstraintGraph.copy` shares the underlying dict-of-dicts between
parent and clone, and the first in-place mutation of either materializes a
private copy (``cgraph.cow.shares`` / ``cgraph.cow.materializations``
counters).  Closed graphs cache a canonical *fingerprint* of their
constraint set, so :meth:`equivalent_to` is a hash comparison instead of a
matrix walk, and COW siblings share the equality classes and the
:meth:`equivalents` answers computed so far, one query at a time.  Nothing is
memoized across graphs: a process-wide closure memo hit 0.4% of closures
on the 18 paper programs while sorting the full edge list of every closure
for its key, and the process-wide memos held a warm 120-program batch at
309 MiB of peak RSS against 43 MiB without them.  The ``naive_copy`` flag
restores the eager-copy, memo-free behavior for A/B property tests, and
``naive_closure`` (the Section IX ablation) re-closes before every query;
both keep the add-then-close updates and bypass the equality classes so
the paper's prototype cost profile stays reproducible.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cgraph.namespaces import namespace_prefix
from repro.expr.linear import LinearExpr
from repro.obs import recorder as _obs

#: distinguished node representing the constant 0
ZERO = "__0__"

#: absence of a constraint (y - x unbounded above)
INF = None

#: ``_closed`` of a :meth:`ConstraintGraph.widen` result that may lack
#: implied constraints: queries treat it as closed (re-closing could undo
#: the widening), but the closed-form updates close it first
_WIDENED = "widened"


def _record_closure(kind: str, num_vars: int, span) -> None:
    """Record one ``kind`` closure ("full" or "incremental") over
    ``num_vars`` variables, timed by its ``cgraph.closure.<kind>`` span."""
    _obs.incr(f"cgraph.closure.{kind}.calls")
    _obs.observe(f"cgraph.closure.{kind}.vars", num_vars)
    _obs.observe(f"cgraph.closure.{kind}.time", span.elapsed)


def clear_closure_caches() -> None:
    """No-op: constraint graphs keep no process-wide memo.

    Kept because the frozen benchmark harness still imports it.
    """


class ConstraintGraph:
    """A (possibly infeasible) conjunction of difference constraints.

    The graph is *closed* when all transitively implied constraints are
    explicit; query methods close on demand.  ``bottom`` (infeasible) states
    arise from contradictory constraints and absorb all further additions.
    """

    def __init__(self, naive_closure: bool = False, naive_copy: bool = False):
        # _bound[x][y] = c  <=>  y <= x + c  (edge x --c--> y)
        self._bound: Dict[str, Dict[str, int]] = {ZERO: {}}
        #: True (closed), False (edges added since the last closure) or
        #: _WIDENED (a widening result flagged closed without closing)
        self._closed = True
        self._infeasible = False
        #: the bound matrix may be referenced by another graph; in-place
        #: mutation must materialize a private copy
        self._shared = False
        #: cached canonical fingerprint of the closed constraint system
        self._fingerprint: Optional[tuple] = None
        #: equality class per base variable (see :meth:`_class_of`), filled
        #: on first use, shared between COW siblings and replaced (never
        #: cleared in place) on semantic mutation
        self._classes: Dict[str, List[Tuple[str, int]]] = {}
        #: :meth:`equivalents` answer per queried expression, with the
        #: lifecycle of ``_classes``
        self._equivalents: Dict[LinearExpr, FrozenSet[LinearExpr]] = {}
        #: ablation switch reproducing the paper's prototype cost profile:
        #: re-run the full O(n^3) closure before every query instead of
        #: tracking closedness (Section IX's dominant cost)
        self.naive_closure = naive_closure
        #: ablation switch restoring the pre-PR-2 lattice: eager deep copies
        #: and no equality index (the property-test oracle)
        self.naive_copy = naive_copy

    # -- copy-on-write plumbing ------------------------------------------------

    def _optimized(self) -> bool:
        """True when the equality classes and the closed-form updates are
        allowed (both ablations disable them)."""
        return not (self.naive_closure or self.naive_copy)

    def _closed_for_update(self) -> bool:
        """True when a closed-form update may write this graph's matrix:
        optimized, feasible and closed.  A widened graph is closed first."""
        if not (self._optimized() and self._closed) or self._infeasible:
            return False
        if self._closed is _WIDENED:
            self.close()
        return not self._infeasible

    def _materialize(self) -> None:
        """Give this graph a private bound matrix before in-place mutation."""
        if self._shared:
            self._bound = {src: dict(dsts) for src, dsts in self._bound.items()}
            self._shared = False
            _obs.incr("cgraph.cow.materializations")

    def _invalidate(self) -> None:
        """Constraint set changed: drop fingerprint, equality classes and
        equivalence answers."""
        self._fingerprint = None
        # Re-bind instead of clearing: COW siblings still using the old
        # semantics keep their (still-valid) shared classes.  This must
        # happen even when the dict is currently empty — a sibling sharing
        # it could fill it later with classes of the *old* semantics.
        self._classes = {}
        self._equivalents = {}

    def _edge_items(self) -> tuple:
        """Canonical tuple of all explicit constraints (sorted edge list)."""
        items = [
            (src, dst, c)
            for src, dsts in self._bound.items()
            for dst, c in dsts.items()
        ]
        items.sort()
        return tuple(items)

    def _rep_fingerprint(self) -> tuple:
        """Representational fingerprint: feasibility, variables, edges."""
        if self._fingerprint is None:
            self._fingerprint = (
                self._infeasible,
                tuple(sorted(self._bound)),
                self._edge_items(),
            )
        return self._fingerprint

    def fingerprint(self) -> tuple:
        """Canonical fingerprint of the *closed* constraint system.

        Two closed graphs are :meth:`equivalent_to` iff their fingerprints
        are equal (untracked-but-unconstrained variables are ignored, like
        the matrix comparison this replaces).  Closes on demand.
        """
        self._ensure_closed()
        rep = self._rep_fingerprint()
        return (rep[0], rep[2])

    # -- snapshot serialization -------------------------------------------------

    def to_state(self) -> dict:
        """Representational state for the checkpoint codec.

        Captures the raw bound matrix (closed or not), feasibility, the
        closedness flag (``"widened"`` for an unclosed widening result) and
        the ablation switches — everything needed to rebuild a graph that
        behaves identically, including its canonical :meth:`fingerprint`.
        """
        return {
            "vars": sorted(self.variables()),
            "edges": list(self._edge_items()),
            "closed": self._closed,
            "infeasible": self._infeasible,
            "naive_closure": self.naive_closure,
            "naive_copy": self.naive_copy,
        }

    @classmethod
    def from_state(cls, data: Mapping) -> "ConstraintGraph":
        """Rebuild a graph from :meth:`to_state` output (stats sink is the
        process-global one; snapshots don't carry profiling state)."""
        graph = cls(
            naive_closure=bool(data.get("naive_closure", False)),
            naive_copy=bool(data.get("naive_copy", False)),
        )
        for name in data["vars"]:
            graph._bound.setdefault(name, {})
        for src, dst, c in data["edges"]:
            graph._bound.setdefault(src, {})[dst] = c
        closed = data["closed"]
        graph._closed = _WIDENED if closed == _WIDENED else bool(closed)
        graph._infeasible = bool(data["infeasible"])
        return graph

    # -- basics ---------------------------------------------------------------

    def copy(self) -> "ConstraintGraph":
        """A copy of this graph.

        Copy-on-write by default: the bound matrix is shared until either
        side mutates.  With ``naive_copy`` the pre-PR-2 eager deep copy is
        performed instead.
        """
        clone = ConstraintGraph(self.naive_closure, self.naive_copy)
        if self.naive_copy:
            clone._bound = {src: dict(dsts) for src, dsts in self._bound.items()}
        else:
            self._shared = True
            clone._bound = self._bound
            clone._shared = True
            clone._fingerprint = self._fingerprint
            clone._classes = self._classes
            clone._equivalents = self._equivalents
            _obs.incr("cgraph.cow.shares")
        clone._closed = self._closed
        clone._infeasible = self._infeasible
        return clone

    @property
    def infeasible(self) -> bool:
        """True iff the constraints are contradictory (bottom state)."""
        self._ensure_closed()
        return self._infeasible

    def variables(self) -> Set[str]:
        """All tracked variable names (excluding the zero node)."""
        return {name for name in self._bound if name != ZERO}

    def add_var(self, name: str) -> None:
        """Track a variable (initially unconstrained)."""
        if name not in self._bound:
            # no constraint is added: closedness and the equality index are
            # unaffected, but the variable list (part of the representational
            # fingerprint) grows and the matrix itself must be owned
            self._materialize()
            self._bound[name] = {}
            self._fingerprint = None

    def has_var(self, name: str) -> bool:
        """True iff the variable is tracked."""
        return name in self._bound

    # -- constraint entry -------------------------------------------------------

    def add_diff(self, x: str, y: str, c: int) -> None:
        """Assert ``y <= x + c``."""
        if self._infeasible:
            return
        self.add_var(x)
        self.add_var(y)
        if x == y:
            if c < 0:
                self._infeasible = True
                self._invalidate()
            return
        current = self._bound[x].get(y)
        if current is None or c < current:
            self._materialize()
            self._bound[x][y] = c
            self._closed = False
            self._invalidate()

    def add_upper(self, x: str, c: int) -> None:
        """Assert ``x <= c``."""
        self.add_diff(ZERO, x, c)

    def add_lower(self, x: str, c: int) -> None:
        """Assert ``x >= c``."""
        self.add_diff(x, ZERO, -c)

    def set_const(self, x: str, c: int) -> None:
        """Assert ``x == c``."""
        self.add_upper(x, c)
        self.add_lower(x, c)

    def add_eq_diff(self, x: str, y: str, c: int) -> None:
        """Assert ``y == x + c``."""
        self.add_diff(x, y, c)
        self.add_diff(y, x, -c)

    def _assume_diff(self, x: str, y: str, c: int) -> None:
        """Assert ``y <= x + c``, keeping a closed graph closed through
        :meth:`close_incremental` instead of a later full closure.  A closed
        graph that already holds the constraint is left as it is."""
        if self._closed_for_update():
            bound = self._bound
            if x in bound and y in bound:
                existing = 0 if x == y else bound[x].get(y)
                if existing is not None and existing <= c:
                    return
            self.close_incremental(x, y, c)
        else:
            self.add_diff(x, y, c)

    def assume_leq(self, lhs: LinearExpr, rhs: LinearExpr) -> bool:
        """Assert ``lhs <= rhs`` when expressible as a difference constraint.

        Returns False (and adds nothing) when the inequality is outside the
        difference-constraint fragment; callers treat that as "no
        information", which is sound.
        """
        delta = lhs - rhs  # want delta <= 0
        coeffs = delta.coeffs
        const = delta.constant
        names = sorted(coeffs)
        if not names:
            if const > 0:
                self._infeasible = True
                self._invalidate()
            return True
        if len(names) == 1:
            name = names[0]
            coeff = coeffs[name]
            if coeff == 1:
                self._assume_diff(ZERO, name, -const)
                return True
            if coeff == -1:
                self._assume_diff(name, ZERO, -const)
                return True
            return False
        if len(names) == 2:
            a, b = names
            ca, cb = coeffs[a], coeffs[b]
            if ca == 1 and cb == -1:
                # a - b + const <= 0  =>  a <= b - const
                self._assume_diff(b, a, -const)
                return True
            if ca == -1 and cb == 1:
                self._assume_diff(a, b, -const)
                return True
        return False

    def assume_eq(self, lhs: LinearExpr, rhs: LinearExpr) -> bool:
        """Assert ``lhs == rhs`` (both directions must be expressible)."""
        first = self.assume_leq(lhs, rhs)
        second = self.assume_leq(rhs, lhs)
        return first and second

    # -- closure ---------------------------------------------------------------

    def _ensure_closed(self) -> None:
        if self.naive_closure and not self._infeasible:
            self.close()
            return
        if not self._closed and not self._infeasible:
            self.close()

    def close(self) -> None:
        """Full O(n^3) transitive closure (Floyd-Warshall), instrumented."""
        names = [ZERO] + sorted(self.variables())
        index = {name: i for i, name in enumerate(names)}
        n = len(names)
        with _obs.span("cgraph.closure.full") as span:
            bound, infeasible = self._floyd_warshall(names, index, n)
        _record_closure("full", n - 1, span)
        self._bound = bound
        self._shared = False
        self._infeasible = self._infeasible or infeasible
        self._closed = True
        self._invalidate()

    def _floyd_warshall(
        self, names: List[str], index: Dict[str, int], n: int
    ) -> Tuple[Dict[str, Dict[str, int]], bool]:
        """The paper prototype's straightforward O(n^3) closure loop."""
        matrix: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
        for i in range(n):
            matrix[i][i] = 0
        for src, dsts in self._bound.items():
            i = index[src]
            for dst, c in dsts.items():
                j = index[dst]
                if matrix[i][j] is None or c < matrix[i][j]:
                    matrix[i][j] = c
        for k in range(n):
            row_k = matrix[k]
            for i in range(n):
                via = matrix[i][k]
                if via is None:
                    continue
                row_i = matrix[i]
                for j in range(n):
                    step = row_k[j]
                    if step is None:
                        continue
                    total = via + step
                    if row_i[j] is None or total < row_i[j]:
                        row_i[j] = total
        infeasible = any(
            matrix[i][i] is not None and matrix[i][i] < 0 for i in range(n)
        )
        bound: Dict[str, Dict[str, int]] = {name: {} for name in names}
        for i, src in enumerate(names):
            row = matrix[i]
            dsts = bound[src]
            for j, dst in enumerate(names):
                if i != j and row[j] is not None:
                    dsts[dst] = row[j]
        return bound, infeasible

    def close_incremental(self, x: str, y: str, c: int) -> None:
        """O(n^2) re-closure after adding the single constraint ``y <= x + c``.

        Precondition: the graph was closed before the constraint was added.
        Only a pair ``(u, v)`` with a finite ``u -> x`` and a finite
        ``y -> v`` can tighten, so the update visits just those pairs after
        one scan of column ``x``.  On a feasible result this equals the
        all-pairs loop; an infeasible result is bottom either way.  Serves
        :meth:`assume_leq` on closed graphs, and the assignments that the
        closed-form :meth:`_bind` does not (ablations, widened graphs).
        """
        if self._infeasible:
            return
        self.add_var(x)
        self.add_var(y)
        with _obs.span("cgraph.closure.incremental") as span:
            existing = self._bound[x].get(y)
            if x == y:
                if c < 0:
                    self._infeasible = True
                    self._invalidate()
            elif existing is None or c < existing:
                self._materialize()
                self._invalidate()
                bound = self._bound
                into_x = [(x, c)] + [
                    (u, row[x] + c) for u, row in bound.items() if x in row
                ]
                out_of_y = [(y, 0)] + list(bound[y].items())
                for u, ux in into_x:
                    row = bound[u]
                    for v, yv in out_of_y:
                        total = ux + yv
                        if u == v:
                            if total < 0:
                                self._infeasible = True
                            continue
                        current = row.get(v)
                        if current is None or total < current:
                            row[v] = total
        if self._closed is not _WIDENED:
            self._closed = True
        _record_closure("incremental", len(self._bound) - 1, span)

    # -- queries ---------------------------------------------------------------

    def diff_bound(self, x: str, y: str) -> Optional[int]:
        """The least c with ``y <= x + c`` implied, or None if unbounded."""
        self._ensure_closed()
        if self._infeasible:
            return 0
        if x == y:
            return 0
        if x not in self._bound or y not in self._bound:
            return None
        return self._bound[x].get(y)

    def entails_diff(self, x: str, y: str, c: int) -> bool:
        """True iff ``y <= x + c`` is implied."""
        self._ensure_closed()
        if self._infeasible:
            return True
        bound = self.diff_bound(x, y)
        return bound is not None and bound <= c

    def entails_leq(self, lhs: LinearExpr, rhs: LinearExpr) -> Optional[bool]:
        """Three-valued entailment of ``lhs <= rhs``.

        True: implied.  False: the negation is implied.  None: unknown or
        outside the difference fragment.
        """
        self._ensure_closed()
        if self._infeasible:
            return True
        lhs_coeffs, rhs_coeffs = lhs._coeffs, rhs._coeffs
        if (
            len(lhs_coeffs) <= 1
            and len(rhs_coeffs) <= 1
            and (not lhs_coeffs or lhs_coeffs[0][1] == 1)
            and (not rhs_coeffs or rhs_coeffs[0][1] == 1)
        ):
            # the process-set bound shape: a + p <= b + q, where a constant
            # side is the zero node; same verdicts as the delta form below
            # without building lhs - rhs
            a = lhs_coeffs[0][0] if lhs_coeffs else ZERO
            b = rhs_coeffs[0][0] if rhs_coeffs else ZERO
            p, q = lhs._const, rhs._const
            if a == b:
                return p <= q
            if not (self.has_var(a) and self.has_var(b)):
                return None
            if self.entails_diff(b, a, q - p):
                return True
            if self.entails_diff(a, b, p - q - 1):
                # a - b >= q - p + 1  =>  lhs > rhs
                return False
            return None
        delta = lhs - rhs
        coeffs = delta.coeffs
        const = delta.constant
        names = sorted(coeffs)
        if not names:
            return const <= 0
        if len(names) == 1:
            name = names[0]
            if not self.has_var(name):
                return None
            coeff = coeffs[name]
            if coeff == 1:
                if self.entails_diff(ZERO, name, -const):
                    return True
                if self.entails_diff(name, ZERO, const - 1):
                    # name >= 1 - const  =>  delta >= 1 > 0
                    return False
                return None
            if coeff == -1:
                # delta = -name + const <= 0  <=>  name >= const
                if self.entails_diff(name, ZERO, -const):
                    return True
                # negation: name <= const - 1
                if self.entails_diff(ZERO, name, const - 1):
                    return False
                return None
            return None
        if len(names) == 2:
            a, b = names
            ca, cb = coeffs[a], coeffs[b]
            if not (self.has_var(a) and self.has_var(b)):
                return None
            if ca == 1 and cb == -1:
                if self.entails_diff(b, a, -const):
                    return True
                if self.entails_diff(a, b, const - 1):
                    return False
                return None
            if ca == -1 and cb == 1:
                if self.entails_diff(a, b, -const):
                    return True
                if self.entails_diff(b, a, const - 1):
                    return False
                return None
        return None

    def entails_eq(self, lhs: LinearExpr, rhs: LinearExpr) -> Optional[bool]:
        """Three-valued entailment of ``lhs == rhs``."""
        first = self.entails_leq(lhs, rhs)
        second = self.entails_leq(rhs, lhs)
        if first is True and second is True:
            return True
        if first is False or second is False:
            return False
        return None

    def const_value(self, name: str) -> Optional[int]:
        """The exact value of a variable, when pinned."""
        upper = self.diff_bound(ZERO, name)
        lower = self.diff_bound(name, ZERO)
        if upper is not None and lower is not None and upper == -lower:
            return upper
        return None

    def eval_const(self, expr: LinearExpr) -> Optional[int]:
        """Exact integer value of an affine expression, when pinned."""
        total = expr.constant
        for name, coeff in expr.coeffs.items():
            value = self.const_value(name)
            if value is None:
                return None
            total += coeff * value
        return total

    def equivalents(self, expr: LinearExpr) -> FrozenSet[LinearExpr]:
        """All ``var + c`` / constant expressions provably equal to ``expr``.

        ``expr`` must be of shape ``var + c0`` or a constant (any other
        expression comes back alone).  The Section VII client asks it for
        the printable and polynomial forms of a process-set bound.

        The result is a function of ``expr``'s equality *class*: for every
        ``m`` in ``equivalents(e)``, ``equivalents(m) == equivalents(e)``.
        A closed DBM's tight equalities are transitive; ``join`` (pointwise
        max of closed DBMs) keeps them, and ``widen`` keeps an equality
        pair only where the closed newer graph entails it, so it keeps the
        composed pair too.

        Each query reads only the equality class of its base variable
        (:meth:`_class_of`).  The answer is memoized with the lifecycle of
        the classes, so it is shared: callers must not mutate it.
        """
        self._ensure_closed()
        known = self._equivalents.get(expr)
        if known is not None:
            return known
        result = frozenset(self._equivalent_forms(expr))
        if self._optimized():
            self._equivalents[expr] = result
        return result

    def _equivalent_forms(self, expr: LinearExpr) -> Set[LinearExpr]:
        result: Set[LinearExpr] = {expr}
        if self._infeasible:
            return result
        split = expr.split_var_plus_const()
        if split is not None:
            base, offset = split
            for other, forward in self._class_of(base):
                if other == ZERO:
                    # ZERO == base + forward  =>  expr == offset - forward
                    result.add(LinearExpr.const(offset - forward))
                else:
                    # other == base + forward  =>  expr == other + offset - forward
                    result.add(LinearExpr._raw(offset - forward, ((other, 1),)))
            return result
        constant = expr.as_constant()
        if constant is not None:
            for other, forward in self._class_of(ZERO):
                # other == forward  =>  constant == other + (constant - forward)
                result.add(LinearExpr._raw(constant - forward, ((other, 1),)))
        return result

    def _class_of(self, base: str) -> List[Tuple[str, int]]:
        """``[(other, forward)]`` with ``other == base + forward``: the
        entries of row ``base`` whose opposite entry is tight.

        Computed on first use per variable and kept in the dict COW
        siblings share (the ablations recompute it every time).
        """
        members = self._classes.get(base)
        if members is None:
            bound = self._bound
            members = [
                (other, forward)
                for other, forward in bound.get(base, {}).items()
                if bound[other].get(base) == -forward
            ]
            if self._optimized():
                self._classes[base] = members
        return members

    # -- transfer ---------------------------------------------------------------

    def havoc(self, name: str) -> None:
        """Forget everything about a variable (e.g. ``x = input()``).

        A variable the graph holds no constraint on has nothing to forget,
        so the graph is left as it is (a shared matrix stays shared)."""
        self._ensure_closed()
        bound = self._bound
        if not bound.get(name) and not any(name in dsts for dsts in bound.values()):
            return
        self._materialize()
        self._invalidate()
        self._bound[name] = {}
        for src, dsts in self._bound.items():
            dsts.pop(name, None)
        # projection of a closed graph stays closed

    def remove_var(self, name: str) -> None:
        """Project a variable out entirely."""
        self._ensure_closed()
        if name not in self._bound:
            return
        self._materialize()
        self._invalidate()
        del self._bound[name]
        for dsts in self._bound.values():
            dsts.pop(name, None)

    def remove_vars(self, names: Iterable[str]) -> None:
        """Project several variables out."""
        self._ensure_closed()
        doomed = set(names)
        if not any(name in self._bound for name in doomed):
            return
        self._materialize()
        self._invalidate()
        for name in doomed:
            self._bound.pop(name, None)
        for dsts in self._bound.values():
            for name in doomed:
                dsts.pop(name, None)

    def without(self, names: Set[str]) -> "ConstraintGraph":
        """A new graph with ``names`` projected out, or this graph when
        that would not be exact.

        In a closed graph every constraint that a path through a dropped
        variable implies among the others is already an edge, so deleting
        the dropped rows and columns keeps exactly the constraints over the
        variables that remain.  A graph with pending edges is closed first.
        A widened graph comes back unchanged: it may lack implied edges, so
        a constraint it holds only through a dropped variable would be
        lost.  So does an infeasible one, since bottom has nothing to drop.
        """
        self._ensure_closed()
        if self._closed is not True or self._infeasible:
            return self
        result = ConstraintGraph(self.naive_closure, self.naive_copy)
        bound = result._bound = {}
        for src, dsts in self._bound.items():
            if src not in names:
                row = bound[src] = dict(dsts)
                for name in names:
                    row.pop(name, None)
        return result

    def assign(self, target: str, expr: Optional[LinearExpr]) -> None:
        """Transfer function for ``target = expr``.

        ``expr`` of shape ``target + c`` is the in-place increment (the
        Fig. 5 loop counter); other affine single-variable or constant
        expressions re-bind the target; anything else (or ``None``) havocs.
        """
        self._ensure_closed()
        if self._infeasible:
            return
        if expr is None:
            self.havoc(target)
            return
        constant = expr.as_constant()
        split = (ZERO, constant) if constant is not None else expr.split_var_plus_const()
        if split is None:
            self.havoc(target)
            return
        base, offset = split
        if base == target:
            # x := x + c  — shift every bound that mentions x
            self.add_var(target)
            self._materialize()
            self._invalidate()
            for src, dsts in self._bound.items():
                if src == target:
                    continue
                if target in dsts:
                    dsts[target] += offset
            for dst in list(self._bound[target]):
                self._bound[target][dst] -= offset
            return
        self.havoc(target)
        self.add_var(base)
        if self._optimized() and self._closed is True:
            self._bind(target, base, offset)
            return
        self.close_incremental(base, target, offset)
        self.close_incremental(target, base, -offset)

    def _bind(self, target: str, base: str, offset: int) -> None:
        """Closed form of ``target == base + offset`` for an unconstrained
        ``target`` in a closed graph: the target's row and column are the
        base's, shifted by ``offset``.  O(n); equals the two incremental
        closures it replaces."""
        with _obs.span("cgraph.closure.incremental") as span:
            self._materialize()
            self._invalidate()
            bound = self._bound
            row = {dst: c - offset for dst, c in bound[base].items()}
            row[base] = -offset
            for dsts in bound.values():
                c = dsts.get(base)
                if c is not None:
                    dsts[target] = c + offset
            bound[base][target] = offset
            bound[target] = row
        _record_closure("incremental", len(bound) - 1, span)

    def rename(self, mapping: Mapping[str, str]) -> None:
        """Rename variables (used when process-set ids change)."""
        def rn(name: str) -> str:
            return mapping.get(name, name)

        self._bound = {
            rn(src): {rn(dst): c for dst, c in dsts.items()}
            for src, dsts in self._bound.items()
        }
        self._shared = False
        self._invalidate()

    def copy_namespace_from(
        self, source_vars: Iterable[str], mapping: Mapping[str, str]
    ) -> None:
        """Duplicate constraints of ``source_vars`` onto fresh copies.

        For each constraint among the source variables (and between a source
        variable and any outside variable), the same constraint is added with
        source variables replaced via ``mapping``.  This implements the
        "state of the new set is a copy of the old set" rule for process-set
        splits.  When every target name is fresh (the client's splits) a
        closed graph is written in closed form (:meth:`_copy_closed`).
        """
        self._ensure_closed()
        sources = set(source_vars)
        targets = set(mapping.values())
        if (
            len(targets) == len(mapping)
            and sources <= mapping.keys()
            and ZERO not in sources
            and not any(name in self._bound or name in sources for name in targets)
            and self._closed_for_update()
        ):
            self._copy_closed(sources, mapping)
            return
        for new_name in mapping.values():
            self.add_var(new_name)
        additions: List[Tuple[str, str, int]] = []
        for src, dsts in self._bound.items():
            for dst, c in dsts.items():
                src_in = src in sources
                dst_in = dst in sources
                if not (src_in or dst_in):
                    continue
                new_src = mapping.get(src, src) if src_in else src
                new_dst = mapping.get(dst, dst) if dst_in else dst
                additions.append((new_src, new_dst, c))
        for src, dst, c in additions:
            self.add_diff(src, dst, c)

    def _copy_closed(self, sources: Set[str], mapping: Mapping[str, str]) -> None:
        """Closed form of :meth:`copy_namespace_from` onto fresh names.

        A path through a copy mirrors a path through its source, so no old
        entry tightens and each copy's entries to itself, to other copies
        and to outside nodes are its source's.  A copy and a source meet
        only through an outside node ``o`` (ZERO included): the entries
        ``(m(s), t)`` and ``(s, m(t))`` are both the minimum over ``o`` of
        ``bound[s][o] + bound[o][t]``.  O(|S|^2 n).
        """
        with _obs.span("cgraph.closure.incremental") as span:
            self._materialize()
            self._invalidate()
            bound = self._bound
            tracked = [name for name in sources if name in bound]
            via = {
                s: [(o, c) for o, c in bound[s].items() if o not in sources]
                for s in tracked
            }
            for name, row in bound.items():
                if name not in sources:
                    for s in tracked:
                        c = row.get(s)
                        if c is not None:
                            row[mapping[s]] = c
            for s in tracked:
                bound[mapping[s]] = {
                    mapping[dst] if dst in sources else dst: c
                    for dst, c in bound[s].items()
                }
            for s in tracked:
                copy_row, source_row = bound[mapping[s]], bound[s]
                for t in tracked:
                    best = None
                    for o, c in via[s]:
                        step = bound[o].get(t)
                        if step is not None and (best is None or c + step < best):
                            best = c + step
                    if best is not None:
                        copy_row[t] = best
                        source_row[mapping[t]] = best
            for name in mapping.values():
                bound.setdefault(name, {})
        _record_closure("incremental", len(bound) - 1, span)

    def fold_namespace(
        self,
        survivor: object,
        doomed: object,
        bind: Optional[Mapping[str, LinearExpr]] = None,
    ) -> "ConstraintGraph":
        """The namespaces of two merged process sets folded into one.

        Equals joining two projections of this graph: one without the
        ``ps<doomed>::`` variables, and one without the ``ps<survivor>::``
        variables whose doomed variables are renamed into the survivor's
        namespace.  With σ mapping ``ps<survivor>::x`` to ``ps<doomed>::x``
        (and every other name to itself), entry ``(u, v)`` is
        ``max(b[u][v], b[σu][σv])`` and is absent when either side is.
        ``bind`` names result variables that equal a ``var + c`` form (or a
        constant) of this graph in *both* projections — the merged set's
        bounds, which may read either namespace — so their entries are read
        off that form's row and column on each side; any other form leaves
        its variable unconstrained.  Both projections of a closed graph are
        exact (a bound variable is an alias of its form) and the join of
        closed graphs is closed, so one pass over this graph's closed
        matrix builds a closed result.  The result keeps this graph's
        closedness flag (a widened input gives a widened result) and its
        feasibility.
        """
        self._ensure_closed()
        keep, drop = namespace_prefix(survivor), namespace_prefix(doomed)
        bound = self._bound
        bind = bind or {}
        # result name -> the name of its counterpart on the doomed side
        sigma = {
            name: drop + name[len(keep):] if name.startswith(keep) else name
            for name in bound
            if not name.startswith(drop) and name not in bind
        }
        for name in bound:
            if name.startswith(drop):
                renamed = keep + name[len(drop):]
                if renamed not in bind:
                    sigma.setdefault(renamed, name)
        result = ConstraintGraph(self.naive_closure, self.naive_copy)
        rows = result._bound = {}
        for u, sigma_u in sigma.items():
            row = rows[u] = {}
            mine, theirs = bound.get(u), bound.get(sigma_u)
            if mine is None or theirs is None:
                continue
            for v, c in mine.items():
                sigma_v = sigma.get(v)
                if sigma_v is not None:
                    oc = theirs.get(sigma_v)
                    if oc is not None:
                        row[v] = c if c > oc else oc
        aliases = {}
        for name, expr in bind.items():
            rows[name] = {}
            constant = expr.as_constant()
            form = (ZERO, constant) if constant is not None else expr.split_var_plus_const()
            if form is not None and form[0] in bound:
                aliases[name] = form

        def entry(x: str, y: str) -> Optional[int]:
            return 0 if x == y else bound.get(x, {}).get(y)

        for name, (x, c) in aliases.items():
            row = rows[name]
            for v, sigma_v in sigma.items():
                out = (entry(x, v), entry(x, sigma_v))
                if None not in out:
                    row[v] = max(out) - c
                into = (entry(v, x), entry(sigma_v, x))
                if None not in into:
                    rows[v][name] = max(into) + c
            for other, (y, d) in aliases.items():
                between = entry(x, y)
                if other != name and between is not None:
                    row[other] = between + d - c
        result._infeasible = self._infeasible
        result._closed = self._closed
        return result

    # -- lattice ----------------------------------------------------------------

    def join(self, other: "ConstraintGraph") -> "ConstraintGraph":
        """Least upper bound (union of solution sets, convex-hull approx)."""
        self._ensure_closed()
        other._ensure_closed()
        if self._infeasible:
            return other.copy()
        if other._infeasible:
            return self.copy()
        result = ConstraintGraph(self.naive_closure, self.naive_copy)
        for name in self.variables() | other.variables():
            result.add_var(name)
        for src, dsts in self._bound.items():
            other_dsts = other._bound.get(src)
            if other_dsts is None:
                continue
            for dst, c in dsts.items():
                oc = other_dsts.get(dst)
                if oc is not None:
                    result._bound.setdefault(src, {})[dst] = max(c, oc)
        # max of two closed DBMs is closed; a widened input may not be
        widened = self._closed is _WIDENED or other._closed is _WIDENED
        result._closed = _WIDENED if widened else True
        return result

    def meet(self, other: "ConstraintGraph") -> "ConstraintGraph":
        """Greatest lower bound (conjunction of both constraint sets)."""
        result = self.copy()
        for src, dsts in other._bound.items():
            for dst, c in dsts.items():
                result.add_diff(src, dst, c)
        result._closed = False
        return result

    def widen(self, newer: "ConstraintGraph") -> "ConstraintGraph":
        """Standard DBM widening: drop constraints the new state weakened."""
        self._ensure_closed()
        newer._ensure_closed()
        if self._infeasible:
            return newer.copy()
        if newer._infeasible:
            return self.copy()
        result = ConstraintGraph(self.naive_closure, self.naive_copy)
        for name in self.variables() | newer.variables():
            result.add_var(name)
        kept = result._bound
        dropped = []
        for src, dsts in self._bound.items():
            newer_dsts = newer._bound.get(src, {})
            for dst, c in dsts.items():
                nc = newer_dsts.get(dst)
                if nc is not None and nc <= c:
                    kept.setdefault(src, {})[dst] = c
                else:
                    dropped.append((src, dst))
        # Never re-closed: re-closing after widening can undo it, and the
        # result is still a sound (weaker) constraint set.  Kept entries of a
        # closed graph are closed unless two of them still chain across a
        # dropped one; only then is the result flagged _WIDENED, which the
        # closed-form updates do not trust.
        chained = any(
            any(dst in kept[mid] for mid in kept[src]) for src, dst in dropped
        )
        result._closed = _WIDENED if chained or self._closed is _WIDENED else True
        return result

    def equivalent_to(self, other: "ConstraintGraph") -> bool:
        """Semantic equality of two constraint graphs.

        Compares cached canonical fingerprints of the closed systems — a
        hash comparison instead of two fresh closures plus a matrix walk.
        Already-closed graphs (the common case: both sides of an engine
        fixed-point check) are never re-closed, even under the
        ``naive_closure`` ablation, which used to run two full O(n^3)
        closures per call.
        """
        for graph in (self, other):
            if not graph._closed and not graph._infeasible:
                graph.close()
        if self._infeasible or other._infeasible:
            return self._infeasible == other._infeasible
        if self._bound is other._bound:
            return True  # COW siblings, no mutation since the share
        # compare only the constraint sets: variables that are tracked but
        # unconstrained are invisible, exactly like the matrix walk this
        # replaces
        return self._rep_fingerprint()[2] == other._rep_fingerprint()[2]

    def __repr__(self) -> str:
        if self._infeasible:
            return "ConstraintGraph(bottom)"
        parts = []
        for src in sorted(self._bound):
            for dst, c in sorted(self._bound[src].items()):
                parts.append(f"{dst} <= {src} + {c}")
        return f"ConstraintGraph({'; '.join(parts)})"


def edge_diff(
    old: Optional["ConstraintGraph"], new: Optional["ConstraintGraph"]
) -> Optional[dict]:
    """JSON-plain diff of two graphs' explicit constraint sets.

    The provenance flight recorder attaches this to transfer/join/widen
    events so ``repro explain`` can show exactly which difference bounds an
    event added, dropped, or loosened.  Constraints render as the
    ``y <= x + c`` inequalities they encode.  Returns None when nothing
    changed (so silent transfers attach no data); ``old=None`` reports the
    entire new graph as added.
    """
    before = {} if old is None else {
        (src, dst): c for src, dst, c in old._edge_items()
    }
    after = {} if new is None else {
        (src, dst): c for src, dst, c in new._edge_items()
    }

    def _render(src: str, dst: str, c: int) -> str:
        return f"{dst} <= {c}" if src == ZERO else f"{dst} <= {src} + {c}"

    added = [
        _render(src, dst, c)
        for (src, dst), c in sorted(after.items())
        if (src, dst) not in before
    ]
    removed = [
        _render(src, dst, before[(src, dst)])
        for (src, dst) in sorted(before)
        if (src, dst) not in after
    ]
    changed = [
        f"{_render(src, dst, before[(src, dst)])} -> {_render(src, dst, c)}"
        for (src, dst), c in sorted(after.items())
        if (src, dst) in before and before[(src, dst)] != c
    ]
    diff: dict = {}
    if added:
        diff["added"] = added
    if removed:
        diff["removed"] = removed
    if changed:
        diff["changed"] = changed
    if old is not None and new is not None:
        if old.infeasible != new.infeasible:
            diff["infeasible"] = new.infeasible
    return diff or None
