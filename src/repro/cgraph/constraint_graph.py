"""Difference-bound constraint graphs.

A :class:`ConstraintGraph` is a conjunction of inequalities ``y <= x + c``
over named integer variables, plus a distinguished zero node so absolute
bounds (``x <= 5``) are the special case ``x <= ZERO + 5``.  This is the
constraint-graph representation of CLR ch. 24.4/25.5 used by the paper's
Section VII-A state analysis.

Consistency is maintained by transitive closure (Floyd–Warshall, O(n^3)) or
by an incremental single-constraint update (O(n^2)); both are instrumented
through :mod:`repro.cgraph.stats` because reproducing the paper's Section IX
profile requires counting exactly these operations.

Representation sharing.  The bound matrix is **copy-on-write**:
:meth:`ConstraintGraph.copy` shares the underlying dict-of-dicts between
parent and clone, and the first in-place mutation of either materializes a
private copy (``cgraph.cow.shares`` / ``cgraph.cow.materializations``
counters).  Closed graphs cache a canonical *fingerprint* of their
constraint set, so :meth:`equivalent_to` is a hash comparison instead of a
matrix walk, and COW siblings share one equality-pair index for
:meth:`equivalents`.  Nothing is memoized across graphs: a process-wide
closure memo hit 0.4% of closures on the 18 paper programs while sorting
the full edge list of every closure for its key, and the process-wide
memos held a warm 120-program batch at 309 MiB of peak RSS against 43 MiB
without them.  The ``naive_copy`` flag
restores the eager-copy, memo-free behavior for A/B property tests, and
``naive_closure`` (the Section IX ablation) also bypasses the equality
index so the paper's prototype cost profile stays reproducible.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cgraph.stats import ClosureStats, global_stats, timed
from repro.expr.linear import LinearExpr
from repro.obs import recorder as _obs

try:  # optional vectorized min-plus kernel for the optimized closure path
    import numpy as _np
except ImportError:  # pragma: no cover - the baked image ships numpy
    _np = None

#: below this many variables the pure-Python loop beats the array setup
_NUMPY_CLOSURE_MIN_VARS = 16

#: distinguished node representing the constant 0
ZERO = "__0__"

#: absence of a constraint (y - x unbounded above)
INF = None

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

    def __init__(
        self,
        stats: Optional[ClosureStats] = None,
        naive_closure: bool = False,
        naive_copy: bool = False,
    ):
        # _bound[x][y] = c  <=>  y <= x + c  (edge x --c--> y)
        self._bound: Dict[str, Dict[str, int]] = {ZERO: {}}
        self._closed = True
        self._infeasible = False
        #: the bound matrix may be referenced by another graph; in-place
        #: mutation must materialize a private copy
        self._shared = False
        #: cached canonical fingerprint of the closed constraint system
        self._fingerprint: Optional[tuple] = None
        #: one-slot box holding the equality-pair index of the closed graph
        #: (see :meth:`_equality_pairs`), shared between COW siblings and
        #: replaced (never cleared in place) on semantic mutation
        self._pairs_box: List[Optional[Dict[str, List[Tuple[str, int]]]]] = [None]
        self._stats = stats if stats is not None else global_stats()
        #: ablation switch reproducing the paper's prototype cost profile:
        #: re-run the full O(n^3) closure before every query instead of
        #: tracking closedness (Section IX's dominant cost)
        self.naive_closure = naive_closure
        #: ablation switch restoring the pre-PR-2 lattice: eager deep copies
        #: and no equality index (the property-test oracle)
        self.naive_copy = naive_copy

    # -- copy-on-write plumbing ------------------------------------------------

    def _optimized(self) -> bool:
        """True when the equality index and the vectorized closure are
        allowed (both ablations disable them)."""
        return not (self.naive_closure or self.naive_copy)

    def _materialize(self) -> None:
        """Give this graph a private bound matrix before in-place mutation."""
        if self._shared:
            self._bound = {src: dict(dsts) for src, dsts in self._bound.items()}
            self._shared = False
            self._stats.record_cow_materialization()

    def _invalidate(self) -> None:
        """Constraint set changed: drop fingerprint and equality index."""
        self._fingerprint = None
        # Re-bind instead of clearing: COW siblings still using the old
        # semantics keep their (still-valid) shared box.  This must happen
        # even when the box is currently empty — a sibling sharing it could
        # fill it later with the index of the *old* semantics.
        self._pairs_box = [None]

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
        closedness flag and the ablation switches — everything needed to
        rebuild a graph that behaves identically, including its canonical
        :meth:`fingerprint`.
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
        graph._closed = bool(data["closed"])
        graph._infeasible = bool(data["infeasible"])
        return graph

    # -- basics ---------------------------------------------------------------

    def copy(self) -> "ConstraintGraph":
        """Copy sharing the stats sink.

        Copy-on-write by default: the bound matrix is shared until either
        side mutates.  With ``naive_copy`` the pre-PR-2 eager deep copy is
        performed instead.
        """
        clone = ConstraintGraph(
            self._stats, self.naive_closure, naive_copy=self.naive_copy
        )
        if self.naive_copy:
            clone._bound = {src: dict(dsts) for src, dsts in self._bound.items()}
        else:
            self._shared = True
            clone._bound = self._bound
            clone._shared = True
            clone._fingerprint = self._fingerprint
            clone._pairs_box = self._pairs_box
            self._stats.record_cow_share()
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
                self.add_upper(name, -const)
                return True
            if coeff == -1:
                self.add_lower(name, const)
                return True
            return False
        if len(names) == 2:
            a, b = names
            ca, cb = coeffs[a], coeffs[b]
            if ca == 1 and cb == -1:
                # a - b + const <= 0  =>  a <= b - const
                self.add_diff(b, a, -const)
                return True
            if ca == -1 and cb == 1:
                self.add_diff(a, b, -const)
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
        use_numpy = (
            self._optimized() and _np is not None and n >= _NUMPY_CLOSURE_MIN_VARS
        )
        with _obs.span("cgraph.closure.full"), timed() as clock:
            if use_numpy:
                # vectorized min-plus product; the naive ablation never takes
                # this path, so the Section IX prototype cost model is intact
                bound, infeasible = self._floyd_warshall_numpy(names, index, n)
            else:
                bound, infeasible = self._floyd_warshall_python(names, index, n)
        self._stats.record_full(n - 1, clock.elapsed)
        self._bound = bound
        self._shared = False
        self._infeasible = self._infeasible or infeasible
        self._closed = True
        self._fingerprint = None

    def _floyd_warshall_python(
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

    def _floyd_warshall_numpy(
        self, names: List[str], index: Dict[str, int], n: int
    ) -> Tuple[Dict[str, Dict[str, int]], bool]:
        """Vectorized min-plus closure (identical result to the loop)."""
        inf = _np.inf
        matrix = _np.full((n, n), inf)
        _np.fill_diagonal(matrix, 0.0)
        for src, dsts in self._bound.items():
            i = index[src]
            row = matrix[i]
            for dst, c in dsts.items():
                j = index[dst]
                if c < row[j]:
                    row[j] = c
        for k in range(n):
            _np.minimum(
                matrix, matrix[:, k : k + 1] + matrix[k : k + 1, :], out=matrix
            )
        infeasible = bool((_np.diagonal(matrix) < 0).any())
        rows = matrix.tolist()
        bound: Dict[str, Dict[str, int]] = {name: {} for name in names}
        for i, src in enumerate(names):
            row = rows[i]
            dsts = bound[src]
            for j, dst in enumerate(names):
                if i != j and row[j] != inf:
                    dsts[dst] = int(row[j])
        return bound, infeasible

    def close_incremental(self, x: str, y: str, c: int) -> None:
        """O(n^2) re-closure after adding the single constraint ``y <= x + c``.

        Precondition: the graph was closed before the constraint was added.
        Used by hot paths (assignment transfer); instrumented separately.
        """
        if self._infeasible:
            return
        self.add_var(x)
        self.add_var(y)
        names = [ZERO] + sorted(self.variables())
        with _obs.span("cgraph.closure.incremental"), timed() as clock:
            existing = self._bound[x].get(y)
            if existing is not None and existing <= c:
                self._closed = True
                self._stats.record_incremental(len(names) - 1, clock.elapsed)
                return
            self._materialize()
            self._invalidate()
            self._bound[x][y] = c
            if x == y:
                if c < 0:
                    self._infeasible = True
                self._closed = True
                self._stats.record_incremental(len(names) - 1, clock.elapsed)
                return
            for u in names:
                to_x = 0 if u == x else self._bound[u].get(x)
                if to_x is None:
                    continue
                for v in names:
                    from_y = 0 if v == y else self._bound[y].get(v)
                    if from_y is None:
                        continue
                    total = to_x + c + from_y
                    if u == v:
                        if total < 0:
                            self._infeasible = True
                        continue
                    current = self._bound[u].get(v)
                    if current is None or total < current:
                        self._bound[u][v] = total
        self._closed = True
        self._stats.record_incremental(len(names) - 1, clock.elapsed)

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

    def equivalents(self, expr: LinearExpr) -> Set[LinearExpr]:
        """All ``var + c`` / constant expressions provably equal to ``expr``.

        ``expr`` must be of shape ``var + c0`` or a constant; this is the
        bound-equivalence-set operation the Section VII process-set
        representation relies on.

        The result is a function of ``expr``'s equality *class*: for every
        ``m`` in ``equivalents(e)``, ``equivalents(m) == equivalents(e)``.
        A closed DBM's tight equalities are transitive; ``join`` (pointwise
        max of closed DBMs) keeps them, and ``widen`` keeps an equality
        pair only where the closed newer graph entails it, so it keeps the
        composed pair too.  Callers enriching a bound therefore query one
        member per class and skip the members it returned.

        Each query walks only the equality class of its base variable in
        the equality-pair index, which COW siblings share.
        """
        self._ensure_closed()
        result: Set[LinearExpr] = {expr}
        if self._infeasible:
            return result
        pairs = self._pairs_box[0]
        if pairs is None:
            pairs = self._equality_pairs()
            if self._optimized():
                self._pairs_box[0] = pairs
        split = expr.split_var_plus_const()
        if split is not None:
            base, offset = split
            for other, forward in pairs.get(base, ()):
                if other == ZERO:
                    # ZERO == base + forward  =>  expr == offset - forward
                    result.add(LinearExpr.const(offset - forward))
                else:
                    # other == base + forward  =>  expr == other + offset - forward
                    result.add(LinearExpr._raw(offset - forward, ((other, 1),)))
            return result
        constant = expr.as_constant()
        if constant is not None:
            for other, forward in pairs.get(ZERO, ()):
                # other == forward  =>  constant == other + (constant - forward)
                result.add(LinearExpr._raw(constant - forward, ((other, 1),)))
        return result

    def equivalents_union(self, exprs: Iterable[LinearExpr]) -> Set[LinearExpr]:
        """Union of :meth:`equivalents` over ``exprs``, one query per
        equality class: an expression an earlier query returned is in that
        query's class, so its own query would return the same set."""
        result: Set[LinearExpr] = set()
        for expr in exprs:
            if expr not in result:
                result |= self.equivalents(expr)
        return result

    def _equality_pairs(self) -> Dict[str, List[Tuple[str, int]]]:
        """``base -> [(other, forward)]`` with ``other == base + forward``.

        Derived from the closed matrix (an equality is a pair of opposite
        tight difference edges) once per semantics: every ``equivalents``
        query then walks only the (tiny) equality class of its base
        variable instead of the whole matrix.
        """
        pairs: Dict[str, List[Tuple[str, int]]] = {}
        bound = self._bound
        for base, row in bound.items():
            entries = [
                (other, forward)
                for other, forward in row.items()
                if bound.get(other, {}).get(base) == -forward
            ]
            if entries:
                pairs[base] = entries
        return pairs

    # -- transfer ---------------------------------------------------------------

    def havoc(self, name: str) -> None:
        """Forget everything about a variable (e.g. ``x = input()``)."""
        self._ensure_closed()
        if name not in self._bound:
            self.add_var(name)
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
        if constant is not None:
            self.havoc(target)
            self.close_incremental(ZERO, target, constant)
            self.close_incremental(target, ZERO, -constant)
            return
        split = expr.split_var_plus_const()
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
        self.close_incremental(base, target, offset)
        self.close_incremental(target, base, -offset)

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
        splits.
        """
        self._ensure_closed()
        sources = set(source_vars)
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

    # -- lattice ----------------------------------------------------------------

    def join(self, other: "ConstraintGraph") -> "ConstraintGraph":
        """Least upper bound (union of solution sets, convex-hull approx)."""
        self._ensure_closed()
        other._ensure_closed()
        if self._infeasible:
            return other.copy()
        if other._infeasible:
            return self.copy()
        result = ConstraintGraph(self._stats, naive_copy=self.naive_copy)
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
        result._closed = True  # max of two closed DBMs is closed
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
        result = ConstraintGraph(self._stats, naive_copy=self.naive_copy)
        for name in self.variables() | newer.variables():
            result.add_var(name)
        for src, dsts in self._bound.items():
            newer_dsts = newer._bound.get(src, {})
            for dst, c in dsts.items():
                nc = newer_dsts.get(dst)
                if nc is not None and nc <= c:
                    result._bound.setdefault(src, {})[dst] = c
        # deliberately NOT closed: re-closing after widening can undo it;
        # the result is still a sound (weaker) constraint set
        result._closed = True
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
