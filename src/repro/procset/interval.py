"""Symbolic ranges ``[lb..ub]`` of process ranks.

A bound is one affine expression.  Inside a stored client state each bound
is a variable of the constraint graph (``ps<uid>::.lb<k>`` and
``ps<uid>::.ub<k>``, see :mod:`repro.analyses.simple_symbolic`), so every
fact the graph knows about it — what it equals, what it is below — is one
graph query away, and the graph's join and widening act on bounds like on
any other variable.  The set operations here build new bounds from old ones
(``lb + 1``, the larger of two bounds) and leave storing them to the client.

Every order comparison is delegated to an :class:`Order` oracle — in
practice the client analysis' constraint graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.expr.linear import LinearExpr


class Order:
    """Oracle interface for comparing symbolic bounds.

    The client analysis' constraint graph satisfies this protocol; a trivial
    implementation that only decides comparisons between syntactically
    comparable expressions is provided for tests.
    """

    def entails_leq(self, lhs: LinearExpr, rhs: LinearExpr) -> Optional[bool]:
        """True / False when provable either way, None when unknown."""
        delta = lhs - rhs
        constant = delta.as_constant()
        if constant is None:
            return None
        return constant <= 0


def eq(order: Order, a: LinearExpr, b: LinearExpr) -> Optional[bool]:
    """Three-valued ``a == b``."""
    if a == b:
        return True
    forward = order.entails_leq(a, b)
    backward = order.entails_leq(b, a)
    if forward is True and backward is True:
        return True
    if forward is False or backward is False:
        return False
    return None


def lt(order: Order, a: LinearExpr, b: LinearExpr) -> Optional[bool]:
    """Three-valued ``a < b``."""
    return order.entails_leq(a + 1, b)


def canonical(forms: Iterable[LinearExpr]) -> LinearExpr:
    """The form a reader sees among equal ones: a constant first, then the
    fewest variables, then the least by text."""

    def key(expr: LinearExpr) -> Tuple:
        return (0 if expr.is_constant() else 1, len(expr.coeffs), str(expr))

    return min(forms, key=key)


@dataclass(frozen=True)
class SymRange:
    """A contiguous symbolic range ``[lb..ub]`` of process ranks."""

    lb: LinearExpr
    ub: LinearExpr

    @classmethod
    def make(cls, lb, ub) -> "SymRange":
        """Range from int/str/LinearExpr bounds."""
        return cls(LinearExpr.coerce(lb), LinearExpr.coerce(ub))

    @classmethod
    def point(cls, expr) -> "SymRange":
        """The singleton range ``[e..e]``."""
        bound = LinearExpr.coerce(expr)
        return cls(bound, bound)

    # -- queries --------------------------------------------------------------

    def is_empty(self, order: Order) -> Optional[bool]:
        """Three-valued emptiness: ``lb > ub``?"""
        verdict = order.entails_leq(self.lb, self.ub)
        if verdict is None:
            return None
        return not verdict

    def is_singleton(self, order: Order) -> Optional[bool]:
        """Three-valued ``lb == ub``?"""
        return eq(order, self.lb, self.ub)

    def contains_expr(self, expr: LinearExpr, order: Order) -> Optional[bool]:
        """Three-valued membership of a symbolic rank."""
        low = order.entails_leq(self.lb, expr)
        high = order.entails_leq(expr, self.ub)
        if low is True and high is True:
            return True
        if low is False or high is False:
            return False
        return None

    def size(self) -> LinearExpr:
        """``ub - lb + 1``."""
        return self.ub - self.lb + 1

    # -- transforms -------------------------------------------------------------

    def shift(self, delta) -> "SymRange":
        """The range translated by an integer or a process-uniform offset."""
        return SymRange(self.lb + delta, self.ub + delta)

    def intersect(self, other: "SymRange", order: Order) -> Optional["SymRange"]:
        """Exact intersection, or None when bounds are incomparable."""
        if order.entails_leq(self.lb, other.lb) is True:
            lb = other.lb
        elif order.entails_leq(other.lb, self.lb) is True:
            lb = self.lb
        else:
            return None
        if order.entails_leq(self.ub, other.ub) is True:
            ub = self.ub
        elif order.entails_leq(other.ub, self.ub) is True:
            ub = other.ub
        else:
            return None
        return SymRange(lb, ub)

    def difference(
        self, other: "SymRange", order: Order
    ) -> Optional[List["SymRange"]]:
        """Exact set difference ``self - other``.

        Returns up to two ranges (possibly empty ones, which callers filter
        via :meth:`is_empty`), or None when the bound order cannot be
        established — the caller must then give up (exactness requirement).
        """
        overlap = self.intersect(other, order)
        if overlap is None:
            return None
        if overlap.is_empty(order) is True:
            return [self]
        pieces: List[SymRange] = []
        # left remainder [self.lb .. overlap.lb-1]
        left_exists = lt(order, self.lb, overlap.lb)
        if left_exists is None:
            # lb comparison itself decided during intersect; equal bounds
            # mean no left piece
            if eq(order, self.lb, overlap.lb) is True:
                left_exists = False
            else:
                return None
        if left_exists:
            pieces.append(SymRange(self.lb, overlap.lb - 1))
        # right remainder [overlap.ub+1 .. self.ub]
        right_exists = lt(order, overlap.ub, self.ub)
        if right_exists is None:
            if eq(order, self.ub, overlap.ub) is True:
                right_exists = False
            else:
                return None
        if right_exists:
            pieces.append(SymRange(overlap.ub + 1, self.ub))
        return pieces

    def enumerate(self, env) -> List[int]:
        """Concrete members under a total variable assignment (for tests)."""
        return list(range(self.lb.evaluate(env), self.ub.evaluate(env) + 1))

    def __str__(self) -> str:
        return f"[{self.lb}..{self.ub}]"


class ProcSet:
    """A union of disjoint symbolic ranges (bounded fan-out).

    Most corpus patterns need a single range; two-sided splits (removing a
    middle element) produce short unions.  Ranges are kept in the order the
    oracle can prove; adjacent ranges are coalesced when provably contiguous.
    """

    MAX_RANGES = 6

    def __init__(self, ranges: Sequence[SymRange]):
        self._ranges: Tuple[SymRange, ...] = tuple(ranges)

    @classmethod
    def range(cls, lb, ub) -> "ProcSet":
        """Single-range process set."""
        return cls([SymRange.make(lb, ub)])

    @classmethod
    def point(cls, expr) -> "ProcSet":
        """Singleton process set."""
        return cls([SymRange.point(expr)])

    @classmethod
    def empty(cls) -> "ProcSet":
        """The empty process set."""
        return cls([])

    @property
    def ranges(self) -> Tuple[SymRange, ...]:
        """The component ranges."""
        return self._ranges

    def is_empty(self, order: Order) -> Optional[bool]:
        """Three-valued emptiness of the whole union."""
        any_unknown = False
        for rng in self._ranges:
            verdict = rng.is_empty(order)
            if verdict is False:
                return False
            if verdict is None:
                any_unknown = True
        return None if any_unknown else True

    def prune_empty(self, order: Order) -> "ProcSet":
        """Drop provably-empty component ranges (``self`` when none is)."""
        ranges = [r for r in self._ranges if r.is_empty(order) is not True]
        return self if len(ranges) == len(self._ranges) else ProcSet(ranges)

    def single_range(self) -> Optional[SymRange]:
        """The sole component when the union has exactly one range."""
        return self._ranges[0] if len(self._ranges) == 1 else None

    def shift(self, delta) -> "ProcSet":
        """Translate all ranges by an integer or a process-uniform offset."""
        return ProcSet([r.shift(delta) for r in self._ranges])

    def union_with(self, other: "ProcSet", order: Order) -> "ProcSet":
        """Concatenate and coalesce provably-adjacent ranges."""
        merged = list(self._ranges) + list(other._ranges)
        changed = True
        while changed and len(merged) > 1:
            changed = False
            for i in range(len(merged)):
                for j in range(len(merged)):
                    if i == j:
                        continue
                    a, b = merged[i], merged[j]
                    # a directly precedes b:  a.ub + 1 == b.lb
                    if eq(order, a.ub + 1, b.lb) is True:
                        coalesced = SymRange(a.lb, b.ub)
                        rest = [merged[k] for k in range(len(merged)) if k not in (i, j)]
                        merged = rest + [coalesced]
                        changed = True
                        break
                if changed:
                    break
        if len(merged) > self.MAX_RANGES:
            raise OverflowError(
                f"process-set union exceeds {self.MAX_RANGES} ranges"
            )
        return ProcSet(merged)

    def enumerate(self, env) -> List[int]:
        """Concrete members under a total assignment (for tests)."""
        members: List[int] = []
        for rng in self._ranges:
            members.extend(rng.enumerate(env))
        return sorted(set(members))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProcSet):
            return NotImplemented
        return self._ranges == other._ranges

    def __hash__(self) -> int:
        return hash(self._ranges)

    def __str__(self) -> str:
        if not self._ranges:
            return "{}"
        return " u ".join(str(r) for r in self._ranges)

    def __repr__(self) -> str:
        return f"ProcSet({self})"
