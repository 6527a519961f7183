"""Symbolic ranges ``[lb..ub]`` with equivalence-set bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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


class Bound:
    """A range bound: a non-empty set of provably-equal affine expressions."""

    __slots__ = ("_exprs",)

    def __init__(self, exprs: Iterable[LinearExpr]):
        frozen = frozenset(exprs)
        if not frozen:
            raise ValueError("a bound needs at least one expression")
        self._exprs = frozen

    @classmethod
    def of(cls, expr) -> "Bound":
        """Bound from a single int / str / LinearExpr."""
        return cls({LinearExpr.coerce(expr)})

    @property
    def exprs(self) -> FrozenSet[LinearExpr]:
        """All equivalent expressions of this bound."""
        return self._exprs

    def canonical(self) -> LinearExpr:
        """A deterministic representative (constants first, then shortest)."""
        def key(expr: LinearExpr) -> Tuple:
            return (0 if expr.is_constant() else 1, len(expr.coeffs), str(expr))

        return min(self._exprs, key=key)

    def shift(self, delta: int) -> "Bound":
        """Add an integer to every representative."""
        return Bound({expr + delta for expr in self._exprs})

    def translate(self, delta: LinearExpr) -> "Bound":
        """Add a symbolic (process-uniform) offset to every representative."""
        return Bound({expr + delta for expr in self._exprs})

    def widen_with(self, other: "Bound") -> Optional["Bound"]:
        """Equivalence-set intersection; None when nothing is common.

        This is the paper's widening on process-set bounds: only the
        expressions valid in both states survive.
        """
        common = self._exprs & other._exprs
        return Bound(common) if common else None

    def union_with(self, other: "Bound") -> "Bound":
        """Union of equivalence sets (both describe the same value)."""
        return Bound(self._exprs | other._exprs)

    def mentions(self, name: str) -> bool:
        """True iff any representative mentions the variable."""
        return any(expr.mentions(name) for expr in self._exprs)

    def substitute(self, bindings) -> "Bound":
        """Substitute variables in every representative (``self`` when no
        representative mentions a bound variable)."""
        if not any(
            name in bindings for expr in self._exprs for name in expr.variables()
        ):
            return self
        return Bound({expr.substitute(bindings) for expr in self._exprs})

    # -- comparisons via an oracle ------------------------------------------

    def leq(self, other: "Bound", order: Order) -> Optional[bool]:
        """Three-valued ``self <= other`` using any representative pair."""
        for mine in self._exprs:
            for theirs in other._exprs:
                verdict = order.entails_leq(mine, theirs)
                if verdict is not None:
                    return verdict
        return None

    def eq(self, other: "Bound", order: Order) -> Optional[bool]:
        """Three-valued ``self == other``."""
        if self._exprs & other._exprs:
            return True
        forward = self.leq(other, order)
        backward = other.leq(self, order)
        if forward is True and backward is True:
            return True
        if forward is False or backward is False:
            return False
        return None

    def lt(self, other: "Bound", order: Order) -> Optional[bool]:
        """Three-valued ``self < other``."""
        verdict = self.shift(1).leq(other, order)
        return verdict

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bound):
            return NotImplemented
        return self._exprs == other._exprs

    def __hash__(self) -> int:
        return hash(self._exprs)

    def __str__(self) -> str:
        return str(self.canonical())

    def __repr__(self) -> str:
        names = ", ".join(sorted(str(e) for e in self._exprs))
        return f"Bound({names})"


@dataclass(frozen=True)
class SymRange:
    """A contiguous symbolic range ``[lb..ub]`` of process ranks."""

    lb: Bound
    ub: Bound

    @classmethod
    def make(cls, lb, ub) -> "SymRange":
        """Range from int/str/LinearExpr bounds."""
        return cls(Bound.of(lb), Bound.of(ub))

    @classmethod
    def point(cls, expr) -> "SymRange":
        """The singleton range ``[e..e]``."""
        bound = Bound.of(expr)
        return cls(bound, bound)

    # -- queries --------------------------------------------------------------

    def is_empty(self, order: Order) -> Optional[bool]:
        """Three-valued emptiness: ``lb > ub``?"""
        verdict = self.lb.leq(self.ub, order)
        if verdict is None:
            return None
        return not verdict

    def is_singleton(self, order: Order) -> Optional[bool]:
        """Three-valued ``lb == ub``?"""
        return self.lb.eq(self.ub, order)

    def contains_expr(self, expr: LinearExpr, order: Order) -> Optional[bool]:
        """Three-valued membership of a symbolic rank."""
        point = Bound.of(expr)
        low = self.lb.leq(point, order)
        high = point.leq(self.ub, order)
        if low is True and high is True:
            return True
        if low is False or high is False:
            return False
        return None

    def size(self) -> Optional[LinearExpr]:
        """``ub - lb + 1`` using canonical representatives."""
        return self.ub.canonical() - self.lb.canonical() + 1

    # -- transforms -------------------------------------------------------------

    def shift(self, delta: int) -> "SymRange":
        """The range translated by an integer."""
        return SymRange(self.lb.shift(delta), self.ub.shift(delta))

    def translate(self, delta: LinearExpr) -> "SymRange":
        """The range translated by a symbolic (process-uniform) offset."""
        return SymRange(self.lb.translate(delta), self.ub.translate(delta))

    def map_bounds(self, fn: Callable[[Bound], Bound]) -> "SymRange":
        """The range with ``fn`` applied to both bounds (``self`` when
        ``fn`` returns both unchanged)."""
        lb, ub = fn(self.lb), fn(self.ub)
        if lb is self.lb and ub is self.ub:
            return self
        return SymRange(lb, ub)

    def substitute(self, bindings) -> "SymRange":
        """Substitute variables in both bounds."""
        return self.map_bounds(lambda bound: bound.substitute(bindings))

    def widen_with(self, other: "SymRange") -> Optional["SymRange"]:
        """Pairwise bound widening; None when either bound loses all forms."""
        lb = self.lb.widen_with(other.lb)
        ub = self.ub.widen_with(other.ub)
        if lb is None or ub is None:
            return None
        return SymRange(lb, ub)

    def intersect(self, other: "SymRange", order: Order) -> Optional["SymRange"]:
        """Exact intersection, or None when bounds are incomparable."""
        if self.lb.leq(other.lb, order) is True:
            lb = other.lb
        elif other.lb.leq(self.lb, order) is True:
            lb = self.lb
        else:
            return None
        if self.ub.leq(other.ub, order) is True:
            ub = self.ub
        elif other.ub.leq(self.ub, order) is True:
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
        left_exists = self.lb.lt(overlap.lb, order)
        if left_exists is None:
            # lb comparison itself decided during intersect; equal bounds
            # mean no left piece
            if self.lb.eq(overlap.lb, order) is True:
                left_exists = False
            else:
                return None
        if left_exists:
            pieces.append(SymRange(self.lb, overlap.lb.shift(-1)))
        # right remainder [overlap.ub+1 .. self.ub]
        right_exists = overlap.ub.lt(self.ub, order)
        if right_exists is None:
            if self.ub.eq(overlap.ub, order) is True:
                right_exists = False
            else:
                return None
        if right_exists:
            pieces.append(SymRange(overlap.ub.shift(1), self.ub))
        return pieces

    def enumerate(self, env) -> List[int]:
        """Concrete members under a total variable assignment (for tests)."""
        low = self.lb.canonical().evaluate(env)
        high = self.ub.canonical().evaluate(env)
        return list(range(low, high + 1))

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

    def shift(self, delta: int) -> "ProcSet":
        """Translate all ranges by an integer."""
        return ProcSet([r.shift(delta) for r in self._ranges])

    def translate(self, delta: LinearExpr) -> "ProcSet":
        """Translate all ranges by a symbolic (process-uniform) offset."""
        return ProcSet([r.translate(delta) for r in self._ranges])

    def map_bounds(self, fn: Callable[[Bound], Bound]) -> "ProcSet":
        """The set with ``fn`` applied to every bound (``self`` when ``fn``
        returns every bound unchanged)."""
        ranges = [r.map_bounds(fn) for r in self._ranges]
        if all(new is old for new, old in zip(ranges, self._ranges)):
            return self
        return ProcSet(ranges)

    def substitute(self, bindings) -> "ProcSet":
        """Substitute variables in all bounds."""
        return self.map_bounds(lambda bound: bound.substitute(bindings))

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
                    if a.ub.shift(1).eq(b.lb, order) is True:
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

    def widen_with(self, other: "ProcSet") -> Optional["ProcSet"]:
        """Positional range widening; None on shape mismatch or lost bounds."""
        if len(self._ranges) != len(other._ranges):
            return None
        widened = []
        for mine, theirs in zip(self._ranges, other._ranges):
            result = mine.widen_with(theirs)
            if result is None:
                return None
            widened.append(result)
        return ProcSet(widened)

    def enumerate(self, env) -> List[int]:
        """Concrete members under a total assignment (for tests)."""
        members: List[int] = []
        for rng in self._ranges:
            members.extend(rng.enumerate(env))
        return sorted(set(members))

    def __str__(self) -> str:
        if not self._ranges:
            return "{}"
        return " u ".join(str(r) for r in self._ranges)

    def __repr__(self) -> str:
        return f"ProcSet({self})"
