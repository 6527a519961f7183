"""Affine integer expressions ``c0 + c1*v1 + ... + cn*vn``.

These are the workhorse of the Section VII client analysis: process-set
bounds (``[1 .. np-1]``), message expressions (``id + 1``, ``i``, ``0``) and
the equal forms the constraint graph lists for a bound are all affine
expressions over program variables.

The representation is canonical: a mapping from variable name to a non-zero
integer coefficient, plus an integer constant.  Two ``LinearExpr`` objects
compare equal iff they denote the same affine function, which makes them
usable as dictionary keys and set members.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

Scalar = int
ExprLike = Union["LinearExpr", int, str]


class LinearExpr:
    """An immutable affine expression over named integer variables.

    >>> i = LinearExpr.var("i")
    >>> (i + 3) - LinearExpr.var("i")
    LinearExpr(3)
    >>> (2 * i + 1).coeff("i")
    2
    """

    __slots__ = ("_coeffs", "_const", "_hash")

    def __init__(self, const: int = 0, coeffs: Optional[Mapping[str, int]] = None):
        clean: Dict[str, int] = {}
        if coeffs:
            for name, coeff in coeffs.items():
                if coeff != 0:
                    clean[name] = int(coeff)
        # single-variable expressions (the overwhelmingly common shape of
        # bounds and their equal forms) need no sort
        if len(clean) > 1:
            self._coeffs: Tuple[Tuple[str, int], ...] = tuple(sorted(clean.items()))
        else:
            self._coeffs = tuple(clean.items())
        self._const = int(const)
        self._hash = hash((self._const, self._coeffs))

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "LinearExpr":
        """The constant expression ``value`` (interned: instances are
        immutable, so the hot shapes are shared)."""
        return _cached_const(value)

    @classmethod
    def _raw(cls, const: int, coeffs: Tuple[Tuple[str, int], ...]) -> "LinearExpr":
        """Internal: build from an already-canonical (sorted, non-zero) tuple."""
        self = cls.__new__(cls)
        self._coeffs = coeffs
        self._const = const
        self._hash = hash((const, coeffs))
        return self

    @classmethod
    def var(cls, name: str, coeff: int = 1) -> "LinearExpr":
        """The expression ``coeff * name`` (interned, like :meth:`const`)."""
        return _cached_var(name, coeff)

    @classmethod
    def coerce(cls, value: ExprLike) -> "LinearExpr":
        """Lift an ``int`` or variable-name ``str`` into a ``LinearExpr``."""
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, int):
            return cls(value)
        if isinstance(value, str):
            return cls.var(value)
        raise TypeError(f"cannot coerce {value!r} to LinearExpr")

    # -- inspection --------------------------------------------------------

    @property
    def constant(self) -> int:
        """The additive constant term."""
        return self._const

    @property
    def coeffs(self) -> Dict[str, int]:
        """Variable coefficients as a fresh dict (non-zero entries only)."""
        return dict(self._coeffs)

    def coeff(self, name: str) -> int:
        """Coefficient of variable ``name`` (0 if absent)."""
        for var, coeff in self._coeffs:
            if var == name:
                return coeff
        return 0

    def variables(self) -> Tuple[str, ...]:
        """Names of all variables with non-zero coefficient, sorted."""
        return tuple(name for name, _ in self._coeffs)

    def is_constant(self) -> bool:
        """True iff the expression mentions no variables."""
        return not self._coeffs

    def as_constant(self) -> Optional[int]:
        """The integer value if constant, else ``None``."""
        return self._const if not self._coeffs else None

    def is_var_plus_const(self) -> bool:
        """True iff of the paper's ``var + c`` shape (single unit-coeff var)."""
        return len(self._coeffs) == 1 and self._coeffs[0][1] == 1

    def split_var_plus_const(self) -> Optional[Tuple[str, int]]:
        """Return ``(var, c)`` when the expression is ``var + c``."""
        if self.is_var_plus_const():
            return self._coeffs[0][0], self._const
        return None

    def mentions(self, name: str) -> bool:
        """True iff variable ``name`` occurs with non-zero coefficient."""
        return self.coeff(name) != 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: ExprLike) -> "LinearExpr":
        if type(other) is int:
            # hot path (shifts, offsets): coefficients are unchanged
            if other == 0:
                return self
            return LinearExpr._raw(self._const + other, self._coeffs)
        other = LinearExpr.coerce(other)
        coeffs = dict(self._coeffs)
        for name, coeff in other._coeffs:
            coeffs[name] = coeffs.get(name, 0) + coeff
        return LinearExpr(self._const + other._const, coeffs)

    __radd__ = __add__

    def __neg__(self) -> "LinearExpr":
        return LinearExpr(-self._const, {name: -coeff for name, coeff in self._coeffs})

    def __sub__(self, other: ExprLike) -> "LinearExpr":
        if type(other) is int:
            return self + (-other)
        return self + (-LinearExpr.coerce(other))

    def __rsub__(self, other: ExprLike) -> "LinearExpr":
        return LinearExpr.coerce(other) - self

    def __mul__(self, scalar: int) -> "LinearExpr":
        if not isinstance(scalar, int):
            return NotImplemented
        return LinearExpr(
            self._const * scalar,
            {name: coeff * scalar for name, coeff in self._coeffs},
        )

    __rmul__ = __mul__

    def substitute(self, bindings: Mapping[str, ExprLike]) -> "LinearExpr":
        """Replace each bound variable with its expression (``self`` when
        no bound variable occurs)."""
        if not any(name in bindings for name, _ in self._coeffs):
            return self
        if len(self._coeffs) == 1:
            # hot shape: ``var + c`` with a single substitution
            name, coeff = self._coeffs[0]
            if coeff == 1:
                return LinearExpr.coerce(bindings[name]) + self._const
        result = LinearExpr(self._const)
        for name, coeff in self._coeffs:
            if name in bindings:
                result = result + coeff * LinearExpr.coerce(bindings[name])
            else:
                result = result + LinearExpr.var(name, coeff)
        return result

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a total assignment of the mentioned variables."""
        total = self._const
        for name, coeff in self._coeffs:
            total += coeff * env[name]
        return total

    def shift(self, delta: int) -> "LinearExpr":
        """The expression plus an integer ``delta``."""
        return self + delta

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinearExpr):
            return NotImplemented
        return self._const == other._const and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"LinearExpr({self})"

    def __str__(self) -> str:
        parts = []
        for name, coeff in self._coeffs:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append(f"-{name}")
            else:
                parts.append(f"{coeff}*{name}")
        if self._const or not parts:
            parts.append(str(self._const))
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text


@lru_cache(maxsize=4096)
def _cached_const(value: int) -> LinearExpr:
    return LinearExpr(value)


@lru_cache(maxsize=4096)
def _cached_var(name: str, coeff: int) -> LinearExpr:
    return LinearExpr(0, {name: coeff})


def sum_exprs(exprs: Iterable[ExprLike]) -> LinearExpr:
    """Sum an iterable of expression-likes (empty sum is 0)."""
    total = LinearExpr(0)
    for expr in exprs:
        total = total + LinearExpr.coerce(expr)
    return total
