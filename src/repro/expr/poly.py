"""Multivariate integer polynomials for HSM reasoning.

Hierarchical Sequence Maps (Section VIII) carry repetition counts and strides
such as ``nrows``, ``nrows * ncols`` or ``2 * nrows**2``.  Matching the NAS-CG
transpose requires multiplying, dividing and checking divisibility of such
terms under program invariants (``np = nrows * ncols``).  This module provides
an exact polynomial arithmetic with those operations.

A :class:`Monomial` is a product of variable powers; a :class:`Poly` is an
integer-coefficient sum of monomials.  Both are immutable and hashable.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple, Union

from repro.expr.linear import LinearExpr

PolyLike = Union["Poly", "Monomial", LinearExpr, int, str]


class Monomial:
    """A product of variable powers, e.g. ``nrows**2 * ncols``.

    The empty monomial is the multiplicative unit 1.
    """

    __slots__ = ("_powers", "_hash")

    def __init__(self, powers: Optional[Mapping[str, int]] = None):
        clean: Dict[str, int] = {}
        if powers:
            for name, power in powers.items():
                if power < 0:
                    raise ValueError(f"negative power for {name!r}")
                if power > 0:
                    clean[name] = int(power)
        self._powers: Tuple[Tuple[str, int], ...] = tuple(sorted(clean.items()))
        self._hash = hash(self._powers)

    @classmethod
    def unit(cls) -> "Monomial":
        """The monomial 1."""
        return cls()

    @classmethod
    def var(cls, name: str, power: int = 1) -> "Monomial":
        """The monomial ``name**power``."""
        return cls({name: power})

    @property
    def powers(self) -> Dict[str, int]:
        """Variable powers as a fresh dict."""
        return dict(self._powers)

    def degree(self) -> int:
        """Total degree (sum of powers)."""
        return sum(power for _, power in self._powers)

    def is_unit(self) -> bool:
        """True iff this is the monomial 1."""
        return not self._powers

    def __mul__(self, other: "Monomial") -> "Monomial":
        powers = dict(self._powers)
        for name, power in other._powers:
            powers[name] = powers.get(name, 0) + power
        return Monomial(powers)

    def divides(self, other: "Monomial") -> bool:
        """True iff ``other / self`` is a monomial."""
        mine = dict(self._powers)
        theirs = dict(other._powers)
        return all(theirs.get(name, 0) >= power for name, power in mine.items())

    def __floordiv__(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        powers = dict(self._powers)
        for name, power in other._powers:
            powers[name] = powers.get(name, 0) - power
        return Monomial(powers)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a total assignment."""
        value = 1
        for name, power in self._powers:
            value *= env[name] ** power
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._powers == other._powers

    def __lt__(self, other: "Monomial") -> bool:
        # Graded lexicographic order, used only for canonical printing/sorting.
        return (-self.degree(), self._powers) < (-other.degree(), other._powers)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._powers:
            return "1"
        parts = []
        for name, power in self._powers:
            parts.append(name if power == 1 else f"{name}^{power}")
        return "*".join(parts)

    def __repr__(self) -> str:
        return f"Monomial({self})"


class Poly:
    """An integer-coefficient multivariate polynomial.

    >>> nrows = Poly.var("nrows")
    >>> (nrows * nrows + 2 * nrows).evaluate({"nrows": 3})
    15
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        clean: Dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff != 0:
                    clean[mono] = int(coeff)
        self._terms: Tuple[Tuple[Monomial, int], ...] = tuple(
            sorted(clean.items(), key=lambda item: item[0])
        )
        self._hash = hash(self._terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: int) -> "Poly":
        """The constant polynomial ``value``."""
        return cls({Monomial.unit(): value})

    @classmethod
    def var(cls, name: str) -> "Poly":
        """The polynomial ``name``."""
        return cls({Monomial.var(name): 1})

    @classmethod
    def coerce(cls, value: PolyLike) -> "Poly":
        """Lift ints, strings, monomials and affine expressions into a Poly."""
        if isinstance(value, Poly):
            return value
        if isinstance(value, Monomial):
            return cls({value: 1})
        if isinstance(value, int):
            return cls.const(value)
        if isinstance(value, str):
            return cls.var(value)
        if isinstance(value, LinearExpr):
            terms: Dict[Monomial, int] = {Monomial.unit(): value.constant}
            for name, coeff in value.coeffs.items():
                terms[Monomial.var(name)] = coeff
            return cls(terms)
        raise TypeError(f"cannot coerce {value!r} to Poly")

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        """Monomial-to-coefficient mapping as a fresh dict."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        """True iff this is the zero polynomial."""
        return not self._terms

    def is_constant(self) -> bool:
        """True iff no monomial mentions a variable."""
        return all(mono.is_unit() for mono, _ in self._terms)

    def as_constant(self) -> Optional[int]:
        """The integer value if constant, else ``None``."""
        if self.is_zero():
            return 0
        if len(self._terms) == 1 and self._terms[0][0].is_unit():
            return self._terms[0][1]
        return None

    def as_monomial(self) -> Optional[Tuple[int, Monomial]]:
        """Return ``(coeff, monomial)`` when the poly is a single term."""
        if len(self._terms) == 1:
            mono, coeff = self._terms[0]
            return coeff, mono
        return None

    def as_linear(self) -> Optional[LinearExpr]:
        """Convert back to an affine expression when total degree <= 1."""
        const = 0
        coeffs: Dict[str, int] = {}
        for mono, coeff in self._terms:
            if mono.is_unit():
                const = coeff
            elif mono.degree() == 1:
                (name, _power), = mono.powers.items()
                coeffs[name] = coeff
            else:
                return None
        return LinearExpr(const, coeffs)

    def variables(self) -> Tuple[str, ...]:
        """Sorted names of all variables occurring in the polynomial."""
        names = set()
        for mono, _coeff in self._terms:
            names.update(mono.powers)
        return tuple(sorted(names))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: PolyLike) -> "Poly":
        other = Poly.coerce(other)
        terms = dict(self._terms)
        for mono, coeff in other._terms:
            terms[mono] = terms.get(mono, 0) + coeff
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({mono: -coeff for mono, coeff in self._terms})

    def __sub__(self, other: PolyLike) -> "Poly":
        return self + (-Poly.coerce(other))

    def __rsub__(self, other: PolyLike) -> "Poly":
        return Poly.coerce(other) - self

    def __mul__(self, other: PolyLike) -> "Poly":
        other = Poly.coerce(other)
        terms: Dict[Monomial, int] = {}
        for mono_a, coeff_a in self._terms:
            for mono_b, coeff_b in other._terms:
                mono = mono_a * mono_b
                terms[mono] = terms.get(mono, 0) + coeff_a * coeff_b
        return Poly(terms)

    __rmul__ = __mul__

    def exact_div(self, divisor: PolyLike) -> Optional["Poly"]:
        """Exact polynomial division, or ``None`` when not exact.

        The divisor must be a single term (the only case HSM rules need).
        """
        divisor = Poly.coerce(divisor)
        single = divisor.as_monomial()
        if single is None:
            quotient = self._try_general_division(divisor)
            return quotient
        dcoeff, dmono = single
        if dcoeff == 0:
            raise ZeroDivisionError("exact_div by zero polynomial")
        terms: Dict[Monomial, int] = {}
        for mono, coeff in self._terms:
            if coeff % dcoeff != 0 or not dmono.divides(mono):
                return None
            terms[mono // dmono] = coeff // dcoeff
        return Poly(terms)

    def _try_general_division(self, divisor: "Poly") -> Optional["Poly"]:
        """Best-effort multi-term division via repeated leading-term steps."""
        remainder = self
        quotient = Poly()
        lead = divisor._terms[-1] if divisor._terms else None
        if lead is None:
            raise ZeroDivisionError("exact_div by zero polynomial")
        lead_mono, lead_coeff = lead
        for _ in range(len(self._terms) * 4 + 4):
            if remainder.is_zero():
                return quotient
            rem_mono, rem_coeff = remainder._terms[-1]
            if rem_coeff % lead_coeff != 0 or not lead_mono.divides(rem_mono):
                return None
            step = Poly({rem_mono // lead_mono: rem_coeff // lead_coeff})
            quotient = quotient + step
            remainder = remainder - step * divisor
        return None

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a total assignment of the mentioned variables."""
        return sum(coeff * mono.evaluate(env) for mono, coeff in self._terms)

    def substitute(self, bindings: Mapping[str, PolyLike]) -> "Poly":
        """Replace each bound variable with a polynomial (``self`` when no
        bound variable occurs)."""
        if not any(
            name in bindings for mono, _ in self._terms for name, _ in mono._powers
        ):
            return self
        result = Poly()
        for mono, coeff in self._terms:
            term = Poly.const(coeff)
            for name, power in mono.powers.items():
                base = Poly.coerce(bindings[name]) if name in bindings else Poly.var(name)
                for _ in range(power):
                    term = term * base
            result = result + term
        return result

    # -- protocol ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in reversed(self._terms):
            if mono.is_unit():
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(str(mono))
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text

    def __repr__(self) -> str:
        return f"Poly({self})"


ZERO = Poly()
ONE = Poly.const(1)
