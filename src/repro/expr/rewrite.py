"""Equality reasoning under program invariants.

The Cartesian-topology client (Section VIII) proves HSM facts *modulo*
application invariants such as ``np = nrows * ncols`` and ``ncols = 2 *
nrows``.  An :class:`InvariantSystem` holds a set of such equations, oriented
as substitutions ``var -> polynomial``, and offers a ``normalize`` operation
that rewrites any polynomial into a canonical representative of its
equivalence class.  Two polynomials are provably equal iff their normal forms
coincide.

Substitutions are applied to fixpoint, so chained invariants (``np = nrows *
ncols``, ``ncols = 2 * nrows``) normalize ``np`` all the way to
``2 * nrows**2``.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.expr.poly import Poly, PolyLike

_MAX_REWRITE_ROUNDS = 32


class InvariantSystem:
    """A set of oriented polynomial equalities ``var = poly``.

    Positivity assumptions (every registered variable denotes a positive
    process-grid extent) are tracked so clients can ask sign questions about
    normalized terms.
    """

    def __init__(self) -> None:
        self._subst: Dict[str, Poly] = {}
        self._positive: set = set()

    def add_equality(self, name: str, poly: PolyLike) -> None:
        """Register the invariant ``name = poly``.

        The right-hand side is normalized against the invariants already
        present, and existing substitutions are re-normalized so the system
        stays confluent.
        """
        rhs = self.normalize(Poly.coerce(poly))
        if rhs.variables() and name in rhs.variables():
            raise ValueError(f"circular invariant {name} = {rhs}")
        self._subst[name] = rhs
        binding = {name: rhs}
        self._subst = {
            var: value.substitute(binding) for var, value in self._subst.items()
        }

    def assume_positive(self, *names: str) -> None:
        """Record that each named variable is a positive integer."""
        self._positive.update(names)

    @property
    def substitutions(self) -> Dict[str, Poly]:
        """The oriented substitution map as a fresh dict."""
        return dict(self._subst)

    # -- snapshot serialization ----------------------------------------------

    def snapshot_state(self) -> dict:
        """Raw internal state for the checkpoint codec.

        The substitutions are stored verbatim (already normalized against
        each other), so restoring does not re-run ``add_equality``'s
        re-normalization and the rebuilt system is bit-identical.
        """
        return {
            "subst": dict(self._subst),
            "positive": set(self._positive),
        }

    def restore_state(self, data: Mapping) -> None:
        """Reinstall state produced by :meth:`snapshot_state`."""
        self._subst = dict(data["subst"])
        self._positive = set(data["positive"])

    def normalize(self, poly: PolyLike) -> Poly:
        """Rewrite ``poly`` to its canonical form under the invariants."""
        current = Poly.coerce(poly)
        for _ in range(_MAX_REWRITE_ROUNDS):
            replaced = current.substitute(self._subst)
            if replaced == current:
                return current
            current = replaced
        return current

    def equal(self, left: PolyLike, right: PolyLike) -> bool:
        """True iff the invariants prove ``left == right``."""
        return self.normalize(left) == self.normalize(right)

    def exact_div(self, dividend: PolyLike, divisor: PolyLike) -> Optional[Poly]:
        """Exact division of normal forms, or ``None`` when not exact."""
        dividend = self.normalize(dividend)
        divisor = self.normalize(divisor)
        if divisor.is_zero():
            return None
        return dividend.exact_div(divisor)

    def divides(self, divisor: PolyLike, dividend: PolyLike) -> bool:
        """True iff ``divisor | dividend`` provably (via exact division)."""
        return self.exact_div(dividend, divisor) is not None

    def is_positive(self, poly: PolyLike) -> bool:
        """Conservative proof of ``poly >= 1`` given every positive variable
        is an integer >= 1."""
        return self.is_nonnegative(Poly.coerce(poly) - 1)

    def is_nonnegative(self, poly: PolyLike) -> bool:
        """Conservative proof of ``poly >= 0`` for all positive-variable
        assignments >= 1.

        Uses monomial dominance: with every variable >= 1, a monomial is >=
        any of its divisors, so a positive term ``c' * m'`` can absorb a
        negative term ``c * m`` whenever ``m | m'``.  Each negative term must
        be fully absorbed by positive terms of dominating monomials.
        """
        normal = self.normalize(poly)
        credits: dict = {}
        deficits: dict = {}
        for mono, coeff in normal.terms.items():
            if any(name not in self._positive for name in mono.powers):
                # unknown-sign variable: only safe if the term is absent
                return False
            if coeff > 0:
                credits[mono] = coeff
            elif coeff < 0:
                deficits[mono] = -coeff
        # absorb high-degree deficits first (they need the rarest credits)
        for mono in sorted(deficits, key=lambda m: -m.degree()):
            needed = deficits[mono]
            # prefer the smallest dominating credit monomial so large ones
            # remain available for other deficits
            dominators = sorted(
                (m for m in credits if credits[m] > 0 and mono.divides(m)),
                key=lambda m: m.degree(),
            )
            for dom in dominators:
                take = min(needed, credits[dom])
                credits[dom] -= take
                needed -= take
                if needed == 0:
                    break
            if needed > 0:
                return False
        return True

    def sample_environment(
        self, base: Optional[Mapping[str, int]] = None
    ) -> Dict[str, int]:
        """Extend a concrete assignment of the free variables to all variables.

        Useful in tests: pick values for the independent variables (e.g.
        ``nrows``) and derive the dependent ones (``np``) from the invariants.
        """
        env: Dict[str, int] = dict(base or {})
        for _ in range(_MAX_REWRITE_ROUNDS):
            progressed = False
            for name, poly in self._subst.items():
                if name in env:
                    continue
                if all(var in env for var in poly.variables()):
                    env[name] = poly.evaluate(env)
                    progressed = True
            if not progressed:
                break
        return env

    def __repr__(self) -> str:
        eqs = ", ".join(f"{name}={poly}" for name, poly in sorted(self._subst.items()))
        return f"InvariantSystem({eqs})"
