"""Symbolic process-set abstraction.

Section VII-B of the paper represents sets of processes as bounded ranges
``[lb..ub]``.  The paper stores each bound as the *set of expressions* it is
provably equal to (the bound ``1`` is also ``i`` when the state analysis
knows ``i == 1``), so that loop widening keeps the forms that survive an
iteration.  Here each bound of a stored set is a variable of the client's
constraint graph instead: the graph already holds every equality the set of
expressions would list, its join keeps what both states know about a bound,
and its widening is the one that terminates the loop (DESIGN §7).

All order comparisons between bounds are delegated to an :class:`Order`
oracle — in practice the client analysis' constraint graph.
"""

from repro.procset.interval import Order, ProcSet, SymRange, canonical

__all__ = ["SymRange", "ProcSet", "Order", "canonical"]
