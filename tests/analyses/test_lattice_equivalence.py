"""The optimized lattice is observably identical to the pre-overhaul one.

Every registered program is analyzed twice with the client its spec
names (``CartesianClient`` for ``client="cartesian"``, else
``SimpleSymbolicClient``): once with the full PR-2 machinery (COW graphs,
shared equality index, priority worklist, interned states) and once
with every optimization disabled (``naive_copy`` client, interning off).
The observable analysis outcome — convergence, the match relation, and
the blocked/vacuous diagnostics — must be identical.
"""

import pytest

from repro.analyses.cartesian import CartesianClient
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core.engine import PCFGEngine
from repro.lang import build_cfg, programs


def _observe(name: str, optimized: bool):
    spec = programs.get(name)
    client_class = CartesianClient if spec.client == "cartesian" else SimpleSymbolicClient
    cfg = build_cfg(spec.parse())
    client = client_class(naive_copy=not optimized)
    result = PCFGEngine(cfg, client, intern_states=optimized).run()
    return {
        "gave_up": result.gave_up,
        "matches": frozenset(result.matches),
        "vacuous_blocks": tuple(result.vacuous_blocks),
        "final_states": len(result.final_states),
    }


@pytest.mark.parametrize("name", programs.names())
def test_optimized_lattice_matches_naive(name):
    assert _observe(name, optimized=True) == _observe(name, optimized=False)
