"""A fault-free ``ChaosClient`` is the client it wraps.

The chaos suite is only evidence about the shipping engine if the wrapper
forwards every hook the engine calls.  A hook the wrapper misses falls
back to :class:`~repro.core.client.ClientAnalysis`'s default, and the
run quietly explores a different state space.  At ``fault_rate=0.0`` the
wrapped run must therefore answer exactly like the bare one: same
confidence, same matches, same number of steps.
"""

from __future__ import annotations

import pytest

from repro.analyses.cartesian import CartesianClient
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core.engine import PCFGEngine
from repro.lang import build_cfg, programs
from tests.core.chaos import ChaosClient

PAPER = [spec.name for spec in programs.all_specs()]


def _answer(cfg, client):
    result = PCFGEngine(cfg, client).run()
    return result.confidence, sorted(result.matches), result.steps


@pytest.mark.parametrize("client_class", [SimpleSymbolicClient, CartesianClient])
@pytest.mark.parametrize("name", PAPER)
def test_fault_free_chaos_client_answers_like_the_bare_client(name, client_class):
    cfg = build_cfg(programs.get(name).parse())
    bare = _answer(cfg, client_class())
    wrapped = _answer(cfg, ChaosClient(client_class(), seed=0, fault_rate=0.0))
    assert wrapped == bare


def test_fault_free_chaos_client_carries_the_client_checkpoint_data():
    cfg = build_cfg(programs.get("transpose_square").parse())
    bare = CartesianClient()
    PCFGEngine(cfg, bare).run()
    wrapped = ChaosClient(CartesianClient(), seed=0, fault_rate=0.0)
    PCFGEngine(cfg, wrapped).run()
    extra = wrapped.checkpoint_extra()
    assert extra is not None
    assert extra == bare.checkpoint_extra()
