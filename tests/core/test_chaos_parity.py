"""A fault-free ``ChaosClient`` is the client it wraps.

The chaos suite is only evidence about the shipping engine if the wrapper
forwards every hook the engine calls.  A hook the wrapper misses falls
back to :class:`~repro.core.client.ClientAnalysis`'s default, and the
run quietly explores a different state space.  At ``fault_rate=0.0`` the
wrapped run must therefore answer exactly like the bare one: same
confidence, same matches, same number of steps.
"""

from __future__ import annotations

import inspect

import pytest

from repro.analyses.cartesian import CartesianClient
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core.client import ClientAnalysis
from repro.core.engine import PCFGEngine
from repro.lang import build_cfg, programs
from tests.core.chaos import FAULTABLE, ChaosClient, ChaosError, CorruptedState

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


#: every public method of the client protocol
HOOKS = sorted(
    name
    for name, member in vars(ClientAnalysis).items()
    if callable(member) and not name.startswith("_")
)


class _Inner(ClientAnalysis):
    """Records each hook that reaches it."""

    def __init__(self):
        self.calls = []

    def __getattribute__(self, name):
        if name in HOOKS:
            return lambda *args, **kwargs: object.__getattribute__(
                self, "calls"
            ).append(name)
        return object.__getattribute__(self, name)


@pytest.mark.parametrize("name", HOOKS)
def test_every_client_hook_draws_a_fault_or_reaches_the_inner_client(name):
    arity = len(inspect.signature(getattr(ClientAnalysis, name)).parameters) - 1
    args = (None,) * arity
    inner = _Inner()
    getattr(ChaosClient(inner, seed=0, fault_rate=0.0), name)(*args)
    assert inner.calls == [name]
    # at fault_rate=1.0 a faultable hook faults before the inner client
    # runs; any other hook still reaches it and draws nothing
    inner = _Inner()
    chaos = ChaosClient(inner, seed=0, fault_rate=1.0)
    if name in FAULTABLE:
        try:
            assert isinstance(getattr(chaos, name)(*args), CorruptedState)
        except ChaosError:
            pass
        assert inner.calls == [] and [cb for cb, _ in chaos.log] == [name]
    else:
        getattr(chaos, name)(*args)
        assert inner.calls == [name] and chaos.log == []
