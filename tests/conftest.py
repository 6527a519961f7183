"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.lang import build_cfg, programs
from repro.testing import observability_fixture

#: isolate tests from each other's closure stats, obs recorder,
#: flight recorder, and structured-logging state (shared with benchmarks/)
_reset_observability = observability_fixture()


#: inputs consumed by ``input()`` for parameterized corpus programs, keyed by
#: program name; value is a callable of the process count
CORPUS_INPUTS = {
    "transpose_square": lambda np_: _square_inputs(np_),
    "transpose_rect": lambda np_: _rect_inputs(np_),
}


def _square_inputs(num_procs: int):
    root = int(round(num_procs ** 0.5))
    assert root * root == num_procs, "square transpose needs a square np"
    return [root, root]


def _rect_inputs(num_procs: int):
    # np = nrows * ncols with ncols = 2 * nrows  =>  np = 2 * nrows^2
    nrows = int(round((num_procs / 2) ** 0.5))
    assert 2 * nrows * nrows == num_procs, "rect transpose needs np = 2*k^2"
    return [nrows, 2 * nrows]


def corpus_inputs(name: str, num_procs: int):
    """Input list for a corpus program at a process count (or None)."""
    maker = CORPUS_INPUTS.get(name)
    return maker(num_procs) if maker else None


@pytest.fixture
def pingpong_cfg():
    """CFG of the Fig. 2 ping-pong program."""
    return build_cfg(programs.get("pingpong").parse())


@pytest.fixture
def exchange_cfg():
    """CFG of the Fig. 1/5 exchange-with-root program."""
    return build_cfg(programs.get("exchange_with_root").parse())
