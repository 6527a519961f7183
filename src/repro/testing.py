"""Shared test/benchmark scaffolding.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both need the same
isolation guarantee: no obs recorder or context state (the bound
flight-recorder provenance included), fault plane, or structured-logging
sink may leak from one test into the next.  The reset logic lives here —
once — and the two conftests re-export :func:`observability_fixture` as
their autouse fixture.
"""

from __future__ import annotations

import pytest


def reset_state() -> None:
    """Reset every piece of cross-cutting global state to a clean slate."""
    from repro.faults import plane as fault_plane
    from repro.obs import slog
    from repro.obs import recorder as obs_recorder

    obs_recorder.reset()
    fault_plane.reset()
    slog.configure(None)
    obs_recorder.configure_sink(None)


def observability_fixture():
    """An autouse fixture isolating tests from each other's global state.

    Usage (in a conftest)::

        _reset_observability = observability_fixture()
    """

    @pytest.fixture(autouse=True)
    def _reset_observability():
        reset_state()
        yield
        reset_state()

    return _reset_observability
