"""Shared test/benchmark scaffolding.

``tests/conftest.py`` and ``benchmarks/conftest.py`` both need the same
isolation guarantee: no closure stats, obs recorder state,
flight-recorder provenance, or structured-logging sink may leak from one
test into the next.  The reset logic lives here — once — and the two
conftests re-export :func:`observability_fixture` as their autouse fixture.
"""

from __future__ import annotations

import pytest


def reset_state() -> None:
    """Reset every piece of cross-cutting global state to a clean slate."""
    from repro.cgraph.stats import reset_global_stats
    from repro.faults import plane as fault_plane
    from repro.obs import provenance, slog
    from repro.obs import recorder as obs_recorder

    reset_global_stats()
    obs_recorder.reset()
    provenance.reset()
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
