"""Shared helpers for the experiment benchmarks.

Each ``bench_*.py`` file regenerates one paper artifact (figure or table):
it prints the rows/series the paper reports (through ``emit``, which writes
to the real terminal even under pytest capture) and registers a
pytest-benchmark measurement of the underlying computation.
"""

from __future__ import annotations

import pytest

from repro.testing import observability_fixture

#: isolate benchmarks from each other's closure stats and
#: recorder state (shared with tests/)
_reset_observability = observability_fixture()


@pytest.fixture
def emit(capsys):
    """Print experiment rows to the real stdout, bypassing capture."""

    def _emit(*lines: str) -> None:
        with capsys.disabled():
            for line in lines:
                print(line)

    return _emit


def header(title: str) -> str:
    bar = "=" * len(title)
    return f"\n{bar}\n{title}\n{bar}"
