"""Where the full O(n^3) closure may run, on the paper programs.

The optimized client keeps its constraint graphs closed through its own
updates, so each analysis closes from scratch once: its initial state,
built edge by edge, on a graph of at most two variables.  A change that
puts the full closure back on the hot path fails the pinned count.  The
``naive_closure`` ablation, built to reproduce the paper prototype's
profile, must keep its flag on every graph it reaches, joins and
widenings included.
"""

from repro import analyze, obs, programs
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.cgraph.constraint_graph import ConstraintGraph
from repro.core.driver import analyze_with_fallback


def test_paper_programs_run_one_small_full_closure_each():
    names = programs.names()
    assert len(names) == 18
    with obs.recording() as recorder:
        for name in names:
            analyze_with_fallback(programs.get(name).parse())
    assert recorder.counters["cgraph.closure.full.calls"] == len(names)
    assert recorder.histograms["cgraph.closure.full.vars"].max <= 2


def test_naive_closure_reaches_every_graph(monkeypatch):
    created = []
    init = ConstraintGraph.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(ConstraintGraph, "__init__", recording_init)
    client = SimpleSymbolicClient(naive_closure=True)
    result, _, _ = analyze(programs.get("broadcast_fanout"), client)
    assert not result.gave_up
    assert len(created) > 1
    assert all(graph.naive_closure for graph in created)
