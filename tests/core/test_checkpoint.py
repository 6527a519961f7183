"""Crash-safe checkpoint/resume (`repro.core.checkpoint` + engine wiring).

Three layers of guarantees:

1. **Codec round-trips** (Hypothesis): every registered domain codec —
   constraint graphs, HSMs, interval process sets — decodes back to a
   semantically identical object, and re-encoding is canonical (stable).
2. **Resume identity**: killing a run at *every* possible step boundary
   and resuming from the budget-trip snapshot converges to a result
   byte-identical to the uninterrupted run (topology, constants, step
   count, confidence) on the Fig. 2 ping-pong and NAS-CG transpose
   corpus, and to the same diagnostics and give-up summary on generated
   programs whose runs degrade to a local ``T`` and keep draining.
3. **Corruption safety**: a truncated, tampered, version-skewed, or
   wrong-program snapshot never raises — the engine records a
   ``CHECKPOINT_CORRUPT`` / ``CHECKPOINT_MISMATCH`` diagnostic, cold
   starts, and still reaches ``exact``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyses.cartesian import CartesianClient, analyze_cartesian
from repro.analyses.constprop import propagate_constants
from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.cgraph.constraint_graph import ConstraintGraph
from repro.core import diagnostics
from repro.core.checkpoint import (
    FORMAT,
    Checkpointer,
    Snapshot,
    SnapshotError,
    decode,
    encode,
)
from repro.core.driver import analyze_with_fallback, escalate
from repro.core.engine import EngineLimits, PCFGEngine
from repro.expr.linear import LinearExpr
from repro.expr.poly import Poly
from repro.hsm.hsm import HSM
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.procset.interval import ProcSet, SymRange

# -- helpers ------------------------------------------------------------------


def _cfg(name):
    return build_cfg(programs.get(name).parse())


def _run(name, client_factory, limits=None, resume=None, checkpointer=None):
    engine = PCFGEngine(
        _cfg(name), client_factory(), limits, checkpointer=checkpointer
    )
    return engine.run(resume=resume)


def _identity(result):
    """The observable fields a resumed run must reproduce exactly."""
    return (
        result.steps,
        result.confidence,
        result.topology.describe(),
        sorted(result.matches),
        len(result.final_states),
        sorted(result.explored.nodes),
    )


# -- codec round-trips (Hypothesis) -------------------------------------------

NAMES = st.sampled_from(["x", "y", "np", "nrows", "0::v", "1::tmp"])

linexprs = st.builds(
    LinearExpr,
    st.integers(min_value=-8, max_value=8),
    st.dictionaries(NAMES, st.integers(min_value=-3, max_value=3), max_size=2),
)

symranges = st.builds(SymRange, linexprs, linexprs)

procsets = st.builds(
    lambda ranges: ProcSet(ranges), st.lists(symranges, min_size=0, max_size=3)
)

small_polys = st.one_of(
    st.integers(min_value=0, max_value=6).map(Poly.const),
    st.sampled_from(["np", "nrows", "ncols"]).map(Poly.var),
    st.builds(lambda a, b: Poly.var(a) * Poly.var(b), NAMES, NAMES),
)

hsms = st.recursive(
    st.builds(HSM, small_polys, small_polys, small_polys),
    lambda children: st.builds(HSM, children, small_polys, small_polys),
    max_leaves=3,
)


@st.composite
def cgraphs(draw):
    graph = ConstraintGraph()
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    for name in names:
        graph.add_var(name)
    for x, y, c in draw(
        st.lists(
            st.tuples(
                st.sampled_from(names),
                st.sampled_from(names),
                st.integers(min_value=-5, max_value=5),
            ),
            max_size=6,
        )
    ):
        if x != y:
            graph.add_diff(x, y, c)
    for name, c in draw(
        st.lists(
            st.tuples(st.sampled_from(names), st.integers(min_value=-4, max_value=4)),
            max_size=2,
        )
    ):
        graph.set_const(name, c)
    return graph


def _roundtrip_stable(value):
    """decode inverts encode, and re-encoding is canonical."""
    encoded = encode(value)
    json.dumps(encoded)  # must already be plain JSON data
    decoded = decode(encoded)
    assert type(decoded) is type(value)
    assert encode(decoded) == encoded
    return decoded


@settings(max_examples=60, deadline=None)
@given(expr=linexprs)
def test_linexpr_codec_roundtrip(expr):
    assert _roundtrip_stable(expr) == expr


@settings(max_examples=60, deadline=None)
@given(pset=procsets)
def test_interval_procset_codec_roundtrip(pset):
    decoded = _roundtrip_stable(pset)
    assert list(decoded.ranges) == list(pset.ranges)


@settings(max_examples=60, deadline=None)
@given(h=hsms)
def test_hsm_codec_roundtrip(h):
    assert _roundtrip_stable(h) == h


@settings(max_examples=60, deadline=None)
@given(graph=cgraphs())
def test_constraint_graph_codec_roundtrip(graph):
    decoded = _roundtrip_stable(graph)
    assert decoded.to_state() == graph.to_state()
    # semantic identity, not just representational: same canonical closure
    assert decoded.fingerprint() == graph.fingerprint()


# -- resume identity ----------------------------------------------------------

CORPUS_CASES = [
    ("pingpong", SimpleSymbolicClient),  # Fig. 2
    ("transpose_square", CartesianClient),  # NAS-CG transpose
    ("transpose_rect", CartesianClient),
    ("exchange_with_root", CartesianClient),  # Fig. 1/5
]


@pytest.mark.parametrize("name,client_factory", CORPUS_CASES)
def test_kill_at_every_step_then_resume_is_identical(name, client_factory):
    clean = _run(name, client_factory)
    assert clean.confidence == diagnostics.EXACT
    for k in range(1, clean.steps + 1):
        tripped = _run(name, client_factory, EngineLimits(max_steps=k))
        if k >= clean.steps:
            assert tripped.snapshot is None  # completed: nothing tripped
            continue
        assert tripped.snapshot is not None, f"k={k}: no snapshot captured"
        assert tripped.snapshot.steps == k
        resumed = _run(name, client_factory, resume=tripped.snapshot)
        assert resumed.resumed_from.startswith("snapshot(")
        assert _identity(resumed) == _identity(clean), f"killed at step {k}"


def _degraded_identity(result):
    """What a resumed run of a degraded (non-exact) run must reproduce."""
    return (
        result.confidence,
        sorted(result.matches),
        [
            (d.code, d.message, d.node_key, d.blocked)
            for d in result.diagnostics
        ],
        result.steps,
        result.give_up_reason,
        sorted(result.blocked_at_giveup),
        sorted(result.top_nodes),
    )


#: generated programs whose clean Cartesian run degrades (a local ``T``)
#: and keeps draining, so a trip can land right after a degraded iteration
DEGRADED_CORPUS_IDS = ["mplg1-c526ffdb", "mplg1-47091e57", "mplg1-dbf3eb4e"]


@pytest.mark.parametrize("corpus_id", DEGRADED_CORPUS_IDS)
def test_kill_at_every_step_of_a_degraded_run_then_resume_is_identical(corpus_id):
    from repro.corpus.generator import generate_from_id

    cfg = build_cfg(generate_from_id(corpus_id).parse())

    def run(limits=None, resume=None):
        return PCFGEngine(cfg, CartesianClient(), limits).run(resume=resume)

    clean = run()
    assert clean.confidence != diagnostics.EXACT and clean.top_nodes
    expected = _degraded_identity(clean)
    for k in range(1, clean.steps):
        tripped = run(EngineLimits(max_steps=k))
        assert tripped.snapshot is not None, f"k={k}: no snapshot captured"
        resumed = run(resume=tripped.snapshot)
        assert _degraded_identity(resumed) == expected, f"killed at step {k}"


def test_constants_report_identical_after_resume():
    program = programs.get("pingpong").parse()
    clean_report, clean_result, _ = propagate_constants(program)
    tripped_report, tripped_result, _ = propagate_constants(
        program, limits=EngineLimits(max_steps=4)
    )
    assert tripped_result.snapshot is not None
    # the interrupted run has not proven the Fig. 2 constants yet
    assert tripped_report.parallel != clean_report.parallel
    resumed_report, resumed_result, _ = propagate_constants(
        program, resume=tripped_result.snapshot
    )
    assert resumed_result.confidence == clean_result.confidence
    assert resumed_report.parallel == clean_report.parallel
    assert resumed_report.sequential == clean_report.sequential


def test_deadline_trip_snapshots_and_resumes():
    clean = _run("pingpong", SimpleSymbolicClient)
    tripped = _run(
        "pingpong", SimpleSymbolicClient, EngineLimits(deadline_sec=0.0)
    )
    assert tripped.confidence == diagnostics.PARTIAL
    assert any(
        d.code == diagnostics.BUDGET_DEADLINE for d in tripped.diagnostics
    )
    assert tripped.snapshot is not None
    assert tripped.snapshot.steps < clean.steps
    resumed = _run("pingpong", SimpleSymbolicClient, resume=tripped.snapshot)
    assert _identity(resumed) == _identity(clean)


def test_periodic_checkpoints_are_resumable(tmp_path):
    clean = _run("pingpong", SimpleSymbolicClient)
    ckpt = Checkpointer(tmp_path, name="pingpong", every_steps=3)
    full = _run("pingpong", SimpleSymbolicClient, checkpointer=ckpt)
    assert _identity(full) == _identity(clean)  # checkpointing is transparent
    assert ckpt.path.exists()
    snap = ckpt.load()
    assert 0 < snap.steps < clean.steps  # a mid-run boundary, not the end
    resumed = _run("pingpong", SimpleSymbolicClient, resume=ckpt.path)
    assert resumed.resumed_from == f"checkpoint:{ckpt.path}"
    assert _identity(resumed) == _identity(clean)


def test_budget_trip_writes_checkpoint_file(tmp_path):
    ckpt = Checkpointer(tmp_path, name="pp")
    tripped = _run(
        "pingpong", SimpleSymbolicClient, EngineLimits(max_steps=4),
        checkpointer=ckpt,
    )
    assert tripped.checkpoint_path == str(ckpt.path)
    assert ckpt.path.exists()
    clean = _run("pingpong", SimpleSymbolicClient)
    resumed = _run("pingpong", SimpleSymbolicClient, resume=ckpt.path)
    assert _identity(resumed) == _identity(clean)


def test_atexit_flush_mid_iteration_is_consistent(tmp_path):
    """An interpreter-exit flush fired *inside* a client callback rolls the
    in-flight iteration back, so the snapshot resumes to the clean result."""
    ckpt = Checkpointer(tmp_path, name="flush")

    class Flushing(SimpleSymbolicClient):
        def __init__(self):
            super().__init__()
            self.engine = None
            self.fired = False

        def transfer(self, state, pos, node):
            if self.engine is not None and not self.fired:
                self.fired = True
                self.engine._atexit_flush()  # simulate dying mid-iteration
            return super().transfer(state, pos, node)

    client = Flushing()
    engine = PCFGEngine(_cfg("pingpong"), client, checkpointer=ckpt)
    client.engine = engine
    full = engine.run()
    assert client.fired
    assert full.confidence == diagnostics.EXACT
    assert ckpt.path.exists()
    clean = _run("pingpong", Flushing)
    resumed = _run("pingpong", Flushing, resume=ckpt.path)
    assert _identity(resumed) == _identity(clean)


# -- corruption and mismatch safety -------------------------------------------


def _tripped_checkpoint(tmp_path, name="pingpong", client=SimpleSymbolicClient):
    ckpt = Checkpointer(tmp_path, name=name)
    _run(name, client, EngineLimits(max_steps=4), checkpointer=ckpt)
    assert ckpt.path.exists()
    return ckpt


def _assert_cold_start_with(result, code):
    assert result.confidence == diagnostics.EXACT  # cold start still converges
    assert not result.resumed_from
    rejections = [d for d in result.diagnostics if d.code == code]
    assert rejections and all(
        d.severity == diagnostics.INFO for d in rejections
    )


def test_snapshot_json_roundtrip(tmp_path):
    ckpt = _tripped_checkpoint(tmp_path)
    snap = ckpt.load()
    again = Snapshot.from_json(snap.to_json())
    assert again.payload == snap.payload
    assert snap.cfg_fingerprint and snap.client_name == "SimpleSymbolicClient"


def test_tampered_payload_is_rejected(tmp_path):
    ckpt = _tripped_checkpoint(tmp_path)
    text = ckpt.path.read_text()
    tampered = text.replace('"steps"', '"stepz"', 1)
    assert tampered != text
    ckpt.path.write_text(tampered)
    with pytest.raises(SnapshotError) as excinfo:
        ckpt.load()
    assert excinfo.value.code == diagnostics.CHECKPOINT_CORRUPT
    result = _run("pingpong", SimpleSymbolicClient, resume=ckpt.path)
    _assert_cold_start_with(result, diagnostics.CHECKPOINT_CORRUPT)


def test_a_checksummed_payload_that_holds_no_run_is_rejected(tmp_path):
    ckpt = _tripped_checkpoint(tmp_path)
    snap = ckpt.load()
    snap.payload["run"] = encode(("not", "a", "run"))
    ckpt.path.write_text(snap.to_json())  # the checksum covers the edit
    result = _run("pingpong", SimpleSymbolicClient, resume=ckpt.path)
    _assert_cold_start_with(result, diagnostics.CHECKPOINT_CORRUPT)


def test_truncated_snapshot_degrades_to_cold_start(tmp_path):
    ckpt = _tripped_checkpoint(tmp_path)
    ckpt.path.write_text(ckpt.path.read_text()[:40])
    result = _run("pingpong", SimpleSymbolicClient, resume=ckpt.path)
    _assert_cold_start_with(result, diagnostics.CHECKPOINT_CORRUPT)


def test_missing_snapshot_degrades_to_cold_start(tmp_path):
    result = _run(
        "pingpong", SimpleSymbolicClient, resume=tmp_path / "nope.ckpt.json"
    )
    _assert_cold_start_with(result, diagnostics.CHECKPOINT_CORRUPT)


def test_version_skew_degrades_to_cold_start(tmp_path):
    ckpt = _tripped_checkpoint(tmp_path)
    document = json.loads(ckpt.path.read_text())
    assert document["format"] == FORMAT
    document["format"] = "repro-ckpt/0"
    ckpt.path.write_text(json.dumps(document))
    result = _run("pingpong", SimpleSymbolicClient, resume=ckpt.path)
    _assert_cold_start_with(result, diagnostics.CHECKPOINT_MISMATCH)


def test_a_first_format_snapshot_is_rejected_and_the_run_cold_starts(tmp_path):
    # repro-ckpt/1 stored each set bound as a list of equal expressions and
    # repro-ckpt/2 listed the engine's state field by field; neither payload
    # means anything to this engine, so the run starts over
    assert FORMAT == "repro-ckpt/3"
    cold = _run("pingpong", SimpleSymbolicClient)
    for old_format in ("repro-ckpt/1", "repro-ckpt/2"):
        ckpt = _tripped_checkpoint(tmp_path)
        document = json.loads(ckpt.path.read_text())
        document["format"] = old_format
        ckpt.path.write_text(json.dumps(document))
        result = _run("pingpong", SimpleSymbolicClient, resume=ckpt.path)
        _assert_cold_start_with(result, diagnostics.CHECKPOINT_MISMATCH)
        assert sorted(result.matches) == sorted(cold.matches)
        assert result.steps == cold.steps


def test_wrong_program_snapshot_degrades_to_cold_start(tmp_path):
    ckpt = _tripped_checkpoint(tmp_path, name="pingpong")
    result = _run("shift_right", SimpleSymbolicClient, resume=ckpt.path)
    _assert_cold_start_with(result, diagnostics.CHECKPOINT_MISMATCH)


def test_wrong_client_snapshot_degrades_to_cold_start(tmp_path):
    ckpt = _tripped_checkpoint(tmp_path)  # SimpleSymbolicClient snapshot
    result = _run("pingpong", CartesianClient, resume=ckpt.path)
    _assert_cold_start_with(result, diagnostics.CHECKPOINT_MISMATCH)


# -- fallback-ladder warm start -----------------------------------------------


def test_fallback_ladder_warm_starts_escalated_rung():
    spec = programs.get("exchange_with_root")
    report = analyze_with_fallback(spec, limits=EngineLimits(max_steps=18))
    assert report.rung_name == "cartesian-escalated"
    assert not report.rungs[0].resumed_from  # first rung is always cold
    assert report.rungs[1].resumed_from.startswith("snapshot(")
    assert "resumed from snapshot(" in report.rungs[1].describe()
    assert report.result.confidence == diagnostics.EXACT
    # the warm-started rung answers exactly what a cold escalated run does
    cold, _, _ = analyze_cartesian(
        spec.parse(), limits=escalate(EngineLimits(max_steps=18))
    )
    assert report.result.topology.describe() == cold.topology.describe()


def test_fallback_does_not_warm_start_from_poisoned_runs():
    """Only pure budget trips carry forward: a rung degraded by anything
    else (here: an unjoinable give-up) must cold-start its successor."""
    from repro.core.driver import _carryable_snapshot

    tripped = _run("pingpong", SimpleSymbolicClient, EngineLimits(max_steps=4))
    assert _carryable_snapshot(tripped) is tripped.snapshot is not None
    poisoned = _run(
        "pingpong", SimpleSymbolicClient, EngineLimits(max_steps=4)
    )
    poisoned.diagnostics.append(
        diagnostics.Diagnostic(
            code=diagnostics.CLIENT_FAULT, message="injected"
        )
    )
    assert _carryable_snapshot(poisoned) is None


# -- CLI ----------------------------------------------------------------------


def test_cli_resume_constants_byte_identical(tmp_path, capsys):
    from repro.cli import main

    assert main(["pingpong", "--constants"]) == 0
    clean_out = capsys.readouterr().out
    main(
        ["pingpong", "--constants", "--checkpoint-dir", str(tmp_path),
         "--max-steps", "4"]
    )
    capsys.readouterr()
    assert main(
        ["resume", "pingpong", "--constants", "--checkpoint-dir", str(tmp_path)]
    ) == 0
    assert capsys.readouterr().out == clean_out


def test_cli_resume_after_deadline_trip_byte_identical(tmp_path, capsys):
    from repro.cli import main

    assert main(["pingpong", "--no-validate"]) == 0
    clean_out = capsys.readouterr().out
    rc = main(
        ["pingpong", "--no-validate", "--deadline", "0",
         "--checkpoint-dir", str(tmp_path)]
    )
    assert rc == 1  # deadline tripped: partial
    capsys.readouterr()
    assert main(
        ["resume", "pingpong", "--no-validate", "--checkpoint-dir", str(tmp_path)]
    ) == 0
    assert capsys.readouterr().out == clean_out


def test_cli_resume_without_snapshot_is_a_clean_cold_start(tmp_path, capsys):
    from repro.cli import main

    assert main(["pingpong", "--no-validate"]) == 0
    clean_out = capsys.readouterr().out
    assert main(
        ["resume", "pingpong", "--no-validate", "--checkpoint-dir", str(tmp_path)]
    ) == 0
    assert capsys.readouterr().out == clean_out


# -- checkpoint I/O hardening (atomic_write_text + CHECKPOINT_IO) -------------


class TestAtomicWriteText:
    def test_writes_content(self, tmp_path):
        from repro.core.checkpoint import atomic_write_text

        target = tmp_path / "out.json"
        atomic_write_text(target, '{"a": 1}')
        assert target.read_text() == '{"a": 1}'

    def test_overwrite_replaces_whole_content(self, tmp_path):
        from repro.core.checkpoint import atomic_write_text

        target = tmp_path / "out.json"
        atomic_write_text(target, "long " * 100)
        atomic_write_text(target, "short")
        assert target.read_text() == "short"

    def test_leaves_no_temp_files(self, tmp_path):
        from repro.core.checkpoint import atomic_write_text

        atomic_write_text(tmp_path / "a.json", "x")
        atomic_write_text(tmp_path / "b.json", "y")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    def test_temp_lives_next_to_target(self, tmp_path, monkeypatch):
        # the tmp file must be created in the target's directory (same
        # filesystem), or os.replace could face a cross-device move
        from pathlib import Path

        import repro.core.checkpoint as ckpt

        seen = {}
        real_replace = ckpt.os.replace

        def spy(src, dst):
            seen["src"], seen["dst"] = str(src), str(dst)
            return real_replace(src, dst)

        monkeypatch.setattr(ckpt.os, "replace", spy)
        ckpt.atomic_write_text(tmp_path / "c.json", "z")
        assert Path(seen["src"]).parent == Path(seen["dst"]).parent


class TestCheckpointIOFailures:
    def _blocked_checkpointer(self, tmp_path):
        # the "directory" is a regular file, so mkdir(exist_ok=True)
        # raises OSError — a deterministic I/O failure even when running
        # as root (where permission bits would not stop the write)
        blocked = tmp_path / "blocked"
        blocked.write_text("I am a file, not a directory")
        return Checkpointer(blocked, name="analysis")

    def test_unwritable_directory_raises_snapshot_error(self, tmp_path):
        checkpointer = self._blocked_checkpointer(tmp_path)
        snapshot = Snapshot(payload={"format": FORMAT, "cfg": "", "client": ""})
        with pytest.raises(SnapshotError) as excinfo:
            checkpointer.write(snapshot)
        assert excinfo.value.code == diagnostics.CHECKPOINT_IO

    def test_engine_survives_failed_checkpoint_write(self, tmp_path):
        checkpointer = self._blocked_checkpointer(tmp_path)
        checkpointer.every_steps = 2
        result = _run(
            "pingpong", CartesianClient,
            EngineLimits(), checkpointer=checkpointer,
        )
        codes = [diag.code for diag in result.diagnostics]
        assert diagnostics.CHECKPOINT_IO in codes
        # the INFO diagnostic must not degrade the analysis itself
        assert result.confidence == diagnostics.EXACT
        assert result.checkpoint_path is None

    def test_io_diagnostic_is_deduplicated_per_run(self, tmp_path):
        checkpointer = self._blocked_checkpointer(tmp_path)
        checkpointer.every_steps = 1  # fail the write at every step
        result = _run(
            "pingpong", CartesianClient,
            EngineLimits(), checkpointer=checkpointer,
        )
        codes = [diag.code for diag in result.diagnostics]
        assert codes.count(diagnostics.CHECKPOINT_IO) == 1

    def test_io_failure_is_counted(self, tmp_path):
        from repro.obs import recorder as obs

        checkpointer = self._blocked_checkpointer(tmp_path)
        checkpointer.every_steps = 2
        with obs.recording() as recorder:
            _run(
                "pingpong", CartesianClient,
                EngineLimits(), checkpointer=checkpointer,
            )
        assert recorder.counters.get("engine.ckpt.io_errors", 0) >= 1
        assert recorder.counters.get("engine.ckpt.write_errors", 0) >= 1
