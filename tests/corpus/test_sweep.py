"""Differential-sweep harness tests: oracle, fault injection, shrinking,
manifest drift detection, and the JSONL report format."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.corpus.generator import generate
from repro.corpus.sweep import (
    SMOKE_SEED,
    _inject_fault,
    check_program,
    file_regression,
    load_manifest,
    make_reproducer,
    run_one,
    run_sweep,
    shrink_divergence,
    write_manifest,
)
from repro.obs import recorder as obs

MANIFEST = Path(__file__).resolve().parents[2] / "corpus" / "manifest_smoke.json"
SRC = Path(__file__).resolve().parents[2] / "src"


def first_communicating_seed(start: int = 0) -> int:
    """A seed whose program actually claims at least one match edge."""
    for seed in range(start, start + 200):
        record = run_one(seed)
        if record.outcome in ("exact", "partial") and record.claimed_edges > 0:
            return seed
    raise AssertionError("no communicating program in 200 seeds")


class TestManifest:
    def test_smoke_manifest_loads_drift_free(self):
        programs = load_manifest(MANIFEST)
        assert len(programs) == 50
        manifest = json.loads(MANIFEST.read_text())
        assert manifest["base_seed"] == SMOKE_SEED

    def test_drift_is_detected(self, tmp_path):
        path = tmp_path / "manifest.json"
        write_manifest(path, base_seed=99, count=3)
        tampered = json.loads(path.read_text())
        tampered["programs"][1]["source_sha256"] = "0" * 64
        path.write_text(json.dumps(tampered))
        with pytest.raises(ValueError, match="drift"):
            load_manifest(path)

    def test_manifest_subset_sweeps_clean(self):
        for generated in load_manifest(MANIFEST)[:6]:
            record = run_one(generated.seed, generated=generated)
            assert record.outcome in ("exact", "partial", "gave_up"), (
                f"{generated.corpus_id}: {record.outcome} {record.error}"
            )


class TestFaultInjectionAndShrinking:
    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            _inject_fault({(1, 2)}, "no-such-fault")

    def test_injected_fault_diverges_and_minimizes(self, tmp_path):
        seed = first_communicating_seed()
        record = run_one(seed, fault="drop-match")
        assert record.outcome == "divergent"
        assert record.divergences

        generated = generate(seed)
        reproduces = make_reproducer(generated.np_values, fault="drop-match")
        program = generated.parse()
        minimized = shrink_divergence(program, reproduces)
        assert sum(1 for _ in minimized.walk()) <= sum(1 for _ in program.walk())
        # the minimized program must reproduce the divergence in isolation
        assert reproduces(minimized)

        filed = file_regression(record, minimized, tmp_path)
        assert filed.exists()
        meta = json.loads(filed.with_suffix(".json").read_text())
        assert meta["corpus_id"] == record.corpus_id
        assert meta["fault"] == "drop-match"

    def test_fault_free_check_has_no_divergence(self):
        seed = first_communicating_seed()
        generated = generate(seed)
        _report, claimed, _dyn, _statuses, divergences = check_program(
            generated.parse(), generated.np_values
        )
        assert claimed
        assert divergences == []


class TestSweepDriver:
    def test_jsonl_report_and_summary(self, tmp_path):
        report = tmp_path / "report.jsonl"
        seeds = [g.seed for g in load_manifest(MANIFEST)[:4]]
        summary = run_sweep(seeds, tier="smoke", base_seed=SMOKE_SEED,
                            report_path=report)
        assert summary.total == 4
        assert summary.failures == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 5  # one record per program + the summary line
        for line in lines[:-1]:
            record = json.loads(line)
            assert record["corpus_id"].startswith("mplg")
            assert record["outcome"] in ("exact", "partial", "gave_up")
        assert "summary" in json.loads(lines[-1])

    def test_divergence_fails_and_files_regression(self, tmp_path):
        seed = first_communicating_seed()
        summary = run_sweep(
            [seed],
            tier="pr",
            base_seed=seed,
            fault="drop-match",
            shrink=True,
            regressions_dir=tmp_path / "regressions",
        )
        assert summary.failures == 1
        assert summary.divergent_ids
        assert summary.regression_files
        assert all(Path(f).exists() for f in summary.regression_files)

    def test_pool_workers_ship_their_counters_home(self):
        """The parallel sweep must not lose obs counters to the fork: the
        parent recorder sees the same engine counts at any job count."""
        seeds = [g.seed for g in load_manifest(MANIFEST)[:4]]
        with obs.recording() as recorder:
            serial = run_sweep(seeds, tier="smoke", base_seed=SMOKE_SEED)
        serial_steps = recorder.counters.get("engine.steps", 0)
        assert serial_steps > 0
        with obs.recording() as recorder:
            pooled = run_sweep(seeds, tier="smoke", base_seed=SMOKE_SEED, jobs=2)
        assert pooled.counts == serial.counts
        assert recorder.counters.get("engine.steps", 0) == serial_steps
        assert recorder.counters.get("sweep.programs", 0) == len(seeds)

    def test_pool_counters_skipped_when_not_recording(self):
        seeds = [g.seed for g in load_manifest(MANIFEST)[:2]]

        captured = []
        summary = run_sweep(
            seeds, tier="smoke", base_seed=SMOKE_SEED, jobs=2,
            on_record=captured.append,
        )
        assert summary.total == 2
        # observability disabled: nothing is captured, nothing merged home,
        # and the JSONL records carry no counter payload
        assert not obs.enabled()
        assert all(
            "counters" not in json.loads(record.to_json()) for record in captured
        )

    def test_killed_pool_worker_neither_hangs_nor_changes_answers(self):
        """SIGKILL one forked sweep worker: the sweep must still finish,
        with the serial records in input order.  Runs in a subprocess
        under a timeout, so a pool that never notices the lost task fails
        the test instead of hanging the suite."""
        script = textwrap.dedent(
            """
            import json, os, signal, sys
            from repro.corpus import sweep

            seeds = [int(arg) for arg in sys.argv[1:]]
            parent = os.getpid()
            generate = sweep.generate

            def generate_or_die(seed):
                if seed == seeds[2] and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                return generate(seed)

            def answers(jobs):
                records = []
                sweep.run_sweep(seeds, jobs=jobs, on_record=records.append)
                return [
                    [r.corpus_id, r.outcome, r.rung, r.claimed_edges,
                     r.diagnostic_codes]
                    for r in records
                ]

            serial = answers(1)
            sweep.generate = generate_or_die
            print(json.dumps({"serial": serial, "pooled": answers(2)}))
            """
        )
        seeds = [g.seed for g in load_manifest(MANIFEST)[:6]]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        child = subprocess.Popen(
            [sys.executable, "-c", script, *map(str, seeds)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)  # the pool's workers too
            child.communicate()
            pytest.fail("run_sweep hung after a pool worker was SIGKILLed")
        assert child.returncode == 0, err
        result = json.loads(out)
        assert len(result["serial"]) == len(seeds)
        assert result["pooled"] == result["serial"]
