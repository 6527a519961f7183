"""CLI driver tests."""

import json

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "exchange_with_root" in out

    def test_analyze_corpus_program(self, capsys):
        assert main(["exchange_with_root", "--np", "6"]) == 0
        out = capsys.readouterr().out
        assert "exchange-with-root" in out
        assert "MPI_Bcast" in out

    def test_analyze_file(self, tmp_path, capsys):
        source = tmp_path / "prog.mpl"
        source.write_text(
            "if id == 0 then send 1 -> 1 elif id == 1 then receive y <- 0 "
            "else skip end"
        )
        assert main([str(source), "--np", "4"]) == 0
        out = capsys.readouterr().out
        assert "communication topology" in out

    def test_bugs_flag(self, capsys):
        assert main(["message_leak", "--bugs"]) == 1
        assert "message leak" in capsys.readouterr().out

    def test_bugs_clean(self, capsys):
        assert main(["pingpong", "--bugs"]) == 0

    def test_constants_flag(self, capsys):
        assert main(["pingpong", "--constants"]) == 0
        out = capsys.readouterr().out
        assert "parallel=5" in out

    def test_gave_up_exit_code(self, capsys):
        assert main(["ring_modular", "--no-validate"]) == 1
        assert "gave up" in capsys.readouterr().out

    def test_unknown_target(self):
        with pytest.raises(SystemExit):
            main(["no_such_program_xyz"])

    def test_no_target_prints_help(self, capsys):
        assert main([]) == 2

    def test_transpose_with_inputs(self, capsys):
        assert main(["transpose_square", "--np", "9", "--inputs", "3", "3"]) == 0
        out = capsys.readouterr().out
        assert "transpose" in out


class TestResilienceFlags:
    def test_degraded_run_prints_diagnostics(self, capsys):
        assert main(["ring_modular", "--no-validate"]) == 1
        out = capsys.readouterr().out
        assert "gave up" in out
        assert "confidence: partial" in out
        assert "GIVEUP_NO_MATCH" in out

    def test_fallback_reports_the_answering_rung(self, capsys):
        assert main(["ring_modular", "--no-validate", "--fallback"]) == 1
        out = capsys.readouterr().out
        assert "answer from rung: mpi-cfg" in out
        assert "rung cartesian: partial" in out
        assert "rung cartesian-escalated: skipped (replay)" in out

    def test_fallback_on_exact_program_exits_zero(self, capsys):
        assert main(["exchange_with_root", "--no-validate", "--fallback"]) == 0
        out = capsys.readouterr().out
        assert "answer from rung: cartesian" in out
        assert "communication topology" in out

    def test_strict_flag_still_exits_nonzero(self, capsys):
        assert main(["ring_modular", "--no-validate", "--strict"]) == 1
        out = capsys.readouterr().out
        assert "gave up" in out
        assert "confidence: gave_up" in out

    def test_step_budget_flag(self, capsys):
        assert main(
            ["exchange_with_root", "--no-validate", "--max-steps", "3"]
        ) == 1
        out = capsys.readouterr().out
        assert "BUDGET_STEPS" in out

    def test_deadline_flag(self, capsys):
        assert main(
            ["exchange_with_root", "--no-validate", "--deadline", "0"]
        ) == 1
        assert "BUDGET_DEADLINE" in capsys.readouterr().out

    def test_malformed_cfg_is_one_line_error(self, capsys, monkeypatch):
        # force a structural error past the engine: break the CFG builder's
        # output before the engine sees it, via the bug-detector path which
        # re-raises through main()
        from repro.core.errors import MalformedCFG

        def boom(*args, **kwargs):
            raise MalformedCFG(7, "expected 1 unlabeled successor, found 0")

        monkeypatch.setattr("repro.cli.analyze_program", boom)
        assert main(["pingpong", "--no-validate"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == (
            "error: malformed CFG: CFG node 7: expected 1 unlabeled "
            "successor, found 0"
        )

    def test_giveup_escaping_is_one_line_error(self, capsys, monkeypatch):
        from repro.core.errors import GiveUp

        def boom(*args, **kwargs):
            raise GiveUp("synthetic escape")

        monkeypatch.setattr("repro.cli.analyze_program", boom)
        assert main(["pingpong", "--no-validate"]) == 1
        err = capsys.readouterr().err
        assert err.strip() == "error: analysis gave up (T): synthetic escape"


class TestProfileSubcommand:
    def test_profile_corpus_program(self, tmp_path, capsys):
        out_path = tmp_path / "profile.json"
        assert main(["profile", "exchange_with_root", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "Section IX cost profile" in out
        assert "closure share of total time" in out
        data = json.loads(out_path.read_text())
        assert data["program"] == "exchange_with_root"
        assert data["closure"]["full_calls"] > 0

    def test_profile_quickstart_program(self, tmp_path, capsys):
        from examples.quickstart import SOURCE

        source = tmp_path / "quickstart.mpl"
        source.write_text(SOURCE)
        assert main(["profile", str(source), "--no-json"]) == 0
        out = capsys.readouterr().out
        assert "quickstart" in out
        assert "engine.step" in out

    def test_profile_no_json_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["profile", "pingpong", "--no-json"]) == 0
        assert not (tmp_path / "profile.json").exists()

    def test_profile_gave_up_exit_code(self, tmp_path):
        assert main(
            ["profile", "ring_modular", "--json", str(tmp_path / "p.json")]
        ) == 1

    def test_profile_exports_trace_and_journal(self, tmp_path, capsys):
        from repro.obs.export import read_journal, validate_chrome_trace

        trace = tmp_path / "trace.json"
        journal = tmp_path / "journal.jsonl"
        assert main(
            ["profile", "pingpong", "--no-json",
             "--trace", str(trace), "--journal", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        validate_chrome_trace(json.loads(trace.read_text()))
        events = read_journal(journal)
        assert events and events[0].kind == "run_start"


class TestExplainSubcommand:
    def test_why_top_on_budget_tripped_run(self, capsys):
        """Acceptance: a degraded run names the originating event and its
        causal chain back to the run's start."""
        assert main(["explain", "pingpong", "--max-steps", "3", "--why-top"]) == 0
        out = capsys.readouterr().out
        assert "why-top: [BUDGET_STEPS]" in out
        assert "budget_trip" in out
        assert "run_start" in out  # the chain reaches the run's origin
        assert "#1 run_start" in out

    def test_why_top_on_degraded_giveup_run(self, capsys):
        assert main(["explain", "ring_modular", "--client", "simple-symbolic",
                     "--why-top"]) == 0
        out = capsys.readouterr().out
        assert "why-top: [GIVEUP_NO_MATCH]" in out
        assert "giveup" in out
        assert "run_start" in out

    def test_why_top_on_clean_run_exits_nonzero(self, capsys):
        assert main(["explain", "pingpong", "--why-top"]) == 1
        assert "nothing degraded" in capsys.readouterr().out

    def test_why_match_prints_match_chains(self, capsys):
        assert main(
            ["explain", "pingpong", "--client", "constprop", "--why-match"]
        ) == 0
        out = capsys.readouterr().out
        assert "why-match:" in out
        assert "match_attempt" in out or "match" in out
        assert "run_start" in out

    def test_why_match_without_communication(self, capsys):
        assert main(
            ["explain", "sequential_only", "--why-match"]
        ) == 1
        assert "no send-receive matching occurred" in capsys.readouterr().out

    def test_node_query_resolves_a_recorded_node(self, capsys):
        from repro.analyses.simple_symbolic import (
            SimpleSymbolicClient,
            analyze_program,
        )
        from repro.lang import programs
        from repro.obs import provenance

        # discover a node key the engine actually records, then ask the
        # CLI to derive it (the run is deterministic)
        with provenance.recording() as prov:
            analyze_program(programs.get("pingpong").parse(),
                            SimpleSymbolicClient())
        keyed = [e for e in prov.events() if e.node_key is not None]
        locs = keyed[-1].node_key[0]
        arg = ",".join(str(nid) for nid in locs)
        assert main(["explain", "pingpong", "--client", "simple-symbolic",
                     "--node", arg]) == 0
        out = capsys.readouterr().out
        assert f"node {tuple(locs)}: derivation" in out

    def test_node_query_unknown_location(self, capsys):
        assert main(["explain", "pingpong", "--node", "9999"]) == 1
        assert "no recorded events" in capsys.readouterr().out

    def test_node_query_malformed(self):
        with pytest.raises(SystemExit):
            main(["explain", "pingpong", "--node", "three"])

    def test_default_summary_lists_event_kinds(self, capsys):
        assert main(["explain", "pingpong"]) == 0
        out = capsys.readouterr().out
        assert "event kinds:" in out
        assert "transfer" in out
        assert "causal chain of the last event:" in out

    def test_explain_exports_trace_and_journal(self, tmp_path, capsys):
        from repro.obs.export import read_journal, validate_chrome_trace

        trace = tmp_path / "trace.json"
        journal = tmp_path / "journal.jsonl"
        assert main(
            ["explain", "pingpong", "--trace", str(trace),
             "--journal", str(journal)]
        ) == 0
        validate_chrome_trace(json.loads(trace.read_text()))
        ids = [e.event_id for e in read_journal(journal)]
        assert ids == sorted(ids) and ids  # complete, ordered journal

    def test_explain_capacity_spills_into_journal(self, tmp_path):
        from repro.obs.export import read_journal

        journal = tmp_path / "journal.jsonl"
        assert main(
            ["explain", "exchange_with_root", "--capacity", "16",
             "--journal", str(journal)]
        ) == 0
        ids = [e.event_id for e in read_journal(journal)]
        # evicted prefix spilled + live ring appended: gap-free history
        assert ids == list(range(1, len(ids) + 1))
        assert len(ids) > 16

    def test_explain_recorder_is_torn_down(self):
        from repro.obs import provenance

        assert main(["explain", "pingpong"]) == 0
        assert provenance.active() is None


class TestLogLevelFlag:
    def test_log_level_mirrors_driver_events_to_stderr(self, capsys):
        assert main(
            ["ring_modular", "--no-validate", "--fallback",
             "--log-level", "info"]
        ) == 1
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines() if line]
        events = [r["event"] for r in records]
        assert "driver.rung" in events
        assert "driver.chosen" in events
        rung = next(r for r in records if r["event"] == "driver.rung")
        assert {"name", "confidence", "matches"} <= set(rung)

    def test_engine_degradation_is_logged(self, capsys):
        assert main(
            ["pingpong", "--no-validate", "--max-steps", "3",
             "--log-level", "warning"]
        ) == 1
        err = capsys.readouterr().err
        records = [json.loads(line) for line in err.splitlines() if line]
        assert any(r["event"] == "engine.budget" for r in records)

    def test_repro_log_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "info")
        assert main(["ring_modular", "--no-validate", "--fallback"]) == 1
        err = capsys.readouterr().err
        assert any(
            json.loads(line)["event"] == "driver.chosen"
            for line in err.splitlines() if line
        )

    def test_quiet_by_default(self, capsys):
        assert main(["pingpong", "--no-validate"]) == 0
        assert capsys.readouterr().err == ""
