"""Public API surface tests."""

import os
import re
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_version_agrees_with_the_package_metadata(self):
        # the result cache folds ``__version__`` into every key, so the two
        # must move together; a regex keeps this test free of tomllib (3.11+)
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
        assert declared and declared.group(1) == repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        result, cfg, client = repro.analyze(repro.programs.get("pingpong"))
        assert not result.gave_up
        assert result.topology.describe()

    def test_parse_and_run(self):
        program = repro.parse("print id")
        trace = repro.run_program(program, 2)
        assert trace.prints == {0: [0], 1: [1]}

    def test_cartesian_entry_point(self):
        result, _, _ = repro.analyze_cartesian(
            repro.programs.get("transpose_square")
        )
        assert not result.gave_up


class TestColdImport:
    def test_entry_points_do_not_import_numpy(self):
        """A fresh process pays only for the stdlib: importing the CLI, the
        daemon or the driver must not pull in numpy."""
        script = (
            "import sys, repro, repro.cli, repro.serve.daemon, repro.core.driver\n"
            "print('numpy' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert out.stdout.strip() == "False"
