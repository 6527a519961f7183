"""The benchmark harness can still reach the program names it uses.

``perfbench/traced_daemon.py`` wraps named functions of ``repro.serve``
and ``repro.lang`` (``daemon.cfg_fingerprint``, ``daemon.compute_key``,
``ResultCache.warm_snapshot``, ``AnalysisService._execute_attempt``, ...)
by looking each one up with ``getattr``, and ``perfbench/common.py``'s
``reset_memos`` imports ``clear_closure_caches`` and
``reset_global_stats`` (both no-ops kept for it).  Deleting or renaming
one of them breaks a benchmark run, so each check runs here, in a fresh
interpreter, where module patches cannot leak into other tests.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

_INSTALL = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import traced_daemon
traced_daemon.install(Path(sys.argv[2]))
print("installed")
"""


_RESET_MEMOS = """
import sys
sys.path.insert(0, sys.argv[1])
import common
common.require_source()
common.reset_memos()
print("reset")
"""


def test_traced_daemon_installs_its_wrappers(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench"), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"


def test_common_reset_memos_reaches_its_shims():
    done = subprocess.run(
        [sys.executable, "-c", _RESET_MEMOS, str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "reset"
