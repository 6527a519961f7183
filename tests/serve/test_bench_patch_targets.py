"""The traced benchmark daemon can still install its span wrappers.

``perfbench/traced_daemon.py`` wraps named functions of ``repro.serve``
and ``repro.lang`` (``daemon.cfg_fingerprint``, ``daemon.compute_key``,
``ResultCache.warm_snapshot``, ``AnalysisService._execute_attempt``, ...)
by looking each one up with ``getattr``.  Deleting or renaming one of
them breaks the traced service benchmark, so the install runs here, in a
fresh interpreter, where its module patches cannot leak into other tests.
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


def test_traced_daemon_installs_its_wrappers(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench"), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "installed"
