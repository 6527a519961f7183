"""``repro serve`` with the benchmark's span wrappers installed.

Usage: ``python3 perfbench/traced_daemon.py serve --state-dir DIR [serve options]``

The wrappers record admission (``AnalysisService.submit`` and the
parse, CFG, fingerprint and key calls it makes), the result cache, the
job journal, each job and each isolated attempt.  Attempt children are
forked, so they inherit the wrappers and the timed ladder; each child
writes ``DIR/bench-spans-<pid>.json`` (its spans plus its recorder's
span times and counters) as soon as its ladder returns, and the daemon
writes its own file when it exits.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import require_source  # noqa: E402

require_source()

from ledger import Ledger, Patches, recorder_self_times, timed_ladder  # noqa: E402


def dump(state_dir: Path, ledger: Ledger, recorder=None) -> None:
    pid = os.getpid()
    document = {"pid": pid, "spans": [s for s in ledger.spans if s["pid"] == pid]}
    if recorder is not None and hasattr(recorder, "spans"):
        document["obs"] = {
            "self": recorder_self_times(recorder),
            "count": {name: stats.count for name, stats in recorder.spans.items()},
            "counters": dict(recorder.counters),
        }
    (state_dir / f"bench-spans-{pid}.json").write_text(json.dumps(document))


def install(state_dir: Path) -> Ledger:
    from repro.obs import recorder as obs
    from repro.obs import trace
    from repro.serve import cache, daemon, journal

    ledger = Ledger(answer_of=trace.current_trace_id)
    patches = Patches(ledger)
    service = daemon.AnalysisService
    patches.wrap(service, "submit", "serve.submit",
                 after=lambda record, result: record.__setitem__("status", result[0]))
    patches.wrap(daemon, "parse", "lang.parse")
    patches.wrap_lang(daemon)
    patches.wrap_lang()
    patches.wrap(daemon, "cfg_fingerprint", "serve.fingerprint")
    patches.wrap(daemon, "compute_key", "serve.fingerprint")
    patches.wrap(cache.ResultCache, "lookup", "serve.cache.lookup")
    patches.wrap(cache.ResultCache, "store", "serve.cache.store")
    patches.wrap(cache.ResultCache, "warm_snapshot", "serve.cache.warm")
    patches.wrap(journal.JobJournal, "append", "serve.journal.append")
    patches.wrap(service, "_run_job", "serve.job")
    patches.wrap(service, "_execute_attempt", "serve.attempt")

    default_ladder = daemon.default_ladder
    daemon.default_ladder = lambda limits=None: timed_ladder(
        ledger, obs.active_recorder(), default_ladder(limits)
    )
    owner = os.getpid()
    analyze = daemon.analyze_with_fallback

    def analyze_with_fallback(*args, **kwargs):
        with ledger.span("driver.ladder"):
            report = analyze(*args, **kwargs)
        if os.getpid() != owner:  # an attempt child: its spans die with it
            dump(state_dir, ledger, obs.active_recorder())
        return report

    daemon.analyze_with_fallback = analyze_with_fallback
    return ledger


def main(argv) -> int:
    from repro import cli

    state_dir = Path(argv[argv.index("--state-dir") + 1])
    ledger = install(state_dir)
    code = cli.main(argv)
    dump(state_dir, ledger)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
