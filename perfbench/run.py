"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` is the timed run: it prints every end-to-end metric of the
workload, with tracing off.  ``--trace 1`` is the traced run: one
untraced and one traced pass of the fixed input set, printing the
per-layer metrics and writing the span ledger to ``perfbench/out/``.
Either way the answers are checked against the runtime oracle after the
measured passes, and the last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.

Workloads and the layer each is meant to stress are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, require_source, result_line, write_json  # noqa: E402

WORKLOADS = ("paper_cold", "service_mixed")


def check_manifest(trace: int, metrics: dict) -> None:
    """Every metric ``BENCHMARK.json`` lists for this kind of run, in its
    unit, and no other; otherwise exit without a result."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    printed = {name: value["unit"] for name, value in metrics.items()}
    if printed != expected:
        wrong = sorted(set(expected.items()) ^ set(printed.items()))
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: {wrong}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the fixed inputs where order cannot change an answer")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes until this much time has been measured")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print 'ready', tear down (times setup_s)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    require_source()
    if args.workload == "service_mixed":
        import service as workload
    else:
        import paper as workload
    if args.setup_probe:
        workload.probe(args.workload, args.seed)
        return 0
    if args.trace:
        outcome = workload.traced(args.workload, args.seed)
    else:
        outcome = workload.timed(args.workload, args.seed, args.seconds)
    summary = outcome["summary"]
    write_json(f"{args.workload}-trace{args.trace}.json", outcome)
    for name, reason in sorted(summary["failures"].items()):
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    for name, digests in sorted(summary["drift"].items()):
        print(f"DRIFT {name}: answers {digests}", file=sys.stderr)
    check_manifest(args.trace, outcome["metrics"])
    print(result_line(summary["correct"], summary["attempted"], summary["failed"],
                      outcome["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
