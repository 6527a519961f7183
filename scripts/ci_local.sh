#!/usr/bin/env bash
# Local dry-run of .github/workflows/ci.yml (for machines without `act`).
#
# Runs the same jobs, in the same order, with the same commands:
#   lint        -> ruff check src tests benchmarks examples   (skipped if
#                  ruff is not installed; CI installs it from PyPI)
#   test        -> PYTHONPATH=src python -m pytest -x -q      (one local
#                  interpreter stands in for the 3.9-3.12 matrix)
#   chaos       -> client faults injected through the fault plane at the
#                  engine's callback guard, at a fixed seed (the base of
#                  REPRO_FAULT_SEED, default 1337, printed so failures
#                  reproduce exactly)
#   fault-smoke -> the fault-plane test suite plus the seeded invariant
#                  sweep (`repro faults --require-coverage`); failures
#                  print a `--replay BASE:CASE` command that reproduces
#                  the exact fault schedule
#   resume-smoke-> interrupt an analysis (deadline / step budget) with
#                  checkpointing on, `repro resume` it, and diff the output
#                  against an uninterrupted run (must be byte-identical)
#   explain-smoke> budget-trip a run under `repro explain --why-top`, require
#                  the causal chain back to run_start, and schema-check the
#                  exported Chrome trace; then write one journal twice (its
#                  ids are exactly 1..n, the chain still reaches #1 run_start)
#   sweep-smoke -> differential corpus sweep over the pinned smoke manifest
#                  and over the 400-program stream of seed 1337 (analyzer
#                  vs concrete interpreter; fails on divergence), then the
#                  routed-ladder differential and the engine
#                  behaviour lock (`-m ladder_slow`: the routed fallback
#                  ladder must answer like a full climb, and every answer,
#                  step count and explored pCFG size must match
#                  tests/data/engine_lock.json), variable renaming
#                  over the smoke tier (the answer must not change), and
#                  the two-sided node check (every exact smoke answer
#                  claims exactly the node pairs its runs make)
#   serve-smoke -> start a real `repro serve` daemon, replay a duplicate-heavy
#                  corpus through scripts/loadgen.py (cache-hit-rate >= 0.9,
#                  zero errors), SIGTERM-drain it, then run the SIGKILL
#                  kill-and-restart recovery suite (tests/serve/test_crash.py),
#                  then drive the service benchmark through the traced daemon
#                  (perfbench --trace 1: correct, no failed request)
#   telemetry-smoke> stream one analyze request against a live daemon (event
#                  sequence: admission -> rung -> progress -> result), scrape
#                  /metrics (fail on missing required series or unparseable
#                  exposition), and stitch the request trace via `repro trace`
#   bench-smoke -> benchmark suite with timing disabled, the benchmark's
#                  determinism guard (each perfbench workload traced in two
#                  processes with different hash seeds must agree on
#                  answers and per-layer counts), the tracked-baseline
#                  regression gate (`scripts/bench_baseline.py --compare`),
#                  then the Section IX profile artifact via
#                  `python -m repro profile`.
set -u
cd "$(dirname "$0")/.."

failures=0
failed_steps=""
step() {
  local name="$1"
  echo
  echo "=== $name ==="
  shift
  if "$@"; then
    echo "--- ok"
  else
    echo "--- FAILED: $name ($*)"
    failures=$((failures + 1))
    failed_steps="${failed_steps}${failed_steps:+, }${name}"
  fi
}

if python -m ruff --version >/dev/null 2>&1; then
  step "lint" python -m ruff check src tests benchmarks examples
else
  echo "=== lint === SKIPPED (ruff not installed; CI installs it)"
fi

PYTHONPATH=src
export PYTHONPATH

step "test (python $(python -c 'import sys; print("%d.%d" % sys.version_info[:2])'))" \
  python -m pytest -x -q
REPRO_FAULT_SEED="${REPRO_FAULT_SEED:-1337}"
echo
echo "(chaos seed: REPRO_FAULT_SEED=${REPRO_FAULT_SEED}; reproduce failures with" \
  "REPRO_FAULT_SEED=${REPRO_FAULT_SEED} pytest tests/core/test_chaos.py -m chaos)"
step "chaos: client faults through the fault plane" \
  env REPRO_FAULT_SEED="${REPRO_FAULT_SEED}" python -m pytest tests/core/test_chaos.py -m chaos -q
FAULT_SEED="${FAULT_SEED:-1337}"
export FAULT_SEED
step "fault-smoke: fault-plane unit and hardening suite" \
  python -m pytest tests/faults -q
step "fault-smoke: seeded invariant sweep (coverage-gated)" bash -c '
  python -m repro faults --seed "${FAULT_SEED}" --cases 30 \
      --require-coverage --report fault-smoke.jsonl
  status=$?
  if [ "$status" -ne 0 ] && [ -f fault-smoke.jsonl ]; then
    echo "replay failed cases, and cases whose focus never fired, with:"
    python -c "
import json
for line in open(\"fault-smoke.jsonl\"):
    doc = json.loads(line)
    if doc.get(\"ok\") is False or doc.get(\"focus_fired\") is False:
        print(\"  python -m repro faults --replay\", doc[\"label\"])
"
  fi
  rm -f fault-smoke.jsonl
  exit "$status"'
step "resume-smoke: deadline-tripped constants run" bash -c '
  rm -rf .ci-ckpt && mkdir -p .ci-ckpt &&
  python -m repro pingpong --constants > .ci-ckpt/clean.txt &&
  { python -m repro pingpong --constants --deadline 0 \
      --checkpoint-dir .ci-ckpt > /dev/null || true; } &&
  python -m repro resume pingpong --constants \
      --checkpoint-dir .ci-ckpt > .ci-ckpt/resumed.txt &&
  diff .ci-ckpt/clean.txt .ci-ckpt/resumed.txt'
step "resume-smoke: step-tripped topology run" bash -c '
  python -m repro transpose_square --no-validate > .ci-ckpt/clean.txt &&
  { python -m repro transpose_square --no-validate --max-steps 8 \
      --checkpoint-dir .ci-ckpt > /dev/null || true; } &&
  python -m repro resume transpose_square --no-validate \
      --checkpoint-dir .ci-ckpt > .ci-ckpt/resumed.txt &&
  diff .ci-ckpt/clean.txt .ci-ckpt/resumed.txt'
step "resume-smoke: step-tripped degraded run" bash -c '
  python -c "from repro.corpus.generator import generate_from_id; print(generate_from_id(\"mplg1-dbf3eb4e\").source, end=\"\")" \
      > .ci-ckpt/degraded.mpl &&
  { python -m repro .ci-ckpt/degraded.mpl --no-validate > .ci-ckpt/clean.txt || [ $? -eq 1 ]; } &&
  { python -m repro .ci-ckpt/degraded.mpl --no-validate --max-steps 8 \
      --checkpoint-dir .ci-ckpt > /dev/null || [ $? -eq 1 ]; } &&
  { python -m repro resume .ci-ckpt/degraded.mpl --no-validate \
      --checkpoint-dir .ci-ckpt > .ci-ckpt/resumed.txt || [ $? -eq 1 ]; } &&
  diff .ci-ckpt/clean.txt .ci-ckpt/resumed.txt &&
  rm -rf .ci-ckpt'
step "explain-smoke: budget-tripped run explains itself" bash -c '
  python -m repro explain pingpong --max-steps 3 --why-top \
      --trace explain-trace.json > explain.txt &&
  grep -q "why-top: \[BUDGET_STEPS\]" explain.txt &&
  grep -q "budget_trip" explain.txt &&
  grep -q "#1 run_start" explain.txt &&
  rm -f explain.txt'
step "explain-smoke: Chrome trace schema check" bash -c '
  python -c "
import json
from repro.obs.export import validate_chrome_trace
document = json.load(open(\"explain-trace.json\"))
validate_chrome_trace(document)
assert [e for e in document[\"traceEvents\"] if e[\"ph\"] == \"X\"]
" && rm -f explain-trace.json'
step "explain-smoke: the journal holds one whole run, written fresh" bash -c '
  for run in 1 2; do
    python -m repro explain exchange_with_root --max-steps 15 \
        --journal explain-journal.jsonl --why-top > explain-journal.txt || exit 1
  done
  grep -q "#1 run_start" explain-journal.txt &&
  python -c "
from repro.obs.export import read_journal
ids = [e.event_id for e in read_journal(\"explain-journal.jsonl\")]
assert ids == list(range(1, len(ids) + 1)), \"the journal ids are not 1..n\"
" && rm -f explain-journal.txt explain-journal.jsonl'
step "sweep-smoke: differential corpus sweep" bash -c '
  python -m repro sweep --tier smoke --seed 1337 --jobs 4 \
      --report sweep-smoke.jsonl &&
  rm -f sweep-smoke.jsonl'
step "sweep-smoke: differential corpus sweep (400-program stream)" \
  python -m repro sweep --tier pr --seed 1337 --count 400 --jobs 4
step "sweep-smoke: routed ladder vs full climb, engine behaviour lock, renaming, two-sided check" \
  python -m pytest tests/core/test_ladder_routing.py tests/core/test_engine_lock.py \
      tests/analyses/test_renaming.py tests/analyses/test_two_sided.py -m ladder_slow -q
step "serve-smoke: daemon serves, caches, and drains" bash -c '
  rm -rf .ci-serve
  python -m repro serve --state-dir .ci-serve --port 0 --workers 2 &
  daemon=$!
  for _ in $(seq 1 100); do [ -f .ci-serve/daemon.json ] && break; sleep 0.2; done
  python scripts/loadgen.py --state-dir .ci-serve \
      --distinct 3 --dup 10 --concurrency 4 \
      --assert-hit-rate 0.9 --assert-max-errors 0
  status=$?
  kill -TERM "$daemon" 2>/dev/null
  wait "$daemon" || status=1
  rm -rf .ci-serve
  exit "$status"'
step "serve-smoke: SIGKILL kill-and-restart recovery suite" \
  python -m pytest tests/serve/test_crash.py -q
step "serve-smoke: traced daemon drives the service benchmark" bash -c '
  python3 perfbench/run.py --workload service_mixed --trace 1 --seconds 1 \
    | tail -n 1 > traced-run.json &&
  python3 -c "import json; d = json.load(open(\"traced-run.json\")); \
    assert d[\"correct\"] is True and d[\"failed\"] == 0, d"
  status=$?
  rm -f traced-run.json
  exit "$status"'
step "telemetry-smoke: stream + /metrics scrape + stitched trace" bash -c '
  rm -rf .ci-serve
  python -m repro serve --state-dir .ci-serve --port 0 --workers 2 &
  daemon=$!
  for _ in $(seq 1 100); do [ -f .ci-serve/daemon.json ] && break; sleep 0.2; done
  python scripts/telemetry_smoke.py --state-dir .ci-serve \
      --trace-out telemetry-trace.json
  status=$?
  kill -TERM "$daemon" 2>/dev/null
  wait "$daemon" || status=1
  rm -rf .ci-serve telemetry-trace.json
  exit "$status"'
step "bench-smoke: benchmarks" python -m pytest benchmarks -q --benchmark-disable
step "bench-smoke: determinism guard" python3 -m pytest perfbench/test_determinism.py -q
step "bench-smoke: tracked baseline" \
  python scripts/bench_baseline.py --compare BENCH_pr2.json
step "bench-smoke: profile artifact" \
  python -m repro profile exchange_with_root --json profile.json
step "bench-smoke: artifact is valid JSON" \
  python -c "import json; json.load(open('profile.json'))"

echo
if [ "$failures" -eq 0 ]; then
  echo "ci_local: all jobs passed"
else
  echo "ci_local: $failures job step(s) failed: ${failed_steps}"
fi
exit "$failures"
