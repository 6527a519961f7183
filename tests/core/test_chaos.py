"""Fault-injection tests: the engine survives a hostile client.

Run explicitly with ``pytest tests/core/test_chaos.py -m chaos``; the
``chaos`` marker keeps these out of the default tier-1 run.  The fault
schedule is fully determined by the base of ``REPRO_FAULT_SEED`` (env var,
``<base>[:<case>]``, default 1337) — every assertion message carries the
offending seed so CI failures reproduce locally with
``REPRO_FAULT_SEED=<seed> pytest ... -m chaos``.

Soundness under faults: an injected fault can only *remove* behavior from
the exploration (a node falls to ``T`` instead of producing successors),
never add it, so for a program whose clean run is ``exact`` the degraded
match relation must be a subset of the clean one.  (For programs whose
clean run already degrades, the subset property is NOT a theorem —
pruning a join input can leave a *narrower* state downstream that proves
a match the clean run's wider state cannot — so those only get the
termination/no-crash guarantee.)
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core import diagnostics
from repro.core.diagnostics import CLIENT_FAULT
from repro.core.engine import EngineLimits, PCFGEngine
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.obs import provenance
from tests.core.chaos import ChaosClient, default_seed

pytestmark = pytest.mark.chaos

BASE_SEED = default_seed()

#: full corpus: every program must survive chaos without an exception
CORPUS = [spec.name for spec in programs.all_specs()]

#: programs whose clean simple-symbolic run is exact (subset property holds)
CLEAN_EXACT = [
    "broadcast_fanout",
    "exchange_with_root",
    "gather_to_root",
    "master_worker",
    "mdcask_full",
    "message_leak",
    "pingpong",
    "pipeline_stages",
    "ring_shift_nowrap",
    "scatter_from_root",
    "sequential_only",
    "shift_right",
    "type_mismatch",
]

_CLEAN_CACHE = {}


def clean_run(name):
    if name not in _CLEAN_CACHE:
        program = programs.get(name).parse()
        cfg = build_cfg(program)
        result = PCFGEngine(cfg, SimpleSymbolicClient()).run()
        _CLEAN_CACHE[name] = result
    return _CLEAN_CACHE[name]


def chaos_run(name, seed, fault_rate=0.08, strict=False, only=None):
    program = programs.get(name).parse()
    cfg = build_cfg(program)
    client = ChaosClient(
        SimpleSymbolicClient(), seed=seed, fault_rate=fault_rate, only=only
    )
    limits = EngineLimits(max_steps=2_000, strict=strict)
    result = PCFGEngine(cfg, client, limits).run()
    return result, client


def test_chaos_seed_sweep_never_crashes():
    """No (program, seed) combination makes run() raise — ever."""
    crashes = []
    for name in CORPUS:
        for offset in range(8):
            seed = BASE_SEED + offset
            try:
                result, client = chaos_run(name, seed)
            except BaseException as exc:  # noqa: BLE001 - the point of the test
                crashes.append((name, seed, repr(exc)))
                continue
            assert result.confidence in (
                diagnostics.EXACT,
                diagnostics.PARTIAL,
                diagnostics.GAVE_UP,
            ), f"REPRO_FAULT_SEED={seed} program={name}: bad confidence"
            if client.log:
                # at least one injected fault: the result must admit it
                assert result.diagnostics, (
                    f"REPRO_FAULT_SEED={seed} program={name}: faults injected "
                    f"{client.log} but result claims no diagnostics"
                )
    assert not crashes, (
        f"engine crashed (REPRO_FAULT_SEED base {BASE_SEED}): {crashes}"
    )


def test_chaos_faults_become_client_fault_diagnostics():
    """Raised injections surface as CLIENT_FAULT with the callback named."""
    seen_callbacks = set()
    for offset in range(16):
        seed = BASE_SEED + offset
        result, client = chaos_run("exchange_with_root", seed, fault_rate=0.2)
        raised = [cb for cb, kind in client.log]
        if not raised:
            continue
        faults = [d for d in result.diagnostics if d.code == CLIENT_FAULT]
        assert faults, (
            f"REPRO_FAULT_SEED={seed}: injected {client.log} but no "
            f"CLIENT_FAULT diagnostic"
        )
        seen_callbacks.update(d.callback for d in faults if d.callback)
    # the sweep must actually have exercised the guard on real callbacks
    assert seen_callbacks, "no fault ever injected across the sweep"


@settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    name=st.sampled_from(CLEAN_EXACT),
)
def test_chaos_matches_subset_of_clean(seed, name):
    """Soundness under faults: degraded matches never exceed the clean set."""
    clean = clean_run(name)
    assert clean.confidence == diagnostics.EXACT, (
        f"{name} is no longer clean-exact; update CLEAN_EXACT"
    )
    result, client = chaos_run(name, seed)
    assert set(result.matches) <= set(clean.matches), (
        f"REPRO_FAULT_SEED={seed} program={name}: degraded run invented matches "
        f"{set(result.matches) - set(clean.matches)} (faults: {client.log})"
    )
    if not client.log:
        # no fault fired: the run must be byte-for-byte as good as clean
        assert result.confidence == diagnostics.EXACT
        assert set(result.matches) == set(clean.matches)


def test_chaos_fault_in_initial_gives_up_cleanly():
    """A fault on the very first callback yields gave_up, not a traceback."""
    hit = False
    for offset in range(64):
        seed = BASE_SEED + offset
        result, client = chaos_run(
            "pingpong", seed, fault_rate=1.0, only=["initial"]
        )
        assert result.confidence == diagnostics.GAVE_UP, (
            f"REPRO_FAULT_SEED={seed}: expected gave_up, got {result.confidence}"
        )
        assert result.gave_up
        assert result.diagnostics
        hit = True
        break
    assert hit


def test_chaos_strict_mode_aborts_on_first_fault():
    """strict=True turns the first injected fault into a global abort."""
    for offset in range(32):
        seed = BASE_SEED + offset
        result, client = chaos_run(
            "exchange_with_root", seed, fault_rate=0.3, strict=True
        )
        if not client.log:
            assert result.confidence == diagnostics.EXACT
            continue
        assert result.confidence == diagnostics.GAVE_UP, (
            f"REPRO_FAULT_SEED={seed}: strict run degraded instead of aborting"
        )
        # abort-on-first: exactly one diagnostic, nothing localized
        assert len(result.diagnostics) == 1
        assert not result.top_nodes
        return
    pytest.fail("no fault injected across 32 seeds; raise fault_rate")


def test_chaos_diagnostics_carry_resolvable_provenance():
    """Under provenance, every chaos diagnostic names its originating event.

    The flight recorder must keep working while the client actively
    misbehaves: each diagnostic's ``provenance_id`` resolves to a recorded
    event of a degradation kind whose causal chain reaches the run's start.
    """
    degradation_kinds = {
        "giveup", "client_fault", "cfg_malformed", "budget_trip",
        "checkpoint_rejected",
    }
    checked = 0
    for name in ("exchange_with_root", "pingpong", "ring_modular"):
        for offset in range(8):
            seed = BASE_SEED + offset
            with provenance.recording() as prov:
                result, client = chaos_run(name, seed, fault_rate=0.2)
            for diag in result.diagnostics:
                assert diag.provenance_id is not None, (
                    f"REPRO_FAULT_SEED={seed} program={name}: diagnostic "
                    f"{diag.code} has no provenance_id (faults: {client.log})"
                )
                event = prov.get(diag.provenance_id)
                assert event is not None, (
                    f"REPRO_FAULT_SEED={seed} program={name}: provenance_id "
                    f"{diag.provenance_id} does not resolve"
                )
                assert event.kind in degradation_kinds, (
                    f"REPRO_FAULT_SEED={seed} program={name}: {diag.code} links "
                    f"to a {event.kind!r} event"
                )
                chain = prov.chain(event.event_id)
                assert chain[0].kind == "run_start", (
                    f"REPRO_FAULT_SEED={seed} program={name}: causal chain of "
                    f"{diag.code} does not reach run_start"
                )
                checked += 1
    assert checked, "no diagnostics produced across the provenance sweep"


def test_chaos_corrupted_state_is_contained():
    """CorruptedState damage surfaces later but still lands in diagnostics."""
    corrupted_seen = False
    for offset in range(64):
        seed = BASE_SEED + offset
        result, client = chaos_run(
            "exchange_with_root", seed, fault_rate=0.15
        )
        if any(kind == "corrupt" for _, kind in client.log):
            corrupted_seen = True
            assert result.diagnostics, (
                f"REPRO_FAULT_SEED={seed}: corruption injected but no diagnostics"
            )
    assert corrupted_seen, "no corruption injected across the sweep"
