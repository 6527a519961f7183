"""Client faults through the fault plane: the engine survives a hostile client.

Run explicitly with ``pytest tests/core/test_chaos.py -m chaos``; the
``chaos`` marker keeps these out of the default tier-1 run.  The faults
are the fault plane's two client-boundary points, checked at the engine's
callback guard (``PCFGEngine._call``) while a bare client runs:

* ``client.callback.raise`` makes a guarded callback raise;
* ``client.state.corrupt`` makes a state-returning callback answer a
  :class:`~repro.faults.plane.CorruptedState`, so the damage surfaces in
  a later callback, far from the fault site.

Each run's schedule is labelled ``<base>:<case>``.  The base is the base
of ``REPRO_FAULT_SEED`` (env var, ``<base>[:<case>]``, default 1337);
every assertion message carries the label, and CI failures reproduce
locally with ``REPRO_FAULT_SEED=<base> pytest ... -m chaos``.

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

from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analyses.simple_symbolic import SimpleSymbolicClient
from repro.core import diagnostics
from repro.core.diagnostics import CLIENT_FAULT
from repro.core.engine import EngineLimits, PCFGEngine
from repro.faults import plane
from repro.faults.plane import FaultSchedule, PlannedFault
from repro.lang import programs
from repro.lang.cfg import build_cfg
from repro.obs import provenance

pytestmark = pytest.mark.chaos

_FROM_ENV = FaultSchedule.from_env()
BASE_SEED = int(_FROM_ENV.label.partition(":")[0]) if _FROM_ENV else 1337

RAISE = "client.callback.raise"
CORRUPT = "client.state.corrupt"

#: arrivals per point a seeded schedule may fire at; every run below
#: makes fewer guarded callbacks than this
HORIZON = 1_000

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


def client_schedule(case, fault_rate):
    """Schedule ``<BASE_SEED>:<case>``: each of the first HORIZON arrivals
    at each client point fires with probability ``fault_rate``."""
    rng = Random(f"repro-client-faults:{BASE_SEED}:{case}")
    plans = [
        PlannedFault(point, hit=arrival)
        for point in (RAISE, CORRUPT)
        for arrival in range(1, HORIZON + 1)
        if rng.random() < fault_rate
    ]
    return FaultSchedule(plans, label=f"{BASE_SEED}:{case}", focus=RAISE)


def chaos_run(name, schedule, strict=False):
    """Run ``name`` with a bare client under ``schedule``; return the
    result and the plane, whose coverage says what fired."""
    program = programs.get(name).parse()
    cfg = build_cfg(program)
    limits = EngineLimits(max_steps=2_000, strict=strict)
    with plane.engaged(schedule) as fault_plane:
        result = PCFGEngine(cfg, SimpleSymbolicClient(), limits).run()
    return result, fault_plane


def test_chaos_seed_sweep_never_crashes():
    """No (program, schedule) combination makes run() raise — ever."""
    crashes = []
    for name in CORPUS:
        for offset in range(8):
            schedule = client_schedule(offset, fault_rate=0.08)
            try:
                result, fault_plane = chaos_run(name, schedule)
            except BaseException as exc:  # noqa: BLE001 - the point of the test
                crashes.append((name, schedule.label, repr(exc)))
                continue
            assert result.confidence in (
                diagnostics.EXACT,
                diagnostics.PARTIAL,
                diagnostics.GAVE_UP,
            ), f"schedule {schedule.label} program={name}: bad confidence"
            if fault_plane.fired_points():
                # at least one injected fault: the result must admit it
                assert result.diagnostics, (
                    f"schedule {schedule.label} program={name}: faults injected "
                    f"{fault_plane.coverage()} but result claims no diagnostics"
                )
    assert not crashes, (
        f"engine crashed (REPRO_FAULT_SEED base {BASE_SEED}): {crashes}"
    )


def test_chaos_faults_become_client_fault_diagnostics():
    """Injected faults surface as CLIENT_FAULT with the callback named."""
    seen_callbacks = set()
    for offset in range(16):
        schedule = client_schedule(offset, fault_rate=0.2)
        result, fault_plane = chaos_run("exchange_with_root", schedule)
        if not fault_plane.fired_points():
            continue
        faults = [d for d in result.diagnostics if d.code == CLIENT_FAULT]
        assert faults, (
            f"schedule {schedule.label}: injected {fault_plane.fired_points()} "
            f"but no CLIENT_FAULT diagnostic"
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
    case=st.integers(min_value=0, max_value=2**16),
    name=st.sampled_from(CLEAN_EXACT),
)
def test_chaos_matches_subset_of_clean(case, name):
    """Soundness under faults: degraded matches never exceed the clean set."""
    clean = clean_run(name)
    assert clean.confidence == diagnostics.EXACT, (
        f"{name} is no longer clean-exact; update CLEAN_EXACT"
    )
    schedule = client_schedule(case, fault_rate=0.08)
    result, fault_plane = chaos_run(name, schedule)
    assert set(result.matches) <= set(clean.matches), (
        f"schedule {schedule.label} program={name}: degraded run invented "
        f"matches {set(result.matches) - set(clean.matches)} "
        f"(faults: {fault_plane.fired_points()})"
    )
    if not fault_plane.fired_points():
        # no fault fired: the run must be byte-for-byte as good as clean
        assert result.confidence == diagnostics.EXACT
        assert set(result.matches) == set(clean.matches)


def test_chaos_fault_in_initial_gives_up_cleanly():
    """A fault on the very first callback yields gave_up, not a traceback."""
    hit = False
    for offset in range(64):
        # a cold run's first guarded callback, and its first
        # state-returning one, is ``initial``
        point = Random(f"repro-client-faults:{BASE_SEED}:{offset}").choice(
            (RAISE, CORRUPT)
        )
        schedule = FaultSchedule(
            [PlannedFault(point, hit=1)], label=f"{BASE_SEED}:{offset}", focus=point
        )
        result, fault_plane = chaos_run("pingpong", schedule)
        assert result.confidence == diagnostics.GAVE_UP, (
            f"schedule {schedule.label}: expected gave_up, got {result.confidence}"
        )
        assert result.gave_up
        assert result.diagnostics
        hit = True
        break
    assert hit


def test_chaos_strict_mode_aborts_on_first_fault():
    """strict=True turns the first injected fault into a global abort."""
    for offset in range(32):
        schedule = client_schedule(offset, fault_rate=0.3)
        result, fault_plane = chaos_run("exchange_with_root", schedule, strict=True)
        if not fault_plane.fired_points():
            assert result.confidence == diagnostics.EXACT
            continue
        assert result.confidence == diagnostics.GAVE_UP, (
            f"schedule {schedule.label}: strict run degraded instead of aborting"
        )
        # abort-on-first: exactly one diagnostic, nothing localized
        assert len(result.diagnostics) == 1
        assert not result.top_nodes
        return
    pytest.fail("no fault injected across 32 schedules; raise fault_rate")


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
            schedule = client_schedule(offset, fault_rate=0.2)
            with provenance.recording() as prov:
                result, fault_plane = chaos_run(name, schedule)
            for diag in result.diagnostics:
                assert diag.provenance_id is not None, (
                    f"schedule {schedule.label} program={name}: diagnostic "
                    f"{diag.code} has no provenance_id "
                    f"(faults: {fault_plane.fired_points()})"
                )
                event = prov.get(diag.provenance_id)
                assert event is not None, (
                    f"schedule {schedule.label} program={name}: provenance_id "
                    f"{diag.provenance_id} does not resolve"
                )
                assert event.kind in degradation_kinds, (
                    f"schedule {schedule.label} program={name}: {diag.code} "
                    f"links to a {event.kind!r} event"
                )
                chain = prov.chain(event.event_id)
                assert chain[0].kind == "run_start", (
                    f"schedule {schedule.label} program={name}: causal chain "
                    f"of {diag.code} does not reach run_start"
                )
                checked += 1
    assert checked, "no diagnostics produced across the provenance sweep"


def test_chaos_corrupted_state_is_contained():
    """CorruptedState damage surfaces later but still lands in diagnostics."""
    corrupted_seen = False
    for offset in range(64):
        schedule = client_schedule(offset, fault_rate=0.15)
        result, fault_plane = chaos_run("exchange_with_root", schedule)
        if fault_plane.coverage()[CORRUPT]["fired"]:
            corrupted_seen = True
            assert result.diagnostics, (
                f"schedule {schedule.label}: corruption injected but no diagnostics"
            )
    assert corrupted_seen, "no corruption injected across the sweep"
