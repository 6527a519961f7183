"""Randomized soundness fuzzing: static matches must cover dynamic matches.

Generates random (but deadlock-free by construction) communication programs
in the affine fragment, runs the pCFG analysis, and checks the fundamental
soundness contract against the interpreter: whenever the analysis converges,
its match relation covers — and, by exactness, equals — the dynamic one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyses.simple_symbolic import analyze_program
from repro.core.driver import analyze_with_fallback
from repro.corpus.sweep import differential_check
from repro.lang import parse
from repro.runtime import run_program


def _root_fanout(kind: str, value: int) -> str:
    """Root communicates with every worker; direction per kind."""
    if kind == "broadcast":
        return f"""
            x = {value}
            if id == 0 then
                for i = 1 to np - 1 do
                    send x -> i
                end
            else
                receive y <- 0
            end
        """
    return f"""
        x = {value}
        if id == 0 then
            for i = 1 to np - 1 do
                receive y <- i
            end
        else
            send x -> 0
        end
    """


class TestFuzzRootPatterns:
    @settings(max_examples=10, deadline=None)
    @given(
        st.sampled_from(["broadcast", "gather"]),
        st.integers(-100, 100),
        st.sampled_from([4, 5, 9]),
    )
    def test_fanout_soundness(self, kind, value, num_procs):
        program = parse(_root_fanout(kind, value))
        result, cfg, _ = analyze_program(program)
        assert not result.gave_up
        trace = run_program(program, num_procs, cfg=cfg)
        dynamic = set(trace.topology().node_edges)
        assert dynamic == set(result.matches)


class TestFuzzPairwise:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 3),
        st.integers(1, 3),
        st.integers(-9, 9),
        st.sampled_from([8, 11]),
    )
    def test_point_to_point_soundness(self, sender, distance, value, num_procs):
        """A single constant-endpoint message between two fixed ranks."""
        receiver = sender + distance
        source = f"""
            if id == {sender} then
                send {value} -> {receiver}
            elif id == {receiver} then
                receive y <- {sender}
                print y
            else
                skip
            end
        """
        program = parse(source)
        result, cfg, _ = analyze_program(program)
        trace = run_program(program, num_procs, cfg=cfg)
        dynamic = set(trace.topology().node_edges)
        if not result.gave_up:
            assert dynamic == set(result.matches)
            assert trace.prints[receiver] == [value]
        else:
            # give-up is allowed (e.g. receiver == min_np boundary); silence
            # about matches it did record must still be sound
            assert set(result.matches) <= dynamic

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([8, 13]))
    def test_shift_family_soundness(self, offset, num_procs):
        """Shift by a random offset with correctly paired expressions."""
        source = f"""
            x = id
            if id < np - {offset} then
                send x -> id + {offset}
            end
            if id >= {offset} then
                receive y <- id - {offset}
            end
        """
        program = parse(source)
        result, cfg, _ = analyze_program(program)
        trace = run_program(program, num_procs, cfg=cfg)
        dynamic = set(trace.topology().node_edges)
        if not result.gave_up:
            assert dynamic <= set(result.matches)
        else:
            assert set(result.matches) <= dynamic


class TestFuzzNeverUnsound:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4))
    def test_mismatched_offsets_never_matched(self, send_off, recv_off):
        """send -> id+a against receive <- id-b with a != b can never be an
        identity composition; the analysis must not match them."""
        if send_off == recv_off:
            return
        source = f"""
            if id == 0 then
                send 1 -> id + {send_off}
            elif id == {send_off + recv_off} then
                receive y <- id - {recv_off}
            else
                skip
            end
        """
        program = parse(source)
        result, cfg, _ = analyze_program(program)
        # such a program deadlocks dynamically; statically the only sound
        # answers are give-up or an empty match set
        assert result.gave_up or not result.matches


#: a branch on ``w``, which differs within the merged set [0..np-1]: only
#: rank 0 sees w == 1, so send 5 reaches receive z at run time
DIVERGENT_BRANCH = """
    if id == 0 then
        w = 1
    else
        w = 2
    end
    if w == 1 then
        if id == 0 then
            send 5 -> 1
        elif id == 1 then
            receive y <- 0
        end
    else
        if id == 0 then
            send 6 -> 1
        elif id == 1 then
            receive z <- 0
        end
    end
"""


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "known unsound: a condition without id is explored as two uniform "
        "worlds, but w differs within the set the two id branches merge "
        "into; the ladder answers cartesian exact and misses (send 5, "
        "receive z)"
    ),
)
def test_a_branch_on_a_value_that_differs_within_a_set_is_sound():
    program = parse(DIVERGENT_BRANCH)
    report = analyze_with_fallback(program)
    _, _, divergences = differential_check(
        program, set(report.result.matches), (4, 5, 6)
    )
    assert divergences == []


#: a send that rank 0 buffers to ``w`` (its own rank) before every rank
#: meets at the receive; the buffered message must keep dest 0 when the
#: sets merge, and the last send then reaches rank 1's receive (5 -> 4)
IN_FLIGHT_ACROSS_A_MERGE = """
    w = id
    if (id == 0) then send 9 -> w end
    receive q <- 0
    send w -> 1
"""


def test_an_in_flight_send_across_a_merge_is_sound():
    # In-flight sends own a namespace, bound equal to the sender's when
    # the send is buffered, so the merge that folds the sender's namespace
    # leaves ``dest == 0`` alone.  The run deadlocks at every np; the
    # ladder claims exactly the two pairs it makes, and no rung answers
    # ``exact`` for it.
    program = parse(IN_FLIGHT_ACROSS_A_MERGE)
    report = analyze_with_fallback(program)
    claimed = set(report.result.matches)
    dynamic, statuses, divergences = differential_check(program, claimed, (4, 5, 6))
    assert divergences == []
    assert statuses == ["deadlock"] * 3
    assert report.result.confidence != "exact"
    assert claimed == {(3, 4), (5, 4)}
