"""Aligning a joined state's namespaces is one simultaneous rename.

``SimpleSymbolicClient._align_uids`` renames the namespaces of the newer
state so that each position carries the older state's uid, after purging
and projecting out the dead namespaces it renames into.  The graph's
``rename`` and the bounds' ``substitute`` map every name at once, so a swap
or a cycle of uids needs no temporary names.  The reference below is the
two-phase rename through temporary uids that the one-phase rename replaces.
"""

from dataclasses import replace
from typing import Dict

from repro.analyses.simple_symbolic import (
    Pending,
    PSetEntry,
    SimpleSymbolicClient,
    SymbolicState,
)
from repro.cgraph.constraint_graph import ConstraintGraph
from repro.expr.linear import LinearExpr
from repro.procset.interval import Bound, ProcSet, SymRange

V = LinearExpr.var


def two_phase_align(client, old, new):
    mapping: Dict[int, int] = {
        theirs.uid: mine.uid
        for mine, theirs in zip(old.psets, new.psets)
        if mine.uid != theirs.uid
    }
    aligned = new.copy()
    temp_base = max(
        [old.next_uid, new.next_uid] + list(mapping.values()) + list(mapping)
    ) + 1
    phase1 = {src: temp_base + i for i, src in enumerate(mapping)}
    phase2 = {phase1[src]: dst for src, dst in mapping.items()}
    live_uids = {entry.uid for entry in new.psets}
    stale_uids = [t for t in mapping.values() if t not in live_uids]
    if stale_uids:
        aligned = client._purge_namespace_refs(aligned, stale_uids)
    for target in stale_uids:
        aligned.cg.remove_vars(
            [n for n in aligned.cg.variables() if n.startswith(f"ps{target}::")]
        )
    for phase in (phase1, phase2):
        var_map = {}
        for name in aligned.cg.variables():
            for src, dst in phase.items():
                if name.startswith(f"ps{src}::"):
                    var_map[name] = f"ps{dst}::{name[len(f'ps{src}::'):]}"
        aligned.cg.rename(var_map)
        bindings = {src: V(dst) for src, dst in var_map.items()}
        aligned.psets = tuple(
            PSetEntry(phase.get(e.uid, e.uid), e.pset.substitute(bindings))
            for e in aligned.psets
        )
        aligned.pendings = tuple(
            replace(
                p,
                origin_uid=phase.get(p.origin_uid, p.origin_uid),
                pset=p.pset.substitute(bindings),
                dest=p.dest.substitute(bindings) if p.dest else p.dest,
                value=p.value.substitute(bindings) if p.value else p.value,
            )
            for p in aligned.pendings
        )
    return aligned


def _point(expr) -> ProcSet:
    return ProcSet([SymRange(Bound.of(expr), Bound.of(expr))])


def _state(uids, extra_vars=()) -> SymbolicState:
    """Set ``k`` of ``uids`` owns ``ps<uid>::id`` in ``[k..k]`` and a
    variable ``x`` one above its rank; the last set also waits on a send
    from the first."""
    cg = ConstraintGraph()
    cg.add_var("np")
    cg.add_lower("np", len(uids))
    psets = []
    for k, uid in enumerate(uids):
        rank = V(f"ps{uid}::id")
        cg.set_const(f"ps{uid}::id", k)
        cg.add_eq_diff(f"ps{uid}::id", f"ps{uid}::x", 1)
        lb = Bound({rank, LinearExpr.const(k)})
        psets.append(PSetEntry(uid, ProcSet([SymRange(lb, Bound.of(rank))])))
    for name, base, offset in extra_vars:
        cg.add_eq_diff(base, name, offset)
    cg.close()
    first, last = uids[0], uids[-1]
    pending = Pending(
        send_node=7,
        origin_uid=first,
        pset=_point(V(f"ps{first}::id")),
        dest=V(f"ps{last}::id"),
        value=V(f"ps{first}::x") + 2,
        mtype="int",
    )
    return SymbolicState(cg, tuple(psets), (pending,), next_uid=10)


def _assert_aligned_like_two_phase(old, new):
    client = SimpleSymbolicClient()
    before = (new.cg.fingerprint(), new.psets, new.pendings)
    fast = client._align_uids(old, new)
    ref = two_phase_align(client, old, new)
    assert [e.uid for e in fast.psets] == [e.uid for e in old.psets]
    assert [e.uid for e in fast.psets] == [e.uid for e in ref.psets]
    assert [p.origin_uid for p in fast.pendings] == [
        p.origin_uid for p in ref.pendings
    ]
    # states_equal compares in-flight sends by their ProcSet objects, which
    # two separately built states never share; the fingerprint compares the
    # graphs, the uids, every range and every in-flight send by value
    assert client.state_fingerprint(fast) == client.state_fingerprint(ref)
    assert client.states_equal(fast, replace(ref, pendings=fast.pendings))
    assert fast.cg.variables() == ref.cg.variables()
    assert (new.cg.fingerprint(), new.psets, new.pendings) == before
    return fast


def test_a_swap_of_two_uids():
    old = _state([3, 5])
    new = _state([5, 3])
    fast = _assert_aligned_like_two_phase(old, new)
    # the set at position 0 (rank 0) now lives in namespace 3
    assert fast.cg.const_value("ps3::id") == 0
    assert fast.cg.const_value("ps5::x") == 2


def test_a_three_cycle_of_uids():
    old = _state([1, 2, 3])
    new = _state([2, 3, 1])
    fast = _assert_aligned_like_two_phase(old, new)
    assert [fast.cg.const_value(f"ps{uid}::id") for uid in (1, 2, 3)] == [0, 1, 2]


def test_a_stale_target_namespace_is_purged_first():
    old = _state([1, 2])
    # namespace 2 is dead in the newer state, but a variable of it is still
    # tracked and the second set's lower bound still names it
    new = _state([1, 4], extra_vars=[("ps2::x", "ps4::id", 0)])
    lb = Bound({V("ps2::x")})
    entry = new.psets[1]
    new.psets = (
        new.psets[0],
        PSetEntry(entry.uid, ProcSet([SymRange(lb, entry.pset.ranges[0].ub)])),
    )
    fast = _assert_aligned_like_two_phase(old, new)
    assert not any(n.startswith("ps4::") for n in fast.cg.variables())
    assert V("ps2::id") in fast.psets[1].pset.ranges[0].lb.exprs
