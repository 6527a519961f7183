"""Aligning a joined state's namespaces is one simultaneous rename.

``SimpleSymbolicClient._align_uids`` renames the namespaces of the newer
state so that each set position and each in-flight send carries the older
state's uid, after projecting out the dead namespaces it renames into.
Set bounds are variables of their namespace, so they move with it.  The
graph's ``rename`` maps every name at once, so a swap or a cycle of uids
needs no temporary names.  The reference below is the two-phase rename
through temporary uids that the one-phase rename replaces.
"""

from typing import Dict

from repro.analyses.simple_symbolic import (
    Pending,
    PSetEntry,
    SimpleSymbolicClient,
    SymbolicState,
    _in_flight_order,
    _store,
    _stored,
)
from repro.cgraph.constraint_graph import ConstraintGraph
from repro.expr.linear import LinearExpr
from repro.procset.interval import ProcSet

V = LinearExpr.var


def two_phase_align(old, new):
    mapping: Dict[int, int] = {
        theirs.uid: mine.uid
        for mine, theirs in zip(old.psets, new.psets)
        if mine.uid != theirs.uid
    }
    for mine, theirs in zip(_in_flight_order(old), _in_flight_order(new)):
        if mine.origin_uid != theirs.origin_uid:
            mapping[theirs.origin_uid] = mine.origin_uid
    aligned = new.copy()
    temp_base = max(
        [old.next_uid, new.next_uid] + list(mapping.values()) + list(mapping)
    ) + 1
    phase1 = {src: temp_base + i for i, src in enumerate(mapping)}
    phase2 = {phase1[src]: dst for src, dst in mapping.items()}
    owned = {e.uid for e in new.psets} | {p.origin_uid for p in new.pendings}
    for target in mapping.values():
        if target not in owned:
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
            PSetEntry(uid, _stored(uid, len(e.pset.ranges)))
            for e in aligned.psets
            for uid in [phase.get(e.uid, e.uid)]
        )
        aligned.pendings = tuple(
            Pending(
                p.send_node,
                uid,
                _stored(uid, len(p.pset.ranges)),
                p.dest.substitute(bindings) if p.dest else p.dest,
                p.value.substitute(bindings) if p.value else p.value,
                p.mtype,
            )
            for p in aligned.pendings
            for uid in [phase.get(p.origin_uid, p.origin_uid)]
        )
    return aligned


def _state(uids, sent_uid=9, extra_vars=()) -> SymbolicState:
    """Set ``k`` of ``uids`` owns ``ps<uid>::id`` in ``[k..k]`` and a
    variable ``x`` one above its rank; the first set has a send in flight
    (namespace ``sent_uid``) whose destination is the last set's rank."""
    cg = ConstraintGraph()
    cg.add_var("np")
    cg.add_lower("np", len(uids))
    for k, uid in enumerate(uids):
        cg.set_const(f"ps{uid}::id", k)
        cg.add_eq_diff(f"ps{uid}::id", f"ps{uid}::x", 1)
    for name, base, offset in extra_vars:
        cg.add_eq_diff(base, name, offset)
    cg.close()
    psets = tuple(
        PSetEntry(uid, _store(cg, uid, ProcSet.point(V(f"ps{uid}::id"))))
        for uid in uids
    )
    first, last = uids[0], uids[-1]
    cg.assign(f"ps{sent_uid}::x", V(f"ps{first}::x"))
    cg.assign(f"ps{sent_uid}::to", V(f"ps{last}::id"))
    pending = Pending(
        send_node=7,
        origin_uid=sent_uid,
        pset=_store(cg, sent_uid, psets[0].pset),
        dest=V(f"ps{sent_uid}::to"),
        value=V(f"ps{sent_uid}::x") + 2,
        mtype="int",
    )
    return SymbolicState(cg, psets, (pending,), next_uid=10)


def _assert_aligned_like_two_phase(old, new):
    client = SimpleSymbolicClient()
    before = (new.cg.fingerprint(), new.psets, new.pendings)
    fast = client._align_uids(old, new)
    ref = two_phase_align(old, new)
    assert [e.uid for e in fast.psets] == [e.uid for e in old.psets]
    assert [e.uid for e in fast.psets] == [e.uid for e in ref.psets]
    assert [p.origin_uid for p in fast.pendings] == [
        p.origin_uid for p in old.pendings
    ]
    assert client.state_fingerprint(fast) == client.state_fingerprint(ref)
    assert client.states_equal(fast, ref)
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
    assert fast.cg.const_value("ps3::.lb0") == 0


def test_a_three_cycle_of_uids():
    old = _state([1, 2, 3], sent_uid=4)
    new = _state([2, 3, 4], sent_uid=1)
    fast = _assert_aligned_like_two_phase(old, new)
    assert [fast.cg.const_value(f"ps{uid}::id") for uid in (1, 2, 3)] == [0, 1, 2]
    # the in-flight send moved from namespace 1 to namespace 4
    assert fast.pendings[0].dest == V("ps4::to")
    assert fast.cg.const_value("ps4::to") == 2


def test_a_stale_target_namespace_is_purged_first():
    old = _state([1, 2])
    # namespace 2 is dead in the newer state, but a variable of it is still
    # tracked, equal to the second set's lower bound
    new = _state([1, 4], extra_vars=[("ps2::x", "ps4::id", 0)])
    assert V("ps2::x") in new.cg.equivalents(V("ps4::.lb0"))
    fast = _assert_aligned_like_two_phase(old, new)
    assert not any(n.startswith("ps4::") for n in fast.cg.variables())
    assert fast.cg.const_value("ps2::.lb0") == 1
    assert V("ps2::id") in fast.cg.equivalents(V("ps2::.lb0"))
