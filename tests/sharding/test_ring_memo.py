"""The live ring's key -> owner memo never answers for an arrangement
that is gone, and never grows past its cap."""

import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sharding import ConsistentHashRing
from repro.sharding import ring as ring_module

KEYS = ["user:{}".format(i) for i in range(40)]
NODES = ["n{}".format(i) for i in range(6)]

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), st.sampled_from(KEYS)),
        st.tuples(st.just("add"), st.sampled_from(NODES)),
        st.tuples(st.just("remove"), st.sampled_from(NODES)),
        st.tuples(st.just("bump"), st.none()),
    ),
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(steps=STEPS, cap=st.sampled_from([3, 16, ring_module.MEMO_CAP]))
def test_memo_agrees_with_a_fresh_view_after_every_step(steps, cap):
    with mock.patch.object(ring_module, "MEMO_CAP", cap):
        ring = ConsistentHashRing(["n0", "n1"], vnodes=16)
        seen = set()
        for op, arg in steps:
            if op == "lookup":
                ring.node_for(arg)
                seen.add(arg)
                assert arg in ring._memo
            elif op == "add" and arg not in ring.nodes:
                ring.add_node(arg)
            elif op == "remove" and arg in ring.nodes and len(ring) > 1:
                ring.remove_node(arg)
            elif op == "bump":
                ring.bump_epoch()
            view = ring.view()
            for key in seen:
                assert ring.node_for(key) == view.node_for(key)
            assert len(ring._memo) <= cap


def test_bytes_and_str_keys_agree():
    ring = ConsistentHashRing(["a", "b", "c"])
    for i in range(50):
        key = "k{}".format(i)
        assert ring.node_for(key) == ring.node_for(key.encode())
        assert ring.node_for(key) == ring.view().node_for(key)


def test_empty_ring_still_refuses_after_its_last_node_leaves():
    ring = ConsistentHashRing(["only"])
    assert ring.node_for("k") == "only"
    ring.remove_node("only")
    with pytest.raises(ValueError):
        ring.node_for("k")  # not answered from the memo


def test_lookups_racing_topology_changes_leave_no_stale_memo_entry():
    ring = ConsistentHashRing(["n0", "n1"], vnodes=16)
    stop = threading.Event()
    errors = []

    def reader(seed):
        rng = random.Random(seed)
        try:
            while not stop.is_set():
                ring.node_for(rng.choice(KEYS))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    readers = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in readers:
            thread.start()
        for round_ in range(200):
            node = NODES[2 + round_ % 4]
            ring.add_node(node)
            ring.remove_node(node)
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors
    view = ring.view()
    for key, owner in list(ring._memo.items()):
        assert owner == view.node_for(key), key
