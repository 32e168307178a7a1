"""Self time is a span minus what its children cover."""

import threading

import pytest

from spans import BG, NET, POLICIES, ROUTER, SQL, Tracer, self_times


def test_nested_and_adjacent_children():
    #   0: root      [0, 10]
    #   1:   child   [1, 4]
    #   2:     leaf  [2, 3]
    #   3:   child   [4, 9]     adjacent to span 1
    start = [0.0, 1.0, 2.0, 4.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = self_times(start, end, parent)
    assert own == [2.0, 2.0, 1.0, 5.0]
    assert sum(own) == end[0] - start[0]


def test_parallel_children_subtract_their_union_once():
    # two fan-out legs overlapping on other threads, one inline child
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 5.0, 6.0, 7.0]
    parent = [-1, 0, 0, 0]
    own = self_times(start, end, parent, adopted={1, 2})
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)
    # an adopted child that outlives its parent is clipped to it
    own = self_times([0.0, 8.0], [10.0, 12.0], [-1, 0], adopted={1})
    assert own[0] == pytest.approx(8.0)


def test_tracer_parents_by_thread_and_numbers_actions():
    tracer = Tracer()

    def leaf():
        return "done"

    sql = tracer.wrap(SQL, "execute", leaf)
    policy = tracer.wrap(POLICIES, "read", lambda: (sql(), sql()))
    action = tracer.wrap(BG, "action", policy)
    action()
    action()
    assert list(tracer.parent) == [-1, 0, 1, 1, -1, 4, 5, 5]
    assert list(tracer.action) == [0, 0, 0, 0, 1, 1, 1, 1]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    own = self_times(tracer.start, tracer.end, tracer.parent)
    roots = sum(
        tracer.end[i] - tracer.start[i] for i in (0, 4)
    )
    assert sum(own) == pytest.approx(roots)
    tracer.clear()
    assert len(tracer.start) == 0
    action()
    assert list(tracer.action) == [0, 0, 0, 0]


def test_spans_on_a_pool_thread_are_adopted_by_the_open_fanout():
    tracer = Tracer()
    leg = tracer.wrap(NET, "commit", lambda: None)

    def commit():
        thread = threading.Thread(target=leg)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()

    fanout = tracer.wrap(ROUTER, "commit", commit, fanout=True)
    action = tracer.wrap(BG, "action", fanout)
    action()
    assert list(tracer.parent) == [-1, 0, 1]
    assert tracer.adopted == {2}
    assert tracer.action[2] == 0
    # with no fan-out open, a fresh thread's bg span starts a new action
    thread = threading.Thread(target=action)
    thread.start()
    thread.join(timeout=5)
    assert tracer.action[3] == 1 and tracer.parent[3] == -1
