"""The unpredictable-read detector."""

import random
import sys
import threading
import time

import pytest

from repro.bg.validation import ValidationLog
from tests.bg.test_steady_state import ReferenceLog


ITEM = ("pendingcount", 1)


def test_initial_value_is_acceptable():
    log = ValidationLog()
    log.register(ITEM, 0)
    floors = log.read_begin([ITEM])
    end = log.read_end()
    assert log.validate(ITEM, 0, floors, end)
    assert log.unpredictable_reads() == 0


def test_old_value_after_commit_is_stale():
    log = ValidationLog()
    log.register(ITEM, 0)
    handle = log.write_begin([ITEM])
    log.record(ITEM, 1)
    log.write_end(handle)
    floors = log.read_begin([ITEM])
    end = log.read_end()
    assert not log.validate(ITEM, 0, floors, end)
    assert log.validate(ITEM, 1, floors, end)
    assert log.unpredictable_reads() == 1
    assert log.reads() == 2


def test_read_overlapping_write_may_see_either_value():
    """The re-arrangement rule: a read that starts while a write session
    is mid-flight may serialize before it."""
    log = ValidationLog()
    log.register(ITEM, 0)
    handle = log.write_begin([ITEM])
    log.record(ITEM, 1)  # RDBMS committed, KVS ops still pending
    floors = log.read_begin([ITEM])
    end = log.read_end()
    assert log.validate(ITEM, 0, floors, end)  # pre-write value OK
    assert log.validate(ITEM, 1, floors, end)  # new value also OK
    log.write_end(handle)


def test_after_write_end_old_value_is_stale():
    log = ValidationLog()
    log.register(ITEM, 0)
    handle = log.write_begin([ITEM])
    log.record(ITEM, 1)
    log.write_end(handle)
    floors = log.read_begin([ITEM])
    assert not log.validate(ITEM, 0, floors, log.read_end())


def test_value_committed_during_read_window_is_acceptable():
    log = ValidationLog()
    log.register(ITEM, 0)
    floors = log.read_begin([ITEM])
    handle = log.write_begin([ITEM])
    log.record(ITEM, 1)
    log.write_end(handle)
    end = log.read_end()
    assert log.validate(ITEM, 0, floors, end)
    assert log.validate(ITEM, 1, floors, end)


def test_never_held_value_is_always_stale():
    log = ValidationLog()
    log.register(ITEM, 0)
    floors = log.read_begin([ITEM])
    assert not log.validate(ITEM, 42, floors, log.read_end())


def test_two_writes_in_window_all_intermediate_values_ok():
    log = ValidationLog()
    log.register(ITEM, 0)
    floors = log.read_begin([ITEM])
    for value in (1, 2):
        handle = log.write_begin([ITEM])
        log.record(ITEM, value)
        log.write_end(handle)
    end = log.read_end()
    for value in (0, 1, 2):
        assert log.validate(ITEM, value, floors, end)
    assert not log.validate(ITEM, 3, floors, end)


def test_set_valued_items():
    item = ("friends", 5)
    log = ValidationLog()
    log.register(item, frozenset({1, 2}))
    handle = log.write_begin([item])
    log.record(item, frozenset({1, 2, 3}))
    log.write_end(handle)
    floors = log.read_begin([item])
    end = log.read_end()
    assert log.validate(item, frozenset({1, 2, 3}), floors, end)
    assert not log.validate(item, frozenset({1, 2}), floors, end)


def test_unregistered_item_is_not_counted_stale():
    log = ValidationLog()
    floors = log.read_begin([ITEM])
    assert log.validate(ITEM, 123, floors, log.read_end())
    assert log.unpredictable_reads() == 0


def test_percentage_and_breakdown():
    log = ValidationLog()
    log.register(ITEM, 0)
    handle = log.write_begin([ITEM])
    log.record(ITEM, 1)
    log.write_end(handle)
    floors = log.read_begin([ITEM])
    end = log.read_end()
    log.validate(ITEM, 1, floors, end)
    log.validate(ITEM, 0, floors, end, kind="pendingcount")
    assert log.unpredictable_percentage() == 50.0
    assert log.breakdown() == {"pendingcount": 1}
    log.reset_counters()
    assert log.reads() == 0
    assert log.unpredictable_percentage() == 0.0


def test_floor_extends_to_oldest_inflight_writer():
    """A long-running write session keeps the pre-write value acceptable
    for reads that start any time before its KVS ops finish."""
    log = ValidationLog()
    log.register(ITEM, 0)
    slow = log.write_begin([ITEM])
    log.record(ITEM, 1)
    fast = log.write_begin([ITEM])
    log.record(ITEM, 2)
    log.write_end(fast)
    floors = log.read_begin([ITEM])
    end = log.read_end()
    # value 0 acceptable only because `slow` began before it changed
    # anything and is still mid-flight.
    assert log.validate(ITEM, 0, floors, end)
    log.write_end(slow)
    floors = log.read_begin([ITEM])
    assert not log.validate(ITEM, 0, floors, log.read_end())


# -- reads that take no lock, against writers mid-record ---------------------------


def _start(fn, *args):
    """Run ``fn(*args)`` on a daemon thread; ``box`` gets its result."""
    box = []
    thread = threading.Thread(target=lambda: box.append(fn(*args)),
                              daemon=True)
    thread.start()
    return thread, box


@pytest.mark.parametrize("writer_in_flight", [True, False])
def test_read_begin_mid_record_matches_reference(writer_in_flight):
    """A version is linked but its sequence not yet published: reads of
    other items and validations of older windows finish without the
    lock, as if the record had not begun; a read_begin of the item waits
    for the publish and then floors as if it had finished."""
    items = ("a", "b")
    log = ValidationLog()
    reference = ReferenceLog(items)
    for item in items:
        log.register(item, 0)
    handle = log.write_begin(["a"])
    reference.write_begin(handle.handle_id, ["a"])
    log.record("a", 1)
    reference.record("a", 1)
    log.write_end(handle)
    reference.write_end(handle.handle_id, ["a"])
    early = log.read_begin(["a"])
    assert early == reference.read_begin(["a"])
    if writer_in_flight:
        handle = log.write_begin(["a"])
        reference.write_begin(handle.handle_id, ["a"])
    with log._lock:
        seq = log._link("a", 2)
        end = log.read_end()
        assert end == reference.seq
        thread, box = _start(log.read_begin, ["b"])
        thread.join(5)
        assert box == [reference.read_begin(["b"])]
        expected = reference.acceptable_values("a", early["a"], end)
        assert expected == {1}
        assert log.acceptable_values("a", early, end) == expected
        assert log.validate("a", 1, early)
        # The linked value is not yet in any window; flagging it needs
        # the lock for the count, so that waits.
        flagged, flag_box = _start(log.validate, "a", 2, early)
        reader, floors_box = _start(log.read_begin, ["a"])
        reader.join(0.2)
        assert reader.is_alive()
        log._current_seq = seq
    reference.record("a", 2)
    reader.join(5)
    flagged.join(5)
    assert flag_box == [False]
    floors = floors_box[0]
    assert floors == reference.read_begin(["a"])
    end = log.read_end()
    expected = reference.acceptable_values("a", floors["a"], end)
    assert log.acceptable_values("a", floors, end) == expected
    assert log.validate("a", 1, floors) == (1 in expected)
    assert log.validate("a", 2, floors)
    assert log.reads() == 4
    assert log.unpredictable_reads() == (0 if 1 in expected else 1) + 1


def test_threaded_reads_never_misjudge():
    """Writers and lock-free readers switching every microsecond: a
    value current when read is never flagged, and a value superseded by
    a write that ended before the read began always is.  Counts are
    exact."""
    items = ["i{}".format(n) for n in range(4)]
    log = ValidationLog()
    for item in items:
        log.register(item, 0)
    truth = {item: 0 for item in items}
    retired = {item: None for item in items}
    failures = []
    tallies = []

    done = threading.Event()
    start = threading.Barrier(len(items) + 3)

    def writer(item):
        start.wait()
        value = 0
        while not done.is_set():
            value += 1
            handle = log.write_begin([item])
            log.record(item, value)  # the RDBMS commit
            time.sleep(0)  # readers still see the old value here ...
            truth[item] = value  # ... until the KVS is updated
            log.write_end(handle)
            retired[item] = value - 1

    def reader(seed, rounds):
        start.wait()
        rng = random.Random(seed)
        reads = stale = 0
        for _ in range(rounds):
            chosen = rng.sample(items, rng.choice((1, 2)))
            old = {item: retired[item] for item in chosen}
            window = log.read_begin(chosen)
            for item in chosen:
                observed = truth[item]
                reads += 1
                if not log.validate(item, observed, window):
                    failures.append(("flagged current", item, observed))
                if old[item] is not None:
                    reads += 1
                    stale += 1
                    if log.validate(item, old[item], window):
                        failures.append(("missed stale", item, old[item]))
        tallies.append((reads, stale))

    writers = [threading.Thread(target=writer, args=(item,))
               for item in items]
    readers = [threading.Thread(target=reader, args=(seed, 3000))
               for seed in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in readers:
            thread.join()
        done.set()
        for thread in writers:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert log.reads() == sum(reads for reads, _ in tallies)
    assert log.unpredictable_reads() == sum(stale for _, stale in tallies)
    assert log.history_size() == len(items)
