"""Validation: detecting unpredictable (stale) reads.

BG "detects these by maintaining the initial state of a data item ... and
the change of value applied by each write action.  There is a finite
number of ways for a BG read action ... to overlap with a concurrent BG
action that writes data.  BG enumerates these to compute a range of
acceptable values."

We implement the same idea as a **ground-truth timeline** per logical data
item (a member's pending count, friend count, pending-invitation set,
friend set):

* a write action calls :meth:`ValidationLog.write_begin` before touching
  anything, records the item's post-commit value from an RDBMS
  ``on_commit`` hook (so recording order equals commit order), and calls
  :meth:`write_end` after its KVS operations complete;
* a read action brackets itself with :meth:`read_begin` /
  :meth:`read_end` and validates each observed value.

A read observing value ``v`` over window ``[floor, end]`` is *acceptable*
when ``v`` equals the item's committed value at some sequence point in the
window -- where ``floor`` is extended back to the begin-point of the
oldest write session still mid-flight when the read started.  That
extension encodes the paper's re-arrangement rule: a read overlapping a
mid-flight write session may serialize before it and legitimately observe
the pre-write value.  Anything outside the window is unpredictable data
(stale): exactly what Tables 1 and 7 count.

A timeline keeps only the history some window can still reach: the last
value at or before the earliest floor that is open (any read whose floors
are still held) or could yet be handed out (an in-flight writer's
begin-point, or now), and everything after it.  Older entries are dropped
as new ones are recorded, so a run's memory follows its concurrency, not
its length, and no verdict differs from the untrimmed log's.
"""

import collections
import itertools
import threading


class _ItemTimeline:
    """Committed value history + in-flight writer bookkeeping for one item."""

    __slots__ = ("history", "inflight")

    def __init__(self, initial_seq, initial_value):
        #: list of (seq, value), ascending by seq; trimmed by ``record``
        self.history = [(initial_seq, initial_value)]
        #: write handle id -> begin seq
        self.inflight = {}

    def window(self, floor, end):
        """Values held over ``[floor, end]``, newest first: everything
        committed inside the window, then the value current at ``floor``."""
        for seq, value in reversed(self.history):
            if seq <= end:
                yield value
                if seq <= floor:
                    return


class _ReadWindow(dict):
    """``{item: floor}`` of one read, as :meth:`ValidationLog.read_begin`
    returns it.  The window stays open -- the log keeps what its floors
    can reach -- for as long as the reader holds this object."""

    # Both set by read_begin (one per read action: no __init__ frame).
    __slots__ = ("_token", "_closed")

    def __del__(self):
        # May run in any thread at any point, so it only queues; the log
        # forgets the window under its own lock.
        self._closed.append(self._token)


class WriteHandle:
    """Returned by :meth:`ValidationLog.write_begin`."""

    __slots__ = ("handle_id", "items")

    def __init__(self, handle_id, items):
        self.handle_id = handle_id
        self.items = tuple(items)


class ValidationLog:
    """Ground-truth timelines for every validated data item.

    Items are identified by hashable keys, e.g. ``("pendingcount", 42)``
    or ``("friends", 7)``.  Values must be hashable (ints, frozensets).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._seq = itertools.count(1)
        self._current_seq = 0
        self._items = {}
        self._handles = itertools.count(1)
        self._windows = itertools.count(1)
        #: token of each live read window -> its lowest floor
        self._open = {}
        #: tokens of dropped read windows, not yet removed from _open
        self._closed = collections.deque()
        # statistics
        self._reads = 0
        self._unpredictable = 0
        self._unpredictable_by_item_kind = {}

    # -- item registration -------------------------------------------------------

    def register(self, item, initial_value):
        """Declare an item's deterministic initial value (load time)."""
        with self._lock:
            if item not in self._items:
                self._items[item] = _ItemTimeline(0, initial_value)

    def registered(self, item):
        with self._lock:
            return item in self._items

    # -- write protocol ---------------------------------------------------------------

    def write_begin(self, items):
        """Mark a write session touching ``items`` as in flight."""
        with self._lock:
            handle = WriteHandle(next(self._handles), items)
            begin_seq = self._current_seq
            for item in items:
                timeline = self._items.get(item)
                if timeline is not None:
                    timeline.inflight[handle.handle_id] = begin_seq
            return handle

    def record(self, item, value):
        """Record an item's new committed value (call from on_commit).

        Also drops the history no window can reach any more: all but the
        newest entry at or before the earliest floor that is open or could
        still be handed out.
        """
        with self._lock:
            seq = next(self._seq)
            self._current_seq = seq
            timeline = self._items.get(item)
            if timeline is None:
                return
            history = timeline.history
            history.append((seq, value))
            self._forget_closed()
            reach = min(
                [seq, *timeline.inflight.values(), *self._open.values()]
            )
            for index in range(len(history) - 1, 0, -1):
                if history[index][0] <= reach:
                    del history[:index]
                    break

    def _forget_closed(self):
        closed = self._closed
        while closed:
            del self._open[closed.popleft()]

    def write_end(self, handle):
        """The write session's KVS operations are complete."""
        with self._lock:
            for item in handle.items:
                timeline = self._items.get(item)
                if timeline is not None:
                    timeline.inflight.pop(handle.handle_id, None)

    # -- read protocol ----------------------------------------------------------------

    def read_begin(self, items):
        """Capture per-item window floors at read start.

        Returns ``{item: floor_seq}`` where the floor is backed up to the
        begin-seq of the oldest in-flight writer of the item.  Hold the
        returned mapping until the read's last :meth:`validate`.
        """
        with self._lock:
            if self._closed:
                self._forget_closed()
            floors = _ReadWindow()
            floors._closed = self._closed
            floors._token = next(self._windows)
            current = lowest = self._current_seq
            for item in items:
                timeline = self._items.get(item)
                floor = current
                if timeline is not None and timeline.inflight:
                    floor = min(current, min(timeline.inflight.values()))
                    lowest = min(lowest, floor)
                floors[item] = floor
            self._open[floors._token] = lowest
            return floors

    def read_end(self):
        """The end-of-window sequence."""
        with self._lock:
            return self._current_seq

    def acceptable_values(self, item, floor, end):
        """The set of values ``item`` legitimately held over the window."""
        with self._lock:
            timeline = self._items.get(item)
            if timeline is None:
                return None
            return set(timeline.window(floor, end))

    def validate(self, item, observed, floors, end, kind=None):
        """Check one observed value; returns True when acceptable."""
        with self._lock:
            self._reads += 1
            timeline = self._items.get(item)
            if timeline is None:
                return True
            floor = floors[item]
            # timeline.window(), unrolled: this runs once per read
            for seq, value in reversed(timeline.history):
                if seq <= end:
                    if value == observed:
                        return True
                    if seq <= floor:
                        break
            self._unpredictable += 1
            label = kind or (item[0] if isinstance(item, tuple) else str(item))
            self._unpredictable_by_item_kind[label] = (
                self._unpredictable_by_item_kind.get(label, 0) + 1
            )
            return False

    # -- reporting ----------------------------------------------------------------------

    def reads(self):
        with self._lock:
            return self._reads

    def unpredictable_reads(self):
        with self._lock:
            return self._unpredictable

    def unpredictable_percentage(self):
        """Percentage of validated reads that observed unpredictable data."""
        with self._lock:
            if self._reads == 0:
                return 0.0
            return 100.0 * self._unpredictable / self._reads

    def history_size(self):
        """History entries currently kept, over all items."""
        with self._lock:
            return sum(len(t.history) for t in self._items.values())

    def breakdown(self):
        """Unpredictable counts per item kind (diagnostics)."""
        with self._lock:
            return dict(self._unpredictable_by_item_kind)

    def reset_counters(self):
        with self._lock:
            self._reads = 0
            self._unpredictable = 0
            self._unpredictable_by_item_kind.clear()
