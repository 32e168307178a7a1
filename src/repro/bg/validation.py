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
* a read action calls :meth:`read_begin` before its KVS reads and
  validates each observed value.

A read observing value ``v`` over window ``[floor, end]`` is *acceptable*
when ``v`` equals the item's committed value at some sequence point in the
window -- where ``floor`` is extended back to the begin-point of the
oldest write session still mid-flight when the read started.  That
extension encodes the paper's re-arrangement rule: a read overlapping a
mid-flight write session may serialize before it and legitimately observe
the pre-write value.  Anything outside the window is unpredictable data
(stale): exactly what Tables 1 and 7 count.

A timeline is a forward-linked chain of immutable versions.  A read
window holds the version current at its floor and walks forward to its
end, so reads take no lock unless a writer of the item is in flight or
the item's newest version is newer than the sequence the reader read.  A
writer links its version before it publishes its sequence number, so a
walk bounded by a published sequence never meets a half-recorded write.
The log itself anchors only each item's newest version and the version
current at each in-flight writer's begin-point; a version no window or
anchor reaches is freed by refcount, so a run's memory follows its
concurrency, not its length.
"""

import itertools
import threading


class _Version:
    """One committed value of an item; ``next`` is linked once, by the
    writer of the following value."""

    __slots__ = ("seq", "value", "next")

    def __init__(self, seq, value):
        self.seq = seq
        self.value = value
        self.next = None


class _ItemTimeline:
    """Newest version + in-flight writer anchors for one item."""

    __slots__ = ("latest", "inflight")

    def __init__(self, initial_seq, initial_value):
        self.latest = _Version(initial_seq, initial_value)
        #: write handle id -> (begin seq, version current at begin seq)
        self.inflight = {}


class _ReadWindow(dict):
    """``{item: floor}`` of one read, as :meth:`ValidationLog.read_begin`
    returns it; ``heads`` maps each registered item to the version
    current at its floor."""

    __slots__ = ("heads",)


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
        #: the newest published sequence: every version at or below it
        #: is linked into its item's chain
        self._current_seq = 0
        self._items = {}
        self._handles = itertools.count(1)
        # ``next()`` on an itertools.count is one atomic step, so
        # validations count without the lock; the count is read by
        # drawing from it too (see _reads_taken).
        self._read_ticks = itertools.count()
        self._uncounted_ticks = 0
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
                    timeline.inflight[handle.handle_id] = (
                        begin_seq, timeline.latest
                    )
            return handle

    def record(self, item, value):
        """Record an item's new committed value (call from on_commit)."""
        with self._lock:
            self._current_seq = self._link(item, value)

    def _link(self, item, value):
        """Caller holds the lock: link ``value`` as the item's newest
        version under a fresh sequence number, which the caller then
        publishes."""
        seq = next(self._seq)
        timeline = self._items.get(item)
        if timeline is not None:
            version = _Version(seq, value)
            timeline.latest.next = version
            timeline.latest = version
        return seq

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
        begin-seq of the oldest in-flight writer of the item.  Pass the
        returned mapping to :meth:`validate`.
        """
        # Sequence first, writers second: a writer that was in flight at
        # the sequence read and is gone by the check recorded either
        # before it (its value is current at the floor) or after it (the
        # newest version is then newer than the floor), so an empty
        # in-flight map plus a newest version at or below the floor means
        # the floor is what a read_begin under the lock would return.
        current = self._current_seq
        window = _ReadWindow()
        heads = window.heads = {}
        timelines = self._items
        for item in items:
            timeline = timelines.get(item)
            if timeline is not None:
                if timeline.inflight:
                    return self._read_begin_locked(items)
                head = timeline.latest
                if head.seq > current:
                    return self._read_begin_locked(items)
                heads[item] = head
            window[item] = current
        return window

    def _read_begin_locked(self, items):
        with self._lock:
            current = self._current_seq
            window = _ReadWindow()
            heads = window.heads = {}
            for item in items:
                floor = current
                timeline = self._items.get(item)
                if timeline is not None:
                    head = timeline.latest
                    for begin, anchor in timeline.inflight.values():
                        if begin < floor:
                            floor, head = begin, anchor
                    heads[item] = head
                window[item] = floor
            return window

    def read_end(self):
        """The end-of-window sequence."""
        return self._current_seq

    def acceptable_values(self, item, window, end):
        """The set of values ``item`` legitimately held over ``window``
        (as :meth:`read_begin` returned it) up to sequence ``end``."""
        version = window.heads.get(item)
        if version is None:
            return None
        values = set()
        while version is not None and version.seq <= end:
            values.add(version.value)
            version = version.next
        return values

    def validate(self, item, observed, window, end=None, kind=None):
        """Check one observed value against ``window`` (as
        :meth:`read_begin` returned it); returns True when acceptable.

        ``end`` defaults to the sequence published now.
        """
        if end is None:
            end = self._current_seq
        next(self._read_ticks)
        version = window.heads.get(item)
        if version is None:
            return True
        # Forward from the version current at the floor: everything
        # committed up to ``end``.
        while version is not None and version.seq <= end:
            if version.value == observed:
                return True
            version = version.next
        with self._lock:
            self._unpredictable += 1
            label = kind or (item[0] if isinstance(item, tuple) else str(item))
            self._unpredictable_by_item_kind[label] = (
                self._unpredictable_by_item_kind.get(label, 0) + 1
            )
        return False

    # -- reporting ----------------------------------------------------------------------

    def _reads_taken(self):
        """Caller holds the lock: validations counted since the last
        reset.  Reading draws one tick itself, remembered as uncounted."""
        reads = next(self._read_ticks) - self._uncounted_ticks
        self._uncounted_ticks += 1
        return reads

    def reads(self):
        with self._lock:
            return self._reads_taken()

    def unpredictable_reads(self):
        with self._lock:
            return self._unpredictable

    def unpredictable_percentage(self):
        """Percentage of validated reads that observed unpredictable data."""
        with self._lock:
            reads = self._reads_taken()
            if reads == 0:
                return 0.0
            return 100.0 * self._unpredictable / reads

    def history_size(self):
        """Versions the log itself still anchors, over all items: from
        the oldest in-flight writer's begin-point (or the newest version)
        to the newest."""
        with self._lock:
            size = 0
            for timeline in self._items.values():
                version = timeline.latest
                for _begin, anchor in timeline.inflight.values():
                    if anchor.seq < version.seq:
                        version = anchor
                while version is not None:
                    size += 1
                    version = version.next
            return size

    def breakdown(self):
        """Unpredictable counts per item kind (diagnostics)."""
        with self._lock:
            return dict(self._unpredictable_by_item_kind)

    def reset_counters(self):
        with self._lock:
            self._uncounted_ticks = next(self._read_ticks) + 1
            self._unpredictable = 0
            self._unpredictable_by_item_kind.clear()
