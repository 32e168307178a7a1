"""Transaction lifecycle and the transaction manager.

Snapshot isolation is implemented the standard way:

* every transaction receives a unique ``txid`` and a *snapshot*: the value
  of the global commit sequence at begin time;
* at commit, the transaction receives the next commit sequence number
  (its ``commit_ts``);
* row versions record the creating/deleting txids, and visibility is
  evaluated against the reader's snapshot (:mod:`repro.sql.mvcc`);
* write-write conflicts abort the later writer immediately
  (first-updater-wins, the non-blocking flavour of first-committer-wins).
"""

import enum
import itertools
import threading

from repro.errors import TransactionStateError


class TransactionStatus(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class IsolationLevel(enum.Enum):
    """Isolation levels the engine can run a transaction under.

    ``SNAPSHOT`` is what the paper's MySQL deployment provides and what
    every experiment uses.  ``READ_COMMITTED`` re-snapshots before every
    statement; it exists to let tests demonstrate that the Figure 3 race is
    a *snapshot isolation* artifact (under read-committed the window is
    narrower but the race family persists).
    """

    SNAPSHOT = "snapshot"
    READ_COMMITTED = "read committed"


class Transaction:
    """Mutable per-transaction state.

    ``snapshot`` is the commit sequence visible to the transaction's reads.
    ``write_set`` records ``(table, rowid)`` pairs for conflict bookkeeping
    and release of row write locks.  ``created_versions`` and
    ``deleted_versions`` let tests assert on rollback behaviour; MVCC makes
    rollback itself a no-op (aborted versions are simply never visible).
    """

    def __init__(self, txid, snapshot, isolation=IsolationLevel.SNAPSHOT):
        self.txid = txid
        self.snapshot = snapshot
        self.isolation = isolation
        self.status = TransactionStatus.ACTIVE
        self.commit_ts = None
        self.write_set = set()
        self.created_versions = []
        self.deleted_versions = []
        #: Deferred actions run after a successful commit (used by the
        #: trigger machinery for AFTER COMMIT hooks).
        self.on_commit = []
        #: Deferred actions run after an abort.
        self.on_abort = []

    @property
    def is_active(self):
        return self.status == TransactionStatus.ACTIVE

    def ensure_active(self):
        if self.status != TransactionStatus.ACTIVE:
            raise TransactionStateError(
                "transaction {} is {}".format(self.txid, self.status.value)
            )

    def __repr__(self):
        return "Transaction(txid={}, snapshot={}, status={})".format(
            self.txid, self.snapshot, self.status.value
        )


class TransactionManager:
    """Allocates txids/snapshots and arbitrates commit ordering.

    A single mutex orders begin/commit/abort; statement execution holds the
    engine latch separately (see :class:`repro.sql.engine.Database`).

    What the manager remembers is bounded by what is stored, not by how
    many transactions ever ran: open transactions, plus the outcome of
    each finished *writer* until a vacuum pass finds no stored version
    naming it (:meth:`forget_finished_except`).  A transaction that wrote
    nothing leaves no record.  ``gc_horizon`` lets the pass prune version
    chains no live snapshot can see.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._txid_counter = itertools.count(1)
        self._commit_seq = 0
        #: txid -> open Transaction
        self._active = {}
        #: txid -> commit_ts of each committed writer a stored version
        #: may name.  Visibility reads it without the mutex: an entry is
        #: published before any snapshot at or past its timestamp exists,
        #: and a single ``dict.get`` is atomic.
        self.commit_ts = {}
        #: txids of aborted writers a stored version may name (same
        #: mutex-free read rule).
        self.aborted = set()
        #: key -> highest promised "no commit before this tick" horizon
        #: (see repro.sql.clock; registered and consumed under _lock so
        #: promises serialize with commit ordering).
        self._write_horizons = {}
        #: key -> per-key validity clock: advances only on clock-keyed
        #: commits naming the key, jumping past its promised horizon.
        #: Validity intervals live on this clock, not the global commit
        #: seq, so a write to one key never ages another key's interval
        #: (Misra et al.'s earliest *next write* is a per-item bound).
        self._key_clocks = {}
        #: key -> commit seq of its last clock-keyed commit.
        self._last_clock_write = {}
        #: key -> smallest observed gap between clock-keyed commits.
        self._clock_write_gap = {}

    def begin(self, isolation=IsolationLevel.SNAPSHOT):
        """Start a transaction with a snapshot of the current commit seq."""
        with self._lock:
            txid = next(self._txid_counter)
            tx = Transaction(txid, self._commit_seq, isolation)
            self._active[txid] = tx
            return tx

    def refresh_snapshot(self, tx):
        """Advance ``tx``'s snapshot to now (read-committed per-statement)."""
        tx.ensure_active()
        with self._lock:
            tx.snapshot = self._commit_seq

    def commit(self, tx, clock_keys=None):
        """Commit ``tx``, assigning it the next commit sequence number.

        ``clock_keys`` declares the cache keys this transaction
        invalidates under the precise-clock technique (see
        :mod:`repro.sql.clock`): each named key's validity clock jumps
        to at least its promised horizon, so every interval covering
        that key has expired by the time the new value is visible.  The
        jump is a per-key logical-clock advance -- no waiting, no cache
        round trip, and no aging of any *other* key's interval.
        """
        tx.ensure_active()
        with self._lock:
            if not clock_keys and not tx.write_set \
                    and not tx.created_versions and not tx.deleted_versions:
                # Read-only commit: nothing became visible, so the clock
                # does not advance.  Besides matching what real MVCC
                # engines do, this keeps autocommit SELECT bursts from
                # aging the precise-clock validity intervals (each tick
                # of the clock brings every cached interval one step
                # closer to self-invalidation).
                tx.commit_ts = self._commit_seq
            else:
                next_seq = self._commit_seq + 1
                self._commit_seq = next_seq
                tx.commit_ts = next_seq
                if clock_keys:
                    for key in clock_keys:
                        horizon = self._write_horizons.pop(key, 0)
                        self._key_clocks[key] = max(
                            self._key_clocks.get(key, 0) + 1, horizon
                        )
            tx.status = TransactionStatus.COMMITTED
            if tx.write_set:
                self.commit_ts[tx.txid] = tx.commit_ts
            self._active.pop(tx.txid, None)
            if clock_keys:
                for key in clock_keys:
                    previous = self._last_clock_write.get(key)
                    if previous is not None:
                        gap = next_seq - previous
                        best = self._clock_write_gap.get(key)
                        if best is None or gap < best:
                            self._clock_write_gap[key] = gap
                    self._last_clock_write[key] = next_seq
        for action in tx.on_commit:
            action()
        tx.on_commit = []
        return tx.commit_ts

    def abort(self, tx):
        """Abort ``tx``; its versions become permanently invisible."""
        if tx.status == TransactionStatus.ABORTED:
            return
        tx.ensure_active()
        with self._lock:
            tx.status = TransactionStatus.ABORTED
            if tx.write_set:
                self.aborted.add(tx.txid)
            self._active.pop(tx.txid, None)
        for action in tx.on_abort:
            action()
        tx.on_abort = []

    def forget_finished_except(self, named):
        """Drop the outcome of every finished writer not in ``named``.

        Called by the vacuum pass with the txids its surviving versions
        carry; nothing stored can ask about the others again.
        """
        with self._lock:
            for txid in [t for t in self.commit_ts if t not in named]:
                del self.commit_ts[txid]
            self.aborted &= named

    def record_count(self):
        """Open transactions plus remembered finished writers."""
        with self._lock:
            return len(self._active) + len(self.commit_ts) + len(self.aborted)

    def current_commit_seq(self):
        with self._lock:
            return self._commit_seq

    # -- write horizons (precise-clock self-invalidation) ----------------------

    def promise_no_write_before(self, key, ticks):
        """Register a write horizon for ``key``; returns ``(now, expiry)``.

        Serialized with :meth:`commit` on the same mutex, so a promise
        either precedes a clock-keyed commit (which then jumps the key's
        clock past the horizon) or follows it (and reads the post-commit
        clock).  ``now`` is the *key's* validity clock, not the global
        commit seq.  Horizons only ever grow; a shorter concurrent
        promise reuses the existing one.
        """
        ticks = max(1, int(ticks))
        with self._lock:
            now = self._key_clocks.get(key, 0)
            horizon = max(self._write_horizons.get(key, 0), now + ticks)
            self._write_horizons[key] = horizon
            return now, horizon

    def promised_horizon(self, key):
        """The outstanding horizon for ``key`` (0 when none is live)."""
        with self._lock:
            return self._write_horizons.get(key, 0)

    def key_clock(self, key):
        """``key``'s validity-clock reading (0 before its first write)."""
        with self._lock:
            return self._key_clocks.get(key, 0)

    def key_clock_snapshot(self):
        """Sorted per-key clocks -- model-checker fingerprint material."""
        with self._lock:
            return tuple(sorted(self._key_clocks.items()))

    def clock_write_gap(self, key):
        """Smallest observed gap between clock-keyed commits of ``key``.

        ``None`` until two such commits have happened -- the conservative
        earliest-next-write bound :class:`repro.sql.clock.CommitClock`
        sizes promises from.
        """
        with self._lock:
            return self._clock_write_gap.get(key)

    def horizon_snapshot(self):
        """Sorted live horizons -- model-checker fingerprint material."""
        with self._lock:
            return tuple(sorted(self._write_horizons.items()))

    def active_count(self):
        with self._lock:
            return len(self._active)

    def gc_horizon(self):
        """Oldest snapshot any active transaction may read.

        Versions deleted at or before this horizon (by a committed deleter)
        can be physically reclaimed by vacuum.
        """
        with self._lock:
            if not self._active:
                return self._commit_seq
            return min(tx.snapshot for tx in self._active.values())
