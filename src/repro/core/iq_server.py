"""IQ-Twemcached: the KVS extended with the IQ framework's commands.

Implements the ten commands of Section 5 of the paper on top of
:class:`repro.kvs.store.CacheStore`:

====  ======================  =====================================================
#     Command                 Purpose
====  ======================  =====================================================
1     ``iq_get``              read; on miss may grant an I lease (token)
2     ``iq_set``              install a value; honoured only with a live I token
3     ``qaread``              R of R-M-W (refresh): exclusive Q lease + read
4     ``sar``                 W of R-M-W (refresh): swap value + release Q
5     ``gen_id``              unique session/transaction identifier (TID)
6     ``qar``                 quarantine-and-register (invalidate)
7     ``dar``                 delete-and-release: apply invalidations (commit)
8     ``iq_delta``            propose an incremental change (append/prepend/...)
9     ``commit``              apply proposed deltas + pending deletes, release Qs
10    ``abort``               discard proposals, release Qs, keep current values
====  ======================  =====================================================

Optimizations (on by default via ``LeaseConfig.serve_pending_versions``):

* Section 3.3 -- a ``qar`` does **not** delete the key; other read sessions
  keep hitting the old version (they serialize before the writer) and the
  delete happens at ``dar``/``commit``.  The quarantining session itself is
  forced to observe a miss on its own key (read-your-own-RDBMS-update).
  With the optimization off, ``qar`` deletes immediately.
* Section 4.2.2 -- proposed deltas are buffered server-side and applied at
  ``commit``; the proposing session observes its own buffered change when
  it re-reads the key, while other sessions keep reading the old version.

Fault tolerance: when a Q lease's lifetime elapses the server deletes the
key-value pair and discards the session's proposals for it (Section 4.2,
condition 3), so a crashed application node cannot leave stale data behind.
"""

import itertools
import threading

from repro.config import KVSConfig, LeaseConfig
from repro.errors import BadValueError, QuarantinedError
from repro.kvs.stats import CacheStats
from repro.kvs.store import CacheStore, StoreResult
from repro.core.backend import LeaseBackend
from repro.core.leases import LeaseTable, QMode, QRequestOutcome
from repro.obs.trace import get_tracer
from repro.util.clock import SystemClock
from repro.util.tokens import TokenGenerator

#: Process-wide numbering for server incarnations; the ``srv`` field on
#: trace events, so shards and restarted servers cannot alias each other
#: in the auditor even when their TID spaces overlap.
_SERVER_IDS = itertools.count(1)


class IQGetResult:
    """Outcome of ``iq_get``: hit, miss-with-I-lease, or miss/backoff."""

    __slots__ = ("value", "token", "backoff")

    def __init__(self, value=None, token=None, backoff=False):
        self.value = value
        self.token = token
        self.backoff = backoff

    @property
    def is_hit(self):
        return self.value is not None

    @property
    def has_lease(self):
        return self.token is not None

    def __repr__(self):
        if self.is_hit:
            return "IQGetResult(hit, value={!r})".format(self.value)
        if self.has_lease:
            return "IQGetResult(miss, I token={})".format(self.token)
        return "IQGetResult(miss, backoff={})".format(self.backoff)


class QaReadResult:
    """Outcome of a granted ``qaread``: the current value (may be None)."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    @property
    def is_miss(self):
        return self.value is None

    def __repr__(self):
        return "QaReadResult(value={!r})".format(self.value)


class _SessionState:
    """Server-side bookkeeping for one write session (TID)."""

    __slots__ = ("tid", "q_keys", "invalidated", "deltas", "refreshed")

    def __init__(self, tid):
        self.tid = tid
        #: every key this session holds a Q lease on
        self.q_keys = set()
        #: keys registered for deletion at dar/commit
        self.invalidated = set()
        #: key -> list of (op, operand) proposed incremental changes
        self.deltas = {}
        #: key -> value proposed via buffered refresh (optimization path)
        self.refreshed = {}


#: the incremental-change operations; each is also the name of the
#: store method that applies it
DELTA_OPS = ("append", "prepend", "incr", "decr")


def apply_delta(value, op, operand):
    """Apply one incremental-change operation to a byte-string value.

    ``incr``/``decr`` interpret the value as an ASCII decimal, mirroring
    :meth:`repro.kvs.store.CacheStore.incr`.
    """
    if op == "append":
        return value + operand
    if op == "prepend":
        return operand + value
    if op in ("incr", "decr"):
        try:
            current = int(value.decode("ascii"))
        except (UnicodeDecodeError, ValueError):
            raise BadValueError("cannot increment or decrement non-numeric value")
        if isinstance(operand, int):
            amount = operand
        elif isinstance(operand, (bytes, bytearray)):
            amount = int(operand.decode("ascii"))
        else:
            amount = int(operand)
        if op == "incr":
            return str(current + amount).encode("ascii")
        return str(max(0, current - amount)).encode("ascii")
    raise BadValueError("unknown delta operation {!r}".format(op))


class IQServer(LeaseBackend):
    """The IQ-Twemcached server."""

    def __init__(self, kvs_config=None, lease_config=None, clock=None,
                 tid_start=1):
        self.clock = clock or SystemClock()
        self.stats = CacheStats()
        self.store = CacheStore(
            kvs_config or KVSConfig(), clock=self.clock, stats=self.stats
        )
        self.lease_config = lease_config or LeaseConfig()
        self.leases = LeaseTable(
            self.lease_config, clock=self.clock, stats=self.stats
        )
        # ``tid_start`` lets a restarted server incarnation mint TIDs from
        # a fresh epoch so they cannot collide with sessions that were in
        # flight against its predecessor (repro.faults.chaos).
        self._tids = TokenGenerator(start=tid_start)
        self._sessions = {}
        # TIDs at or below the watermark were retired by a flush_all; a
        # lease request quoting one is a zombie of a pre-flush session
        # and is aborted instead of silently resurrecting session state.
        self._tid_watermark = tid_start - 1
        self._lock = threading.RLock()
        self.obs_name = "iq{}".format(next(_SERVER_IDS))
        self._tracer = get_tracer()
        self.leases.owner = self.obs_name
        self.leases.on_q_expired = self._handle_q_expiry
        self.store.on_entry_removed = self.leases.void_i

    # -- session registry ------------------------------------------------------

    def gen_id(self):
        """Command 5, ``GenID``: mint a unique session identifier."""
        tid = self._tids.next()
        with self._lock:
            self._sessions[tid] = _SessionState(tid)
        return tid

    def _session(self, tid):
        state = self._sessions.get(tid)
        if state is None:
            state = _SessionState(tid)
            self._sessions[tid] = state
        return state

    def _check_tid_live(self, tid, key):
        """Abort lease requests from sessions retired by a flush_all.

        Without this, a session minted before a flush could re-acquire
        leases afterwards and recreate server-side state that no test
        (or restarted deployment) knows to clean up -- the TID would
        leak across the flush.  The zombie gets the same treatment as a
        lease conflict: abort, restart with a fresh (post-flush) TID.
        """
        if tid <= self._tid_watermark:
            self.stats.incr("lease_aborts")
            raise QuarantinedError(key)

    def _handle_q_expiry(self, key, tid):
        """Section 4.2 condition 3: an expired Q lease deletes its key."""
        self.store.delete(key)
        state = self._sessions.get(tid)
        if state is not None:
            state.q_keys.discard(key)
            state.invalidated.discard(key)
            state.deltas.pop(key, None)
            state.refreshed.pop(key, None)

    # -- reads ---------------------------------------------------------------

    def iq_get(self, key, session=None):
        """Command 1, ``IQget``.

        ``session`` identifies the calling write session (TID) when the
        read happens inside one; it enables the read-your-own-update rules
        of Sections 3.3 and 4.2.2.
        """
        with self._lock:
            if session is not None:
                state = self._sessions.get(session)
                if state is not None:
                    if key in state.invalidated:
                        # Section 3.3: the invalidating session must see a
                        # miss so it re-queries the RDBMS and observes its
                        # own update.  No I lease: it may not repopulate.
                        return IQGetResult()
                    if key in state.refreshed:
                        return IQGetResult(value=state.refreshed[key])
                    if key in state.deltas:
                        hit = self.store.get(key)
                        if hit is None:
                            return IQGetResult()
                        value = hit[0]
                        for op, operand in state.deltas[key]:
                            value = apply_delta(value, op, operand)
                        return IQGetResult(value=value)
            hit = self.store.get(key)
            if hit is not None:
                return IQGetResult(value=hit[0])
            token = self.leases.request_i(key)
            if token is None:
                return IQGetResult(backoff=True)
            return IQGetResult(token=token)

    def iq_set(self, key, value, token):
        """Command 2, ``IQset``: honoured only while the I token is live."""
        with self._lock:
            if not self.leases.redeem_i(key, token):
                self.stats.incr("ignored_sets")
                if self._tracer.active:
                    self._tracer.emit("iq.set", key=key, applied=False,
                                      srv=self.obs_name)
                return False
            self.store.set(key, value)
            if self._tracer.active:
                self._tracer.emit("iq.set", key=key, applied=True,
                                  srv=self.obs_name)
            return True

    def release_i(self, key, token):
        """Relinquish an unredeemed I lease (reader found nothing to cache)."""
        with self._lock:
            return self.leases.redeem_i(key, token)

    # -- precise-clock reads (lease-free; repro.clock) -------------------------

    def cget(self, key, clock_now, extend=None):
        """Interval read at commit-clock reading ``clock_now``.

        The lease-free read path: serves the cached value only while its
        validity interval covers ``clock_now``, never consulting the
        lease table.  ``extend`` carries a freshly promised horizon for
        dynamic self-invalidation.  Returns a
        :class:`~repro.kvs.store.ClockGetResult`.
        """
        with self._lock:
            result = self.store.cget(key, clock_now, extend=extend)
            if self._tracer.active:
                if result.is_hit:
                    self._tracer.emit(
                        "clock.serve", key=key, clock=clock_now,
                        start=result.valid_from, expiry=result.valid_until,
                        srv=self.obs_name,
                    )
                    if result.extended:
                        self._tracer.emit(
                            "clock.extend", key=key, clock=clock_now,
                            expiry=result.valid_until, srv=self.obs_name,
                        )
                elif result.expired:
                    self._tracer.emit("clock.expire", key=key,
                                      clock=clock_now, srv=self.obs_name)
            return result

    def cset(self, key, value, valid_from, valid_until):
        """Interval fill: install ``value`` valid over
        ``[valid_from, valid_until)`` commit-clock ticks.

        No token: the caller's *promise* (registered with the commit
        clock before computing the value) is what makes the fill safe,
        so the server only arbitrates between competing intervals --
        the longer-lived one wins.  Returns True when stored.
        """
        with self._lock:
            outcome = self.store.cset(key, value, valid_from, valid_until)
            stored = outcome is StoreResult.STORED
            if self._tracer.active:
                self._tracer.emit("clock.fill", key=key, start=valid_from,
                                  expiry=valid_until, applied=stored,
                                  srv=self.obs_name)
            return stored

    # -- refresh (R-M-W) ---------------------------------------------------------

    def qaread(self, key, tid):
        """Command 3, ``QaRead``: exclusive Q lease + read.

        Raises :class:`QuarantinedError` when another session holds a Q
        lease on ``key`` (Figure 5b: reject and abort requester).
        """
        with self._lock:
            self._check_tid_live(tid, key)
            outcome = self.leases.request_q(key, tid, QMode.EXCLUSIVE)
            if outcome is QRequestOutcome.REJECTED:
                self.stats.incr("lease_aborts")
                raise QuarantinedError(key)
            state = self._session(tid)
            state.q_keys.add(key)
            if key in state.refreshed:
                return QaReadResult(state.refreshed[key])
            hit = self.store.get(key)
            return QaReadResult(hit[0] if hit is not None else None)

    def sar(self, key, value, tid):
        """Command 4, ``SaR``: swap the value and release the Q lease.

        A ``None`` value only releases the lease.  If the session's Q lease
        expired (key already deleted by the server), the write is ignored.
        Returns True when a value was stored.
        """
        with self._lock:
            state = self._sessions.get(tid)
            if not self.leases.q_held_by(key, tid):
                if value is not None:
                    self.stats.incr("ignored_sets")
                return False
            stored = False
            if value is not None:
                self.store.set(key, value)
                stored = True
            if self._tracer.active:
                # Emitted before the release so the auditor knows the
                # imminent lease.q.release is SaR's legitimate per-key one.
                self._tracer.emit("iq.sar", key=key, tid=tid, stored=stored,
                                  srv=self.obs_name)
            self.leases.release_q(key, tid)
            if state is not None:
                state.q_keys.discard(key)
                state.refreshed.pop(key, None)
            return stored

    def propose_refresh(self, key, value, tid):
        """Optimization 4.2.2 for refresh: buffer the new value server-side.

        The proposing session sees ``value`` on re-read; everyone else keeps
        reading the old version until :meth:`commit`.  Requires a Q lease
        obtained via :meth:`qaread`.
        """
        with self._lock:
            if not self.leases.q_held_by(key, tid):
                return False
            self._session(tid).refreshed[key] = value
            return True

    # -- invalidate ---------------------------------------------------------------

    def qar(self, tid, key):
        """Command 6, ``QaR``: quarantine-and-register for invalidation.

        Always granted against other invalidate Q leases (deletes are
        idempotent, Figure 5a); raises :class:`QuarantinedError` only when
        the key is exclusively quarantined by a refresh/delta session.
        """
        with self._lock:
            self._check_tid_live(tid, key)
            outcome = self.leases.request_q(key, tid, QMode.SHARED_INVALIDATE)
            if outcome is QRequestOutcome.REJECTED:
                self.stats.incr("lease_aborts")
                raise QuarantinedError(key)
            state = self._session(tid)
            state.q_keys.add(key)
            state.invalidated.add(key)
            if not self.lease_config.serve_pending_versions:
                # Optimization off: delete eagerly (the paper's base
                # protocol of Section 3.2).
                self.store.delete(key)
            return True

    def dar(self, tid):
        """Command 7, ``DaR``: delete registered keys, release Q leases."""
        self.commit(tid)

    def qar_many(self, tid, keys):
        """Bulk ``QaR`` under one lock acquisition (wire command ``qareg``).

        Semantically identical to looping :meth:`qar` -- same key order,
        same stop-at-first-reject -- but atomic with respect to other
        commands and counted once in ``batched_qar_grants``.
        """
        from repro.errors import CacheUnavailableError

        results = {}
        granted = 0
        with self._lock:
            for key in keys:
                try:
                    self.qar(tid, key)
                except QuarantinedError:
                    results[key] = "abort"
                    break
                except CacheUnavailableError:
                    results[key] = "unavailable"
                    continue
                results[key] = "granted"
                granted += 1
            if granted:
                self.stats.incr("batched_qar_grants", granted)
        return results

    def iq_mget(self, keys, session=None):
        """Bulk ``IQget`` under one lock acquisition (wire command
        ``iqmget``): identical to looping :meth:`iq_get` in key order."""
        with self._lock:
            return {key: self.iq_get(key, session=session) for key in keys}

    # -- incremental update ----------------------------------------------------------

    def iq_delta(self, tid, key, op, operand):
        """Command 8, ``IQ-delta``: propose an incremental change.

        ``op`` is one of ``append``, ``prepend``, ``incr``, ``decr``.  The
        change is buffered and applied at :meth:`commit`.  Raises
        :class:`QuarantinedError` when the key is quarantined by another
        session (Figure 5b).
        """
        if op not in DELTA_OPS:
            raise BadValueError("unknown delta operation {!r}".format(op))
        with self._lock:
            self._check_tid_live(tid, key)
            outcome = self.leases.request_q(key, tid, QMode.EXCLUSIVE)
            if outcome is QRequestOutcome.REJECTED:
                self.stats.incr("lease_aborts")
                raise QuarantinedError(key)
            state = self._session(tid)
            state.q_keys.add(key)
            state.deltas.setdefault(key, []).append((op, operand))
            return True

    # -- session termination ------------------------------------------------------------

    def commit(self, tid):
        """Command 9: apply this session's proposals and release its leases.

        Order matters: deletions and buffered changes are applied *before*
        the Q leases are released, so no reader can slip in between and
        observe the pre-commit value after the lease is gone.
        """
        with self._lock:
            state = self._sessions.pop(tid, None)
            if state is None:
                return
            tracing = self._tracer.active
            if tracing:
                self._tracer.emit("iq.commit.begin", tid=tid,
                                  srv=self.obs_name)
            for key in state.invalidated:
                if self.leases.q_held_by(key, tid):
                    self.store.delete(key)
                    if tracing:
                        self._tracer.emit("kvs.apply", key=key, tid=tid,
                                          op="delete", srv=self.obs_name)
            for key, ops in state.deltas.items():
                if not self.leases.q_held_by(key, tid):
                    continue
                hit = self.store.get(key)
                if hit is None:
                    # A delta to a missing value has nothing to change; the
                    # next read session recomputes from the RDBMS.
                    continue
                value = hit[0]
                for op, operand in ops:
                    value = apply_delta(value, op, operand)
                self.store.set(key, value)
                if tracing:
                    self._tracer.emit("kvs.apply", key=key, tid=tid,
                                      op="delta", srv=self.obs_name)
            for key, value in state.refreshed.items():
                if self.leases.q_held_by(key, tid):
                    self.store.set(key, value)
                    if tracing:
                        self._tracer.emit("kvs.apply", key=key, tid=tid,
                                          op="refresh", srv=self.obs_name)
            for key in state.q_keys:
                self.leases.release_q(key, tid)
            if tracing:
                self._tracer.emit("iq.commit.end", tid=tid,
                                  srv=self.obs_name)

    def abort(self, tid):
        """Command 10: discard proposals, release leases, keep values."""
        with self._lock:
            state = self._sessions.pop(tid, None)
            if state is None:
                return
            tracing = self._tracer.active
            if tracing:
                self._tracer.emit("iq.abort.begin", tid=tid,
                                  srv=self.obs_name)
            for key in state.q_keys:
                self.leases.release_q(key, tid)
            if tracing:
                self._tracer.emit("iq.abort.end", tid=tid,
                                  srv=self.obs_name)

    # -- plumbing ---------------------------------------------------------------

    def flush_all(self):
        """Drop every value, lease, and session (test isolation helper).

        In-flight session state is retired too: the TID watermark
        advances to the last identifier minted before the flush, so a
        pre-flush session that resurfaces afterwards (``qar``/``qaread``/
        ``iq_delta`` with its old TID) aborts instead of recreating
        server-side state -- TIDs cannot leak across flushes.  Its
        terminators (``commit``/``abort``/``dar``) remain safe no-ops.
        """
        with self._lock:
            self.store.flush_all()
            self._sessions.clear()
            self.leases.clear()
            self._tid_watermark = self._tids.last

    def session_count(self):
        with self._lock:
            return len(self._sessions)
