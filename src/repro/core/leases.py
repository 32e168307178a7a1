"""The lease table: grant, validate, void, release, and expire I/Q leases.

Semantics (Sections 2-4 of the paper):

* **I (Inhibit)** -- granted to a read session that observes a KVS miss.
  At most one I lease exists per key; a concurrent reader is told to back
  off.  An I lease is *voided* (invalidated in place) when any Q lease is
  granted on its key: the reader's eventual ``IQset`` is then ignored.

* **Q (Quarantine)** -- acquired by write sessions on every key they will
  change.  Granting a Q voids any I lease.  Q-Q compatibility depends on
  the technique:

  - *invalidate* (:attr:`QMode.SHARED_INVALIDATE`): always granted, because
    concurrent deletes of the same key are idempotent (Figure 5a);
  - *refresh* / *incremental update* (:attr:`QMode.EXCLUSIVE`): a second
    session's request is rejected and that session must abort (Figure 5b),
    because the KVS cannot know the RDBMS serialization order of two
    writers of the same key.

  Mixing modes on one key is treated as exclusive-incompatible: the
  requester aborts.  (The paper's implementation supports applications
  using invalidate and refresh *simultaneously*; rejecting the mixed-mode
  requester is the conservative composition of the two matrices.)

* Leases have a **finite lifetime**.  An expired I lease simply vanishes.
  When a Q lease expires the key-value pair must be *deleted* (Section 4.2
  condition 3); the owning :class:`~repro.core.iq_server.IQServer`
  registers ``on_q_expired`` to do so.
"""

import enum
import threading

from repro.config import LeaseConfig
from repro.kvs.stats import CacheStats
from repro.obs.trace import get_tracer
from repro.util.clock import SystemClock
from repro.util.tokens import TokenGenerator


class QMode(enum.Enum):
    """Q-Q compatibility mode, per Figure 5 of the paper."""

    #: Invalidate: multiple concurrent Q leases allowed (Figure 5a).
    SHARED_INVALIDATE = "shared-invalidate"
    #: Refresh / incremental update: at most one holder (Figure 5b).
    EXCLUSIVE = "exclusive"


class QRequestOutcome(enum.Enum):
    GRANTED = "granted"
    REJECTED = "rejected"


class _ILease:
    __slots__ = ("token", "expires_at")

    def __init__(self, token, expires_at):
        self.token = token
        self.expires_at = expires_at


class _KeyLeases:
    """Lease state for a single key."""

    __slots__ = ("i_lease", "q_mode", "q_holders")

    def __init__(self):
        self.i_lease = None
        self.q_mode = None
        #: session id -> expiry time
        self.q_holders = {}

    def is_empty(self):
        return self.i_lease is None and not self.q_holders


class _LeaseStripe:
    """One lock's worth of lease state, with its cell of the table's
    :class:`~repro.kvs.stats.CacheStats`, bumped under ``lock``."""

    __slots__ = ("lock", "keys", "counts")

    def __init__(self, counts):
        self.lock = threading.RLock()
        self.keys = {}
        self.counts = counts


class LeaseTable:
    """Thread-safe lease bookkeeping for one IQ-Server.

    Per-key lease state lives in ``config.stripe_count`` hash stripes,
    each under its own reentrant lock, so lease traffic on unrelated
    keys never contends.  Token generation is shared (the
    :class:`TokenGenerator` has its own lock); whole-table operations
    (:meth:`sweep_expired`, :meth:`clear`, :meth:`outstanding`) visit
    the stripes in fixed index order.
    """

    def __init__(self, config=None, clock=None, stats=None):
        self.config = config or LeaseConfig()
        self.clock = clock or SystemClock()
        self.stats = stats or CacheStats()
        self._tokens = TokenGenerator()
        count = max(1, int(getattr(self.config, "stripe_count", 1) or 1))
        self._stripes = tuple(
            _LeaseStripe(self.stats.cell()) for _ in range(count)
        )
        self._stripe_mask = count - 1 if count & (count - 1) == 0 else None
        #: Callback ``fn(key, session_id)`` invoked when a Q lease expires;
        #: the IQ-Server deletes the key-value pair here.
        self.on_q_expired = None
        #: Name of the owning server, stamped on trace events so the
        #: auditor can tell shards / incarnations apart.
        self.owner = None
        #: Optional :class:`repro.faults.FaultInjector`; arms the
        #: ``server.lease.void`` site (a SUPPRESS rule there skips the
        #: I-lease void on Q grant -- deliberately breaking the protocol
        #: so the online auditor can be shown to catch it).
        self.fault_injector = None
        self._tracer = get_tracer()

    # -- internal ------------------------------------------------------------

    def _stripe_for(self, key):
        if self._stripe_mask is not None:
            return self._stripes[hash(key) & self._stripe_mask]
        return self._stripes[hash(key) % len(self._stripes)]

    def _state(self, stripe, key, create=False):
        state = stripe.keys.get(key)
        if state is None and create:
            state = _KeyLeases()
            stripe.keys[key] = state
        return state

    def _gc(self, stripe, key, state):
        if state is not None and state.is_empty():
            stripe.keys.pop(key, None)

    def _expire_locked(self, stripe, key, state):
        """Drop expired leases on ``key``; fire Q-expiry callbacks."""
        if state is None:
            return
        now = self.clock.now()
        if state.i_lease is not None and now >= state.i_lease.expires_at:
            state.i_lease = None
            stripe.counts.lease_expirations += 1
            if self._tracer.active:
                self._tracer.emit("lease.i.expire", key=key, srv=self.owner)
        expired_q = [
            sid for sid, expiry in state.q_holders.items() if now >= expiry
        ]
        for sid in expired_q:
            del state.q_holders[sid]
            stripe.counts.lease_expirations += 1
            if self._tracer.active:
                self._tracer.emit("lease.q.expire", key=key, tid=sid,
                                  srv=self.owner)
            if self.on_q_expired is not None:
                self.on_q_expired(key, sid)
        if not state.q_holders:
            state.q_mode = None
        self._gc(stripe, key, state)

    # -- I leases --------------------------------------------------------------

    def request_i(self, key):
        """Request an I lease on ``key``.

        Returns the lease token, or ``None`` when the reader must back off
        (an I or Q lease already exists -- Figure 5a, row I).
        """
        stripe = self._stripe_for(key)
        with stripe.lock:
            state = self._state(stripe, key)
            self._expire_locked(stripe, key, state)
            state = self._state(stripe, key, create=True)
            if state.i_lease is not None or state.q_holders:
                self._gc(stripe, key, state)
                stripe.counts.lease_backoffs += 1
                if self._tracer.active:
                    self._tracer.emit("lease.i.backoff", key=key,
                                      srv=self.owner)
                return None
            token = self._tokens.next()
            state.i_lease = _ILease(
                token, self.clock.now() + self.config.i_lease_ttl
            )
            stripe.counts.i_lease_grants += 1
            if self._tracer.active:
                self._tracer.emit("lease.i.grant", key=key, token=token,
                                  srv=self.owner)
            return token

    def i_valid(self, key, token):
        """True when ``token`` is the live I lease on ``key``."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            state = self._state(stripe, key)
            self._expire_locked(stripe, key, state)
            state = self._state(stripe, key)
            return (
                state is not None
                and state.i_lease is not None
                and state.i_lease.token == token
            )

    def redeem_i(self, key, token):
        """Atomically validate and consume the I lease for an ``IQset``.

        Returns True (and releases the lease) when the token was live.
        """
        stripe = self._stripe_for(key)
        with stripe.lock:
            if not self.i_valid(key, token):
                return False
            state = self._state(stripe, key)
            state.i_lease = None
            self._gc(stripe, key, state)
            if self._tracer.active:
                self._tracer.emit("lease.i.redeem", key=key, token=token,
                                  srv=self.owner)
            return True

    def void_i(self, key):
        """Invalidate any I lease on ``key`` (Q grant / delete / eviction)."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            state = self._state(stripe, key)
            if state is not None and state.i_lease is not None:
                state.i_lease = None
                stripe.counts.i_lease_voids += 1
                self._gc(stripe, key, state)
                if self._tracer.active:
                    self._tracer.emit("lease.i.void", key=key,
                                      srv=self.owner)

    # -- Q leases ---------------------------------------------------------------

    def request_q(self, key, session_id, mode):
        """Request a Q lease on ``key`` for ``session_id``.

        Voids an existing I lease on grant.  Returns
        :attr:`QRequestOutcome.GRANTED` or ``REJECTED`` (the caller must
        abort, per Figure 5b).  Re-requesting a lease the session already
        holds is granted and refreshes its expiry.
        """
        stripe = self._stripe_for(key)
        with stripe.lock:
            state = self._state(stripe, key)
            self._expire_locked(stripe, key, state)
            state = self._state(stripe, key, create=True)
            granted_expiry = self.clock.now() + self.config.q_lease_ttl
            if session_id in state.q_holders:
                state.q_holders[session_id] = granted_expiry
                if self._tracer.active:
                    self._tracer.emit("lease.q.grant", key=key,
                                      tid=session_id, mode=mode.value,
                                      renewed=True, srv=self.owner)
                return QRequestOutcome.GRANTED
            if state.q_holders:
                incompatible = (
                    state.q_mode != QMode.SHARED_INVALIDATE
                    or mode != QMode.SHARED_INVALIDATE
                )
                if incompatible:
                    self._gc(stripe, key, state)
                    stripe.counts.q_lease_rejects += 1
                    if self._tracer.active:
                        self._tracer.emit("lease.q.reject", key=key,
                                          tid=session_id, mode=mode.value,
                                          srv=self.owner)
                    return QRequestOutcome.REJECTED
            if state.i_lease is not None:
                if self._i_void_suppressed(key, session_id):
                    # A seeded fault: leave the reader's I lease live.  The
                    # doomed IQset will now be honoured -- exactly the
                    # protocol hole the online auditor must flag.
                    pass
                else:
                    state.i_lease = None
                    stripe.counts.i_lease_voids += 1
                    if self._tracer.active:
                        self._tracer.emit("lease.i.void", key=key,
                                          srv=self.owner)
            state.q_mode = mode if not state.q_holders else state.q_mode
            state.q_holders[session_id] = granted_expiry
            stripe.counts.q_lease_grants += 1
            if self._tracer.active:
                self._tracer.emit("lease.q.grant", key=key, tid=session_id,
                                  mode=mode.value, srv=self.owner)
            return QRequestOutcome.GRANTED

    def _i_void_suppressed(self, key, session_id):
        """True when a SUPPRESS fault rule skips the I-void on Q grant."""
        if self.fault_injector is None:
            return False
        from repro.faults.injector import SITE_LEASE_VOID, FaultAction

        rule = self.fault_injector.decide(
            SITE_LEASE_VOID, key=key, tid=session_id
        )
        return rule is not None and rule.action is FaultAction.SUPPRESS

    def q_held_by(self, key, session_id):
        """True when ``session_id`` holds a live Q lease on ``key``."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            state = self._state(stripe, key)
            self._expire_locked(stripe, key, state)
            state = self._state(stripe, key)
            return state is not None and session_id in state.q_holders

    def release_q(self, key, session_id):
        """Release ``session_id``'s Q lease on ``key`` (commit/abort)."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            state = self._state(stripe, key)
            if state is None:
                return False
            removed = state.q_holders.pop(session_id, None) is not None
            if not state.q_holders:
                state.q_mode = None
            self._gc(stripe, key, state)
            if removed and self._tracer.active:
                self._tracer.emit("lease.q.release", key=key, tid=session_id,
                                  srv=self.owner)
            return removed

    # -- introspection / maintenance ------------------------------------------------

    def leases_on(self, key):
        """Diagnostic snapshot: ``(has_i, q_session_ids)`` for ``key``."""
        stripe = self._stripe_for(key)
        with stripe.lock:
            state = self._state(stripe, key)
            self._expire_locked(stripe, key, state)
            state = self._state(stripe, key)
            if state is None:
                return (False, frozenset())
            return (
                state.i_lease is not None,
                frozenset(state.q_holders),
            )

    def has_any_lease(self, key):
        has_i, q_holders = self.leases_on(key)
        return has_i or bool(q_holders)

    def sweep_expired(self):
        """Eagerly expire every stale lease (tests / maintenance thread)."""
        for stripe in self._stripes:
            with stripe.lock:
                for key in list(stripe.keys):
                    self._expire_locked(stripe, key, stripe.keys.get(key))

    def clear(self):
        """Drop every lease without firing expiry callbacks (flush_all)."""
        for stripe in self._stripes:
            with stripe.lock:
                stripe.keys.clear()

    def outstanding(self):
        """Number of keys with at least one live lease."""
        count = 0
        for stripe in self._stripes:
            with stripe.lock:
                for key in list(stripe.keys):
                    self._expire_locked(stripe, key, stripe.keys.get(key))
                count += len(stripe.keys)
        return count
