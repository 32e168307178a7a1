"""Consistency-maintenance techniques: invalidate, refresh, incremental update.

Each technique is packaged as a *consistency client* exposing a uniform
surface to application code (the BG actions):

* ``read(key, compute, runner_connection)`` -- execute a read session;
* ``write(sql_body, changes)`` -- execute a write session whose RDBMS work
  is ``sql_body(session)`` and whose KVS impact is described by
  :class:`KeyChange` objects.

Three families are provided:

* **IQ clients** (``IQInvalidateClient``, ``IQRefreshClient``,
  ``IQDeltaClient``) follow the paper's Section 3/4 protocols and are
  strongly consistent;
* **the precise-clock client** (:class:`ClockClient`) is the lease-free
  fourth technique (``repro.clock``): cached values carry a validity
  interval on the database's commit clock and self-invalidate on expiry,
  so reads inside a valid interval never touch the lease table and
  writes never contact the cache at all;
* **Unleased baseline clients** (``BaselineInvalidateClient``,
  ``BaselineRefreshClient``, ``BaselineDeltaClient``) implement the naive
  sessions of Figures 3/10 against Twemcache-with-read-leases and exhibit
  the undesirable race conditions of Sections 3.1 and 4.1 -- they exist so
  the evaluation can reproduce the nonzero stale percentages of
  Tables 1 and 7.
"""

import enum
import threading

from repro.config import BackoffConfig, ClockConfig
from repro.core.iq_server import DELTA_OPS
from repro.core.session import (
    AcquisitionMode,
    SessionOutcome,
    SessionRunner,
    attempt,
)
from repro.errors import (
    BadValueError,
    CacheUnavailableError,
    DegradedModeActive,
    QuarantinedError,
    StarvationError,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import get_tracer
from repro.core.singleflight import FillOutcome, SingleFlight
from repro.util.backoff import ExponentialBackoff
from repro.util.clock import SystemClock


class KeyChange:
    """The impact of one write session on one key-value pair.

    ``refresher(old_value_bytes_or_None) -> new_value_bytes_or_None`` is
    used by refresh; returning ``None`` means "skip" (release the lease
    without writing; the next reader recomputes from the RDBMS).

    ``deltas`` is a list of ``(op, operand)`` incremental changes used by
    the incremental-update technique; an ``op`` outside
    :data:`~repro.core.iq_server.DELTA_OPS` (append/prepend/incr/decr)
    raises :class:`~repro.errors.BadValueError` here, before any
    session runs.

    ``invalidate`` marks a key that must be *deleted* even under the
    refresh/delta techniques -- used for changes (set-element removal)
    that no incremental operator can express.  The paper notes the IQ
    implementation "enables an application to use both invalidate and
    refresh simultaneously"; this flag is that combination.
    """

    __slots__ = ("key", "refresher", "deltas", "invalidate")

    def __init__(self, key, refresher=None, deltas=(), invalidate=False):
        self.key = key
        self.refresher = refresher
        self.deltas = list(deltas)
        for op, _operand in self.deltas:
            if op not in DELTA_OPS:
                raise BadValueError("unknown delta operation {!r}".format(op))
        self.invalidate = invalidate

    def __repr__(self):
        return "KeyChange({!r})".format(self.key)


class DeleteTiming(enum.Enum):
    """When a baseline invalidate session deletes the impacted keys."""

    #: Inside the RDBMS transaction -- models trigger-based invalidation,
    #: the Figure 3 configuration.
    DURING_TRANSACTION = "during"
    #: After the RDBMS commit -- the application-side ordering that the
    #: Facebook lease was designed for (Section 7 discussion).
    AFTER_COMMIT = "after"


# ---------------------------------------------------------------------------
# IQ (leased) clients
# ---------------------------------------------------------------------------

class _IQClientBase:
    """The one write-session skeleton of the three IQ consistency clients.

    :meth:`_session` is the paper's session discipline, written once;
    a technique supplies only :meth:`grow` (which lease commands the
    growing phase issues) and :meth:`shrink` (which apply commands the
    shrinking phase issues after the SQL commit).

    **Degraded mode** (``degraded_fallback``, on by default): when the
    KVS becomes unreachable -- :class:`~repro.errors.CacheUnavailableError`
    from a lost connection, a timeout, or an open circuit breaker -- the
    client keeps serving correctly without it:

    * reads bypass the cache and compute straight from the SQL engine
      (correct but slower: the paper's degradation contract);
    * writes run their RDBMS transaction against a plain connection and
      *journal* the impacted keys.  When the cache becomes reachable
      again the journaled keys are deleted before any regular operation
      runs (delete-on-recover, see
      :class:`repro.net.resilient.ResilientIQServer`), so a value cached
      before the outage can never be served stale after it.

    A cache failure *after* the RDBMS commit of a leased session does not
    re-run the transaction: the impacted keys are journaled and the
    session's Q leases are left to expire server-side, which deletes the
    quarantined keys (Section 4.2 condition 3) and preserves safety even
    if the journal never reaches the server.

    **Per-shard degradation**: against a sharded cache tier
    (:class:`~repro.sharding.ShardedIQServer`) unavailability is usually
    partial -- one shard's circuit breaker is open while the rest of the
    fleet is healthy.  Each key's lease acquisition and post-commit
    apply is therefore guarded individually: an unreachable shard costs
    only its own keys (journaled for delete-on-recover once the RDBMS
    transaction has committed, leases left to expire), and the session
    proceeds normally on every other shard.
    The whole-session fallback below remains for the case where the
    backend cannot even mint a session identifier.

    With ``degraded_fallback=False`` the fallback raises
    :class:`~repro.errors.DegradedModeActive` instead.
    """

    def __init__(self, client, connection_factory, mode=AcquisitionMode.DURING,
                 backoff=None, clock=None, degraded_fallback=True):
        self.client = client
        self.connection_factory = connection_factory
        self.mode = mode
        self.runner = SessionRunner(
            client, connection_factory, backoff=backoff, clock=clock
        )
        self.degraded_fallback = degraded_fallback
        # Degraded-mode accounting.  These counters are hit from every BG
        # worker thread, so they live in a metrics registry (whose
        # counters carry their own locks) rather than as bare attributes
        # -- ``self.x += 1`` is not atomic in Python and the historical
        # bare increments could lose updates under contention.
        self.metrics = MetricsRegistry()
        self._degraded_reads = self.metrics.counter(
            "client_degraded_reads",
            "reads served from the SQL engine because the cache was away")
        self._degraded_writes = self.metrics.counter(
            "client_degraded_writes", "write sessions that ran SQL-only")
        self._detached_sessions = self.metrics.counter(
            "client_detached_sessions",
            "sessions whose post-commit KVS phase was cut short")
        self._degraded_key_changes = self.metrics.counter(
            "client_degraded_key_changes",
            "single keys skipped because only their shard was unreachable")
        #: union of keys journaled for delete-on-recover reconciliation
        self._degraded_keys = set()
        self._keys_lock = threading.Lock()
        self._tracer = get_tracer()

    # Historical attribute API, now read-only views over the registry.

    @property
    def degraded_reads(self):
        return self._degraded_reads.value

    @property
    def degraded_writes(self):
        return self._degraded_writes.value

    @property
    def detached_sessions(self):
        return self._detached_sessions.value

    @property
    def degraded_key_changes(self):
        return self._degraded_key_changes.value

    @property
    def degraded_keys(self):
        with self._keys_lock:
            return set(self._degraded_keys)

    @property
    def is_strongly_consistent(self):
        return True

    def read(self, key, compute):
        """Read session: cache hit, or I-lease-guarded RDBMS computation.

        Falls back to ``compute()`` (the SQL engine) when the cache is
        unreachable -- always correct, merely slower.
        """
        try:
            return self.client.read_through(key, compute)
        except CacheUnavailableError as exc:
            if not self.degraded_fallback:
                raise DegradedModeActive(
                    "read of {!r} with cache unavailable: {}".format(key, exc)
                ) from exc
            self._degraded_reads.inc()
            if self._tracer.active:
                self._tracer.emit("client.degraded.read", key=key)
            return compute()

    def write(self, sql_body, changes):
        """Write session with SQL-only fallback when the cache is away."""
        try:
            return self.runner.run(
                lambda session: self._session(session, sql_body, changes)
            )
        except CacheUnavailableError as exc:
            return self._write_degraded(sql_body, changes, exc)

    def _session(self, session, sql_body, changes):
        """One attempt of the write session every technique shares.

        Growing phase (:meth:`grow`) before ``BEGIN`` under PRIOR or
        between the body and ``COMMIT`` under DURING; keys whose shard
        was away during it are journaled once the SQL has committed;
        then the shrinking phase (:meth:`shrink`), which detaches the
        session if the cache vanishes part way.
        """
        pending = []
        if self.mode is AcquisitionMode.PRIOR:
            grown = self.grow(session, changes, pending)
            session.begin_sql()
            result = sql_body(session)
        else:
            session.begin_sql()
            result = sql_body(session)
            grown = self.grow(session, changes, pending)
        session.commit_sql()
        if pending:
            # Before the commit their cached values were still correct,
            # so the journal entries must not exist until now; an
            # aborted attempt simply discards ``pending``.
            self._journal(pending)
        try:
            self.shrink(session, changes, grown)
        except CacheUnavailableError:
            self._detach_after_commit(session, changes)
        return result

    def grow(self, session, changes, pending):
        """Acquire the session's Q leases; returns what :meth:`shrink`
        needs.  A key whose shard is unreachable is queued on
        ``pending``."""
        raise NotImplementedError

    def shrink(self, session, changes, grown):
        """Apply the session's changes and release its leases."""
        raise NotImplementedError

    # -- degraded-mode plumbing ----------------------------------------------

    def _journal(self, changes):
        """Record keys whose cached value may now be stale."""
        keys = [change.key for change in changes]
        journal = getattr(self.client.server, "journal", None)
        if journal is not None:
            journal.add(keys)
        with self._keys_lock:
            self._degraded_keys.update(keys)

    def _detach_after_commit(self, session, changes):
        """The cache vanished after ``commit_sql``: journal and let the
        session's Q leases expire server-side (never re-run the SQL)."""
        self._journal(changes)
        session.detach_kvs()
        self._detached_sessions.inc()
        if self._tracer.active:
            self._tracer.emit("client.detach", tid=session.tid,
                              trace_id=session.trace_id)

    def _degrade_key(self, key):
        self._degraded_key_changes.inc()
        if self._tracer.active:
            self._tracer.emit("client.degraded.key", key=key)

    def _guard_key(self, change, operation, pending=None):
        """Run one key's cache operation, degrading only that key's shard.

        Returns True when the operation ran; on
        :class:`~repro.errors.CacheUnavailableError` the key is skipped
        and the rest of the session keeps using the cache.  Growing-phase
        callers pass ``pending``: the change is queued there and journaled
        only after ``commit_sql``.
        Journaling it at failure time would be unsafe -- if the shard
        recovers mid-session, a delete-on-recover pass consumes the entry
        and deletes the key *before* the commit, after which a concurrent
        reader re-caches the pre-transaction value from SQL and no
        invalidation ever arrives to displace it.  Post-commit callers
        omit ``pending`` and the key is journaled immediately.  Lease
        conflicts (:class:`~repro.errors.QuarantinedError`) are not
        availability failures and propagate to the session retry loop.
        """
        try:
            operation()
            return True
        except CacheUnavailableError:
            if not self.degraded_fallback:
                raise
            if pending is None:
                self._journal([change])
            else:
                pending.append(change)
            self._degrade_key(change.key)
            return False

    def _grow_keys(self, session, changes, pending, invalidates, leg=None):
        """The growing-phase loop of every technique, in ``changes`` order.

        The invalidation subset (``invalidates(change)``) is Q-leased
        with one batched ``qareg`` when :meth:`_batch_acquire` can, else
        with a per-key ``QaR`` at its place in the list; every other
        change runs the technique's own ``leg(change)`` there.
        """
        invalidations = [change for change in changes if invalidates(change)]
        batched = self._batch_acquire(session, invalidations, pending)
        for change in changes:
            if not invalidates(change):
                leg(change)
            elif not batched:
                self._guard_key(change, lambda c=change: session.qar(c.key),
                                pending)

    def _batch_acquire(self, session, changes, pending):
        """Acquire the invalidation Q leases for ``changes`` in one batch.

        Returns True when the batch path handled the whole acquisition;
        False asks the caller to run its per-key loop instead (fewer
        than two keys, or the backend could not run the batch at all).
        Per-key outcomes map exactly onto the sequential
        semantics: a grant continues, a Q-Q incompatibility raises
        :class:`~repro.errors.QuarantinedError` (restart, Figure 5a/5b
        unchanged -- the server stops at the first reject just like a
        sequential run), and a key whose shard is unreachable degrades
        individually (queued on ``pending``, journaled only after
        ``commit_sql``) while the rest of the batch proceeds.
        """
        if len(changes) < 2:
            return False
        by_key = {change.key: change for change in changes}
        try:
            results = session.qareg([change.key for change in changes])
        except CacheUnavailableError:
            # The whole backend is away (e.g. nothing could even route);
            # fall back so each key gets its individual degradation.
            return False
        for key, status in results.items():
            if status == "granted":
                continue
            if status == "abort":
                raise QuarantinedError(key)
            # "unavailable": only this key's shard is unreachable.
            if not self.degraded_fallback:
                raise CacheUnavailableError(
                    "shard for {!r} unavailable during batched "
                    "acquisition".format(key)
                )
            pending.append(by_key[key])
            self._degrade_key(key)
        return True

    def _write_degraded(self, sql_body, changes, cause):
        """Run the write's RDBMS transaction with no KVS participation."""
        if not self.degraded_fallback:
            raise DegradedModeActive(
                "write with cache unavailable: {}".format(cause)
            ) from cause
        with attempt(self.connection_factory) as session:
            result = session.transaction(sql_body)
        # Journal *after* the commit: a concurrent reconciliation that
        # deleted the keys pre-commit could let a reader re-cache the
        # pre-transaction value and leave it stale.
        self._journal(changes)
        self._degraded_writes.inc()
        if self._tracer.active:
            self._tracer.emit("client.degraded.write",
                              keys=len(changes))
        return SessionOutcome(result, restarts=0)


class IQInvalidateClient(_IQClientBase):
    """Section 3.2: QaR each key, run the transaction, DaR at commit.

    The growing phase acquires the whole write-set's Q leases with one
    batched ``qareg`` when the backend allows (one pipelined round trip
    per shard), falling back to per-key ``QaR`` otherwise.
    """

    def grow(self, session, changes, pending):
        self._grow_keys(session, changes, pending, lambda change: True)

    def shrink(self, session, changes, grown):
        session.dar()


class IQRefreshClient(_IQClientBase):
    """Section 4.2: QaRead before commit, SaR after commit (Figure 9).

    Keys flagged ``invalidate`` (or lacking a refresher -- there is
    nothing to read-modify-write for a fresh insert or a delete) are
    quarantined with ``QaR`` and deleted at commit, the paper's
    simultaneous refresh+invalidate usage.
    """

    def grow(self, session, changes, pending):
        """Quarantine the invalidation subset; QaRead each refreshed key
        and compute its new value.  Returns ``[(change, new value)]``.

        The exclusive ``qaread`` legs stay per key: each needs its old
        value back before the refresher can run."""
        refreshed = []

        def read_modify(change):
            def leg():
                old = session.qaread(change.key).value
                refreshed.append((change, change.refresher(old)))

            self._guard_key(change, leg, pending)

        self._grow_keys(
            session, changes, pending,
            lambda change: change.invalidate or change.refresher is None,
            read_modify,
        )
        return refreshed

    def shrink(self, session, changes, refreshed):
        # A key whose shard degraded during the growing phase has no
        # lease and no computed value, so it is not in ``refreshed``.
        for change, value in refreshed:
            self._guard_key(
                change, lambda c=change, v=value: session.sar(c.key, v)
            )
        # Applies registered invalidations and releases any leases still
        # held (a no-op when every key went through SaR).
        session.commit_kvs()


class IQDeltaClient(_IQClientBase):
    """Section 4.2.1: IQ-delta before commit, Commit(TID) after."""

    def _poison_shard(self, session, key):
        """A key's multi-delta proposal failed partway: the owning shard
        may hold only *some* of the deltas, and committing its leg would
        surface a value with a partial proposal applied.  A sharded
        backend is told to poison the leg -- the router deletes the
        shard's keys and aborts (never commits) its TID in the shrinking
        phase.  Single-server backends need no marker: their journal is
        reconciled (key deleted) before any command -- including the
        commit -- runs on a recovered connection."""
        poison = getattr(self.client.server, "poison", None)
        if poison is not None:
            poison(session.tid, key)

    def grow(self, session, changes, pending):
        def propose_deltas(change):
            def leg():
                for op, operand in change.deltas:
                    session.delta(change.key, op, operand)

            # All of a key's deltas land on one shard.
            if not self._guard_key(change, leg, pending):
                self._poison_shard(session, change.key)

        self._grow_keys(session, changes, pending,
                        lambda change: change.invalidate, propose_deltas)

    def shrink(self, session, changes, grown):
        session.commit_kvs()


# ---------------------------------------------------------------------------
# Precise-clock client (lease-free, repro.clock)
# ---------------------------------------------------------------------------

class ClockClient:
    """Precise-clock self-invalidation: the lease-free fourth technique.

    After Misra et al. (PAPERS.md): cached values carry a validity
    interval ``[start, expiry)`` on the database's commit clock and
    self-invalidate once the clock reaches ``expiry``.  The division of
    labour is inverted relative to the IQ clients:

    * a **read** registers a write-horizon *promise* with the
      :class:`~repro.sql.clock.CommitClock` (one mutex acquisition, no
      I/O) and first consults a client-local interval cache -- a copy
      whose validity interval covers the promised reading is served
      with **zero round trips** (Misra et al.'s inter-transaction
      caching; no lease protocol can do this, because a lease-based
      local copy cannot be revalidated without contacting the lease
      table).  Otherwise a single ``cget`` at the promised start either
      hits the shared cache or computes from SQL and installs the value
      with ``cset`` stamped by the promise;
    * a **write** runs its RDBMS transaction and commits with
      ``clock_keys`` naming the impacted cache keys -- each key's clock
      jumps past its promised horizon, which expires all covered
      intervals *by arithmetic*, wherever they live: the shared cache
      server and every client's local tier self-invalidate without a
      single purge message.  The write session performs **no cache
      round trips at all**: no QaR, no DaR, no delete, no journal.

    Strong consistency follows from the promise/commit serialization on
    the transaction manager's commit mutex (see :mod:`repro.sql.clock`):
    a value computed after ``promise`` returned ``(p, e)`` is exactly
    current for every clock reading in ``[p, e)``, and ``cget`` refuses
    to serve outside the stored interval.  An unreachable cache needs no
    reconciliation -- writes never depended on it, and every interval a
    dead cache holds expires on its own as the clock advances -- so
    degraded mode for this client is just "reads compute from SQL".

    The constructor signature mirrors the IQ clients so the BG harness
    can build it interchangeably; ``mode`` is accepted and ignored (the
    technique has no lease-acquisition phases).
    """

    def __init__(self, client, connection_factory, mode=AcquisitionMode.DURING,
                 backoff=None, clock=None, config=None,
                 degraded_fallback=True, coalesce_fills=True):
        from repro.sql.clock import CommitClock

        self.client = client
        #: the LeaseBackend (``client`` may be an IQClient wrapper or the
        #: backend itself; only ``cget``/``cset`` are ever used)
        self.server = getattr(client, "server", client)
        self.connection_factory = connection_factory
        self.mode = mode
        self.config = config or ClockConfig()
        self.backoff = backoff or ExponentialBackoff(BackoffConfig())
        self.clock = clock or SystemClock()
        self.runner = SessionRunner(None, connection_factory,
                                    backoff=self.backoff, clock=self.clock)
        self.degraded_fallback = degraded_fallback
        connection = connection_factory()
        try:
            self.commit_clock = CommitClock(connection.db, self.config)
        finally:
            connection.close()
        #: key -> (value, valid_from, valid_until): the inter-transaction
        #: tier.  FIFO-bounded by ``config.local_cache_entries``; guarded
        #: by its own lock (BG drives one client from many threads).
        self._local = {}
        self._local_lock = threading.Lock()
        #: Per-process miss coalescing: concurrent readers of one key
        #: share a single fill.  The fence is arithmetic -- a waiter
        #: consumes the outcome only while its own promised reading
        #: falls inside the fill's validity interval
        #: (:meth:`~repro.core.singleflight.FillOutcome.covers`), so a
        #: clock jump between the fill and the join refuses by
        #: construction, with no lease bookkeeping.
        self.flights = SingleFlight() if coalesce_fills else None
        self.metrics = MetricsRegistry()
        self._interval_reads = self.metrics.counter(
            "clock_interval_reads", "reads served inside a validity interval")
        self._local_hits = self.metrics.counter(
            "clock_local_hits",
            "interval reads served from the client tier with zero I/O")
        self._interval_misses = self.metrics.counter(
            "clock_interval_misses",
            "reads that computed from SQL (miss or expired interval)")
        self._coalesced_reads = self.metrics.counter(
            "clock_coalesced_reads",
            "reads served from a co-located in-flight fill (interval fence)")
        self._clock_commits = self.metrics.counter(
            "clock_commits", "write commits that jumped the commit clock")
        self._degraded_reads = self.metrics.counter(
            "clock_degraded_reads",
            "reads served from the SQL engine because the cache was away")
        self._tracer = get_tracer()

    @property
    def is_strongly_consistent(self):
        return True

    @property
    def degraded_reads(self):
        return self._degraded_reads.value

    def _local_get(self, key, now):
        """Serve ``key`` from the client tier iff its interval covers
        ``now``; expired copies are unlinked on the way."""
        if not self.config.local_cache_entries:
            return None
        with self._local_lock:
            entry = self._local.get(key)
            if entry is None:
                return None
            if entry[2] <= now:
                del self._local[key]
                return None
            return entry

    def _local_put(self, key, value, start, until):
        if not self.config.local_cache_entries:
            return
        with self._local_lock:
            self._local[key] = (value, start, until)
            while len(self._local) > self.config.local_cache_entries:
                self._local.pop(next(iter(self._local)))

    def read(self, key, compute):
        """Promise, local interval check, then ``cget``/compute."""
        start, until = self.commit_clock.promise(key)
        entry = self._local_get(key, start)
        if entry is not None:
            self._interval_reads.inc()
            self._local_hits.inc()
            if self._tracer.active:
                # Same event shape as the server's serve, so the
                # auditor's past-bound rule covers the client tier too.
                self._tracer.emit("clock.serve", key=key, clock=start,
                                  start=entry[1], expiry=entry[2],
                                  srv="local")
            return entry[0]
        if self.flights is not None:
            flight = self.flights.join(key)
            if flight is not None:
                # Park on the in-flight fill (drawing successive delays
                # from the backoff policy) rather than racing it with a
                # duplicate cget+compute; an abandoned flight falls
                # through to the fill path immediately.  A backoff cap
                # (max_attempts) stops the parking, never the read --
                # clock reads have their own fill path to fall back to.
                delays = self.backoff.delays()
                try:
                    outcome = flight.wait(next(delays))
                    while outcome is None and not flight.resolved:
                        outcome = flight.wait(next(delays))
                except StarvationError:
                    outcome = None
                if outcome is not None and outcome.covers(start):
                    # Interval fence: the fill is exactly current for
                    # every clock reading it covers, ours included.
                    self.flights.note(True)
                    self._interval_reads.inc()
                    self._coalesced_reads.inc()
                    if self._tracer.active:
                        self._tracer.emit(
                            "clock.serve", key=key, clock=start,
                            start=outcome.valid_from,
                            expiry=outcome.valid_until, srv="flight")
                    self._local_put(key, outcome.value,
                                    outcome.valid_from, outcome.valid_until)
                    return outcome.value
                self.flights.note(False)
        return self._read_fill(key, compute, start, until)

    def _read_fill(self, key, compute, start, until):
        """The ``cget``/compute miss path, published as a flight so
        co-located readers coalesce onto this fill."""
        flight = (self.flights.begin(key)
                  if self.flights is not None else None)
        try:
            extend = until if self.config.dynamic_extension else None
            try:
                result = self.server.cget(key, start, extend=extend)
            except CacheUnavailableError as exc:
                if not self.degraded_fallback:
                    raise DegradedModeActive(
                        "read of {!r} with cache unavailable: {}"
                        .format(key, exc)
                    ) from exc
                self._degraded_reads.inc()
                if self._tracer.active:
                    self._tracer.emit("client.degraded.read", key=key)
                value = compute()
                if value is not None:
                    # The promise -- not the server -- is what makes the
                    # interval valid, so the client tier keeps absorbing
                    # re-reads even while the shared cache is away.  The
                    # same argument lets waiters coalesce onto a
                    # degraded fill.
                    self._local_put(key, value, start, until)
                    flight = self._publish(key, flight, value, start, until)
                return value
            if result.is_hit:
                self._interval_reads.inc()
                self._local_put(key, result.value, result.valid_from,
                                result.valid_until)
                flight = self._publish(key, flight, result.value,
                                       result.valid_from, result.valid_until)
                return result.value
            value = compute()
            self._interval_misses.inc()
            if value is not None:
                # The local copy never depends on the shared fill landing:
                # its validity comes from the promise, not the server --
                # which is also why the flight resolves *before* cset.
                self._local_put(key, value, start, until)
                flight = self._publish(key, flight, value, start, until)
                try:
                    self.server.cset(key, value, start, until)
                except CacheUnavailableError:
                    # An uninstalled cset is always safe: the reader still
                    # returns its freshly computed value and the next reader
                    # simply recomputes.  No journal entry is needed -- clock
                    # writes never depend on the cache being reachable.
                    if self._tracer.active:
                        self._tracer.emit("client.degraded.read", key=key)
            return value
        finally:
            # Exception or an empty compute: wake waiters with nothing
            # so they fall back to the wire path instead of timing out.
            if flight is not None:
                self.flights.abandon(key, flight)

    def _publish(self, key, flight, value, valid_from, valid_until):
        """Resolve ``flight`` with an interval-stamped outcome."""
        if flight is not None:
            self.flights.unregister(key, flight)
            flight.resolve(FillOutcome(value, valid_from=valid_from,
                                       valid_until=valid_until))
        return None

    def write(self, sql_body, changes):
        """RDBMS transaction + clock-jumping commit; zero cache I/O.

        A first-updater-wins conflict restarts through the same
        :class:`~repro.core.session.SessionRunner` loop as the IQ
        clients, on sessions that mint no TID: there are no leases to
        release."""
        keys = [change.key for change in changes]
        outcome = self.runner.run(
            lambda session: session.transaction(sql_body, clock_keys=keys)
        )
        self._clock_commits.inc()
        if self._tracer.active:
            self._tracer.emit("clock.commit", keys=len(keys),
                              restarts=outcome.restarts)
        return outcome


# ---------------------------------------------------------------------------
# Unleased baseline clients (raceful by design)
# ---------------------------------------------------------------------------

class _BaselineBase:
    """Shared read path: Facebook read leases over Twemcache.

    The store is a :class:`repro.kvs.read_lease.ReadLeaseStore`.  Reads use
    ``lease_get``/``lease_set``; on a hot miss the reader backs off.  Write
    sessions are technique-specific and carry the races the IQ framework
    eliminates.
    """

    def __init__(self, store, connection_factory, backoff=None, clock=None):
        self.store = store
        self.connection_factory = connection_factory
        self.backoff = backoff or ExponentialBackoff(BackoffConfig())
        self.clock = clock or SystemClock()

    @property
    def is_strongly_consistent(self):
        return False

    def read(self, key, compute):
        delays = self.backoff.delays()
        while True:
            result = self.store.lease_get(key)
            if result.is_hit:
                return result.value
            if result.has_lease:
                value = compute()
                if value is not None:
                    self.store.lease_set(key, value, result.token)
                return value
            self.clock.sleep(next(delays))

    def _run_sql(self, sql_body, before_body=None):
        """Run the RDBMS transaction of a baseline write session (one
        attempt: a conflict propagates, it never restarts)."""
        with attempt(self.connection_factory) as session:
            return session.transaction(sql_body, before_body=before_body)


class BaselineInvalidateClient(_BaselineBase):
    """Invalidate without Q leases.

    With ``DeleteTiming.DURING_TRANSACTION`` this is the trigger
    configuration of Figure 3, which races with snapshot-isolation readers
    and inserts stale values.  ``AFTER_COMMIT`` shrinks but does not close
    the window (Section 3.1: "it is still possible for an adversary to
    move Step 2.5 to occur after this step").
    """

    def __init__(self, store, connection_factory,
                 timing=DeleteTiming.DURING_TRANSACTION, **kwargs):
        super().__init__(store, connection_factory, **kwargs)
        self.timing = timing

    def write(self, sql_body, changes):
        def delete_all():
            for change in changes:
                self.store.delete(change.key)

        if self.timing == DeleteTiming.DURING_TRANSACTION:
            # The trigger fires as part of the DML, so the deletes land
            # while the rest of the transaction (and the commit round
            # trip) is still in flight -- the Figure 3 window.
            result = self._run_sql(sql_body, before_body=delete_all)
        else:
            result = self._run_sql(sql_body)
            delete_all()
        return SessionOutcome(result, restarts=0)


class BaselineRefreshClient(_BaselineBase):
    """Refresh via get / modify / cas after commit (Figure 10).

    The cas retry loop repairs KVS-internal interleavings but cannot align
    the KVS order with the RDBMS serialization order (Figure 2), nor stop
    a snapshot-stale recomputation from landing, so stale data persists.
    """

    #: gets/cas rounds per key before the refresh gives up
    CAS_RETRIES = 3

    def write(self, sql_body, changes):
        from repro.kvs.store import StoreResult

        result = self._run_sql(sql_body)
        for change in changes:
            if change.invalidate or change.refresher is None:
                self.store.delete(change.key)
                continue
            for _round in range(self.CAS_RETRIES):
                got = self.store.gets(change.key)
                if got is None:
                    break  # nothing cached; next reader recomputes
                value, _flags, cas_id = got
                new_value = change.refresher(value)
                if new_value is None:
                    break
                if self.store.cas(change.key, new_value, cas_id) == StoreResult.STORED:
                    break
        return SessionOutcome(result, restarts=0)


class BaselineDeltaClient(_BaselineBase):
    """Incremental update applied directly after commit.

    Appends/increments race with concurrent read sessions repopulating the
    key from a stale snapshot (Figures 7 and 8: lost or doubled deltas).
    """

    def write(self, sql_body, changes):
        result = self._run_sql(sql_body)
        for change in changes:
            if change.invalidate:
                self.store.delete(change.key)
                continue
            for op, operand in change.deltas:
                # ``KeyChange`` admits only DELTA_OPS, each of which is
                # the name of the store method that applies it.
                getattr(self.store, op)(change.key, operand)
        return SessionOutcome(result, restarts=0)
