"""ResilientIQServer: fault-tolerant networked IQ command surface.

Wraps :class:`~repro.net.client.RemoteIQServer` with the robustness layer
the paper's degradation contract needs end-to-end over TCP:

* **per-operation timeouts** -- every exchange runs against a socket
  deadline (``NetConfig.operation_timeout``);
* **automatic reconnect** -- a poisoned connection is discarded and the
  next call dials a fresh one, pacing attempts with the existing
  :mod:`repro.util.backoff` policies;
* **idempotency-aware retry** -- operations whose duplicate execution is
  harmless (``iq_get``, ``get``, ``delete``, ``release_i``, ``dar``,
  ``commit``, ``abort``, ...) are retried on a fresh connection after a
  connection loss; operations that are *not* idempotent (``qaread``,
  ``sar``, ``iq_delta``, ``qar``, the storage commands) are never blindly
  retried (each command's class is the ``idempotent`` field of its
  :mod:`repro.net.commands` record) -- an ambiguous outcome surfaces as
  a typed error and safety
  rests on the server's finite Q-lease lifetime (an interrupted write
  session's leases expire and the key is deleted, Section 4.2);
* **circuit breaker** -- after ``breaker_failure_threshold`` consecutive
  failures the circuit opens and calls fail fast with
  :class:`~repro.errors.CircuitOpenError` (no network I/O), which the
  consistency clients translate into *degraded mode*: reads served from
  the SQL engine, writes applied to SQL only with their keys journaled;
* **delete-on-recover reconciliation** -- keys written while degraded are
  recorded in :attr:`journal`; before the first operation of a recovered
  circuit executes, those keys are deleted from the cache (one ``mdelete``
  round trip) so a stale pre-partition value can never be served again;
* **connection pooling** -- up to ``NetConfig.pool_size`` connections are
  kept live, so concurrent callers run their exchanges in parallel
  instead of serializing on one socket; :meth:`pipeline` checks a pooled
  connection out for a whole batched exchange.

The class exposes the full IQ + memcached method surface (generated
from the same command records as ``RemoteIQServer``'s), so ``IQClient``
and everything above it run unchanged.
"""

import threading

from repro.config import BackoffConfig, NetConfig
from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    OperationTimeout,
    ProtocolError,
)
from repro.core.backend import LeaseBackend
from repro.net import commands
from repro.net.client import Pipeline, RemoteIQServer
from repro.obs.trace import get_tracer
from repro.util.backoff import ExponentialBackoff
from repro.util.clock import SystemClock


class CircuitState:
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Classic three-state breaker on consecutive failures.

    CLOSED -> (``failure_threshold`` consecutive failures) -> OPEN ->
    (``cooldown`` elapses, one probe allowed) -> HALF_OPEN ->
    success -> CLOSED / failure -> OPEN again.
    """

    def __init__(self, failure_threshold=3, cooldown=0.5, clock=None):
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.clock = clock or SystemClock()
        self._lock = threading.Lock()
        self._state = CircuitState.CLOSED
        self._consecutive_failures = 0
        self._opened_at = None
        #: Closed with no failure counted: :meth:`allow` and
        #: :meth:`record_success` would change nothing.  Written under the
        #: lock on every transition, read without it (a call racing a
        #: trip went first), so a caller skips both on a healthy circuit.
        self.healthy = True
        self._tracer = get_tracer()
        #: lifetime counters for reporting
        self.times_opened = 0
        self.times_recovered = 0

    @property
    def state(self):
        with self._lock:
            return self._state

    def allow(self):
        """Gate one call attempt.

        Raises :class:`CircuitOpenError` while the circuit is open and
        cooling down.  After the cooldown, transitions to HALF_OPEN and
        lets the caller through as the probe.

        A closed circuit lets every call through, so that state is read
        without the lock: a call racing a trip went first.
        """
        if self._state == CircuitState.CLOSED:
            return
        with self._lock:
            if self._state == CircuitState.OPEN:
                if self.clock.now() - self._opened_at < self.cooldown:
                    raise CircuitOpenError(
                        "circuit open after {} consecutive failures".format(
                            self._consecutive_failures
                        )
                    )
                self._state = CircuitState.HALF_OPEN
                if self._tracer.active:
                    self._tracer.emit("net.breaker.halfopen")

    def record_failure(self):
        with self._lock:
            self.healthy = False
            self._consecutive_failures += 1
            tripped = (
                self._state == CircuitState.HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            )
            if tripped and self._state != CircuitState.OPEN:
                self._state = CircuitState.OPEN
                self.times_opened += 1
                if self._tracer.active:
                    self._tracer.emit(
                        "net.breaker.open",
                        failures=self._consecutive_failures,
                    )
            if self._state == CircuitState.OPEN:
                self._opened_at = self.clock.now()

    def record_success(self):
        """Note a successful call; returns True when this closed a
        previously-open circuit (the recovery moment).

        Closed with no failures counted (:attr:`healthy`), a success
        changes nothing, so that state is read without the lock; every
        transition and every reset still happens under it.
        """
        if self.healthy:
            return False
        with self._lock:
            recovered = self._state != CircuitState.CLOSED
            self._state = CircuitState.CLOSED
            self._consecutive_failures = 0
            self._opened_at = None
            self.healthy = True
            if recovered:
                self.times_recovered += 1
                if self._tracer.active:
                    self._tracer.emit("net.breaker.close")
            return recovered


class ReconciliationJournal:
    """Keys whose cached value may be stale after degraded-mode writes.

    Thread-safe set semantics; :meth:`drain` atomically empties it so the
    recovery path can delete the keys, re-adding any it fails to reach.
    """

    def __init__(self):
        self._lock = threading.Lock()
        #: The journaled keys.  Read without the lock only to ask whether
        #: it is empty (before every call): a key journaled concurrently
        #: is ordered after that call, and a lock would not change that,
        #: as it is released before the call goes on.
        self.keys = set()
        self.total_journaled = 0
        self.total_reconciled = 0

    def add(self, keys):
        with self._lock:
            for key in keys:
                if key not in self.keys:
                    self.keys.add(key)
                    self.total_journaled += 1

    def drain(self):
        with self._lock:
            keys = sorted(self.keys)
            self.keys.clear()
            return keys

    def peek(self):
        with self._lock:
            return sorted(self.keys)

    def mark_reconciled(self, count):
        with self._lock:
            self.total_reconciled += count

    def remove(self, keys):
        """Forget ``keys`` (they were confirmed deleted from the cache)."""
        with self._lock:
            self.keys.difference_update(keys)

    def __len__(self):
        with self._lock:
            return len(self.keys)

    def __bool__(self):
        return bool(self.keys)


class ConnectionPool:
    """Bounded, thread-safe pool of :class:`RemoteIQServer` connections.

    ``dial`` is a zero-argument factory; ``max_size`` bounds the number
    of live connections.  ``acquire`` hands out an idle connection,
    dials a new one while under the bound, or blocks until a peer
    releases.  Broken (poisoned) connections are closed and shed on
    release, so the pool only ever hands out connections that were
    healthy when last seen.

    Slot accounting is defended against double settlement: every live
    connection is tracked in ``_known``, and :meth:`release` /
    :meth:`discard` of a connection the pool no longer owns are no-ops.
    Without this, a connection settled twice (e.g. discarded by a retry
    path and again by a pipeline teardown during a shard death) would
    corrupt ``_total`` -- either leaking slots until every ``acquire``
    blocks forever on an empty pool, or double-listing a connection so
    two callers share one socket.  A pool whose every connection was
    discarded simply re-dials lazily on the next ``acquire``.

    Every check-out and settlement is O(1) under the pool's lock:
    the idle connections are an insertion-ordered dict used as a set
    (``popitem`` hands out the most recently released one), so
    membership and removal never scan.  The lock is not optional: a
    pop outside it could hand out a connection a concurrent
    :meth:`discard` had just closed.
    """

    def __init__(self, dial, max_size):
        self._dial = dial
        self._max = max(1, max_size)
        # Entered as the plain lock (cheaper than the condition's
        # Python-level __enter__); the condition over it is for waiting.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: idle connections, as dict keys (values unused)
        self._idle = {}
        #: every connection the pool currently owns (idle or checked out)
        self._known = set()
        self._total = 0
        #: callers blocked in ``acquire`` (settlements notify only then)
        self._waiting = 0
        self._closed = False

    @property
    def live_connections(self):
        with self._lock:
            return self._total

    def acquire(self):
        with self._lock:
            # The common case: an idle, healthy connection.
            if self._idle and not self._closed:
                conn = self._idle.popitem()[0]
                if not conn.broken:
                    return conn
                self._forget(conn)
                stale = [conn]
            else:
                stale = []
        try:
            with self._lock:
                while True:
                    if self._closed:
                        raise ConnectionLostError(
                            "connection pool is closed"
                        )
                    if self._idle:
                        conn = self._idle.popitem()[0]
                        if conn.broken:
                            self._forget(conn)
                            stale.append(conn)
                            continue
                        return conn
                    if self._total < self._max:
                        self._total += 1
                        break
                    self._waiting += 1
                    try:
                        self._cond.wait()
                    finally:
                        self._waiting -= 1
        finally:
            for conn in stale:
                self._close_quietly(conn)
        try:
            conn = self._dial()
        except BaseException:
            with self._lock:
                self._total -= 1
                if self._waiting:
                    self._cond.notify()
            raise
        with self._lock:
            self._known.add(conn)
        return conn

    def release(self, conn):
        """Return a connection; a broken one is closed and its slot freed.

        Releasing a connection the pool no longer owns (already
        discarded, or already sitting idle) is a no-op.
        """
        with self._lock:
            if conn not in self._known or conn in self._idle:
                return
            if conn.broken or self._closed:
                self._forget(conn)
            else:
                self._idle[conn] = None
                conn = None
            # Settlements notify only while a caller waits in acquire().
            if self._waiting:
                self._cond.notify()
        if conn is not None:
            self._close_quietly(conn)

    def discard(self, conn):
        """Drop a connection the caller saw fail (frees its slot).

        Idempotent: a second discard of the same connection leaves the
        accounting untouched.
        """
        with self._lock:
            if conn not in self._known:
                return
            self._idle.pop(conn, None)
            self._forget(conn)
            if self._waiting:
                self._cond.notify()
        self._close_quietly(conn)

    def close(self):
        with self._lock:
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            for conn in idle:
                self._forget(conn)
            self._cond.notify_all()
        for conn in idle:
            self._close_quietly(conn)

    def _forget(self, conn):
        """Give up ownership of ``conn`` and its slot (lock held)."""
        self._known.discard(conn)
        self._total -= 1

    @staticmethod
    def _close_quietly(conn):
        try:
            conn.close()
        except OSError:
            pass


class ResilientIQServer(commands.surface("_call", skip_empty=True),
                        LeaseBackend):
    """Self-healing drop-in for :class:`RemoteIQServer`."""

    def __init__(self, host="127.0.0.1", port=11211, config=None,
                 backoff_config=None, clock=None, injector=None):
        self.host = host
        self.port = port
        self.config = config or NetConfig()
        self.clock = clock or SystemClock()
        self._injector = injector
        self._backoff = ExponentialBackoff(
            backoff_config or BackoffConfig(
                initial_delay=0.01, max_delay=0.2, max_attempts=None
            )
        )
        self.circuit = CircuitBreaker(
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown=self.config.breaker_cooldown,
            clock=self.clock,
        )
        self.journal = ReconciliationJournal()
        self._pool = ConnectionPool(self._dial, self.config.pool_size)
        self._reconcile_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._tracer = get_tracer()
        #: lifetime counters for reporting
        self.reconnects = 0
        self.retries = 0
        self.failures = 0
        self.promotions = 0

    # -- connection management ----------------------------------------------

    def _dial(self):
        """Connection factory for the pool."""
        conn = RemoteIQServer(
            self.host, self.port,
            timeout=self.config.operation_timeout,
            injector=self._injector,
        )
        with self._counter_lock:
            self.reconnects += 1
            count = self.reconnects
        if self._tracer.active:
            self._tracer.emit("net.reconnect", count=count)
        return conn

    def promote_standby(self, host=None, port=None):
        """Dial over to a warm standby address for this shard.

        Swaps the target endpoint, retires the old connection pool, and
        resets the breaker so the first call probes the standby
        immediately.  The reconciliation journal is deliberately kept:
        the standby may have mirrored values that degraded-mode writes
        made stale, and :meth:`_ensure_reconciled` replays the
        delete-on-recover pass against the new address before any
        regular operation reaches it.
        """
        old_pool = self._pool
        if host is not None:
            self.host = host
        if port is not None:
            self.port = port
        self._pool = ConnectionPool(self._dial, self.config.pool_size)
        old_pool.close()
        self.circuit.record_success()
        with self._counter_lock:
            self.promotions += 1
        if self._tracer.active:
            self._tracer.emit("net.failover", host=self.host, port=self.port)

    def close(self):
        self._pool.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- the resilient call path ---------------------------------------------

    def _note_failure(self):
        self.circuit.record_failure()
        with self._counter_lock:
            self.failures += 1

    def _call(self, cmd, args):
        """Run one operation with timeout/reconnect/retry/breaker logic.

        Each attempt checks a connection out of the pool, so concurrent
        callers no longer serialize on one socket; only reconciliation
        after a recovery is a (brief) global critical section.  The
        command's record says whether a lost connection may be answered
        by a replay (``idempotent``) and whether giving up is reported
        as ``False`` rather than raised (``best_effort``).
        """
        attempts_left = self.config.max_retries if cmd.idempotent else 0
        delays = None
        circuit = self.circuit
        journal = self.journal
        while True:
            conn = None
            try:
                if not circuit.healthy:
                    circuit.allow()
                conn = self._pool.acquire()
                if journal.keys:
                    self._ensure_reconciled(conn)
                result = conn._execute(cmd, args)
            except (ConnectionLostError, OperationTimeout):
                if conn is not None:
                    self._pool.discard(conn)
                self._note_failure()
                if attempts_left <= 0:
                    if cmd.best_effort:
                        return False
                    raise
                attempts_left -= 1
                with self._counter_lock:
                    self.retries += 1
                if self._tracer.active:
                    self._tracer.emit("net.retry", op=cmd.name,
                                      attempts_left=attempts_left)
                if delays is None:
                    delays = self._backoff.delays()
                self.clock.sleep(next(delays))
                continue
            except CircuitOpenError:
                if cmd.best_effort:
                    return False
                raise
            except BaseException:
                # Refusals (QuarantinedError, an error reply ...) leave
                # the connection healthy and say nothing about the
                # server's health; a framing error poisoned it and
                # release() sheds it.
                if conn is not None:
                    self._pool.release(conn)
                raise
            self._pool.release(conn)
            if not circuit.healthy:
                circuit.record_success()
            return result

    def _ensure_reconciled(self, conn):
        """Delete-on-recover: purge keys written while the cache was
        unreachable *before* any regular operation touches it.

        Keys stay journaled until the ``mdelete`` confirms, and every
        operation that sees a non-empty journal waits on the lock -- so
        no concurrent caller can read a possibly-stale journaled key
        while reconciliation is still in flight.  Runs on the raw
        connection so a reconciliation failure surfaces as the current
        call's connection failure (breaker accounting included) rather
        than recursing through :meth:`_call`.
        """
        if not self.config.reconcile_on_recover or not self.journal:
            return
        with self._reconcile_lock:
            keys = self.journal.peek()
            if not keys:
                return
            if self._tracer.active:
                self._tracer.emit("net.reconcile", keys=len(keys))
            # One pipelined round trip; on failure the keys were never
            # removed from the journal (deletes are idempotent, so the
            # next recovery simply re-deletes them all).
            conn.mdelete(keys)
            self.journal.remove(keys)
            self.journal.mark_reconciled(len(keys))

    # -- pipelined batches -----------------------------------------------------

    def pipeline(self):
        """Check a pooled connection out and return a batch context.

        The connection is returned to the pool when the pipeline
        executes (or its ``with`` block exits); a transport failure
        anywhere in the batch discards the connection and trips the
        breaker accounting, exactly like a single failed call.
        """
        self.circuit.allow()
        conn = self._pool.acquire()
        try:
            self._ensure_reconciled(conn)
        except BaseException:
            self._pool.discard(conn)
            self._note_failure()
            raise
        return _PooledPipeline(self, conn)

    # Not a wire command (no record): the same refusal, no connection.
    propose_refresh = RemoteIQServer.propose_refresh


class _PooledPipeline(Pipeline):
    """A :class:`~repro.net.client.Pipeline` over a pooled connection.

    Settles the connection back into (or out of) the owner's pool when
    the batch completes, with the same breaker accounting as
    ``ResilientIQServer._call``.  Pipelines are never blindly retried:
    a batch typically mixes idempotent and non-idempotent commands, so
    an interrupted batch surfaces its typed error and the caller decides.
    """

    def __init__(self, owner, conn):
        super().__init__(conn)
        self._owner = owner
        self._settled = False

    def _settle(self, failed):
        if self._settled:
            return
        self._settled = True
        if failed:
            self._owner._pool.discard(self._conn)
            self._owner._note_failure()
        else:
            self._owner._pool.release(self._conn)
            self._owner.circuit.record_success()

    def execute(self):
        try:
            results = super().execute()
        except (ConnectionLostError, OperationTimeout, ProtocolError):
            self._settle(failed=True)
            raise
        self._settle(failed=False)
        return results

    def __exit__(self, exc_type, exc, tb):
        try:
            return super().__exit__(exc_type, exc, tb)
        finally:
            # Covers the not-executed paths (exception inside the with
            # body); a clean exit already settled via execute().
            self._settle(failed=self._conn.broken)
