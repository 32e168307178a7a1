"""The session programming model.

A *session* is "a sequence of operations consisting of at most one RDBMS
transaction and one or more KVS operations" (Table 2 of the paper).  Write
sessions follow a 2PL-like discipline: all Q leases are acquired before
the RDBMS transaction commits (the growing phase) and the KVS changes are
applied -- and leases released -- after the commit (the shrinking phase).

Two lease-acquisition strategies are compared in Section 6.2:

* :attr:`AcquisitionMode.PRIOR` -- QaRead/QaR before ``BEGIN``; a lease
  conflict needs no RDBMS rollback but has no queuing, so under load a
  session can starve (Table 6's high restart maxima);
* :attr:`AcquisitionMode.DURING` -- QaRead/QaR inside the transaction; a
  conflict forces a rollback but the shorter lease hold time keeps restart
  counts low.

:class:`SessionRunner` executes a session body with automatic abort,
rollback, backoff, and restart accounting (the Table 6 metric); every
attempt, restarted or one-shot, opens and closes its connection through
:func:`attempt`.
"""

import enum
from contextlib import contextmanager

from repro.config import BackoffConfig
from repro.errors import (
    CacheUnavailableError,
    QuarantinedError,
    StarvationError,
    TransactionAbortedError,
)
from repro.obs.trace import get_tracer, trace_context
from repro.util.backoff import ExponentialBackoff
from repro.util.clock import SystemClock


class AcquisitionMode(enum.Enum):
    """When a write session acquires its Q leases (Section 6.2)."""

    PRIOR = "prior to the RDBMS transaction"
    DURING = "during the RDBMS transaction"


class SqlSession:
    """The SQL half of a write session: one RDBMS connection, no TID.

    Baseline, clock and degraded writes hand ``sql_body`` this half
    alone; :class:`WriteSession` adds the KVS half.  ``tid`` and
    ``trace_id`` are ``None``: the session mints nothing.
    """

    tid = None
    trace_id = None

    def __init__(self, connection):
        self.sql = connection

    def transaction(self, sql_body, before_body=None, **commit_options):
        """``BEGIN``, ``before_body()``, ``sql_body(self)``, ``COMMIT``.

        Returns ``sql_body``'s result.  On failure the transaction is
        left for :meth:`abandon` (the session's :func:`attempt`) to roll
        back; ``commit_options`` go to the connection's ``commit``.
        """
        self.begin_sql()
        if before_body is not None:
            before_body()
        result = sql_body(self)
        self.commit_sql(**commit_options)
        return result

    def begin_sql(self):
        return self.sql.begin()

    def execute(self, sql, params=()):
        return self.sql.execute(sql, params)

    def query_one(self, sql, params=()):
        return self.sql.query_one(sql, params)

    def query_scalar(self, sql, params=()):
        return self.sql.query_scalar(sql, params)

    def on_commit(self, callback):
        return self.sql.on_commit(callback)

    def commit_sql(self, **options):
        self.sql.commit(**options)

    def rollback_sql(self):
        if self.sql.in_transaction:
            self.sql.rollback()

    def abandon(self):
        """Clean up after a failure: roll the transaction back."""
        self.rollback_sql()


class WriteSession(SqlSession):
    """One attempt at executing a write session.

    Binds a fresh TID from the IQ-Server to an RDBMS connection and exposes
    the session-scoped commands, sent straight to the client's
    :class:`~repro.core.backend.LeaseBackend`.  The KVS-side commit happens
    via :meth:`dar` (invalidate), :meth:`sar` per key (refresh), or
    :meth:`commit_kvs` (incremental update) -- always *after*
    :meth:`commit_sql`.
    """

    def __init__(self, client, connection):
        self.sql = connection
        self.kvs = client.server
        self._tracer = get_tracer()
        #: Trace id propagated through every KVS command of this session
        #: (and, via the wire token / shard fan-out, to the servers it
        #: touches).  ``None`` when tracing is disabled -- the no-op path.
        self.trace_id = self._tracer.new_trace() if self._tracer.active else None
        with trace_context(self.trace_id):
            self.tid = self.kvs.gen_id()
        self._finished = False
        if self.trace_id is not None:
            self._tracer.emit("session.begin", tid=self.tid,
                              trace_id=self.trace_id)

    def _end(self, how):
        if self.trace_id is not None:
            self._tracer.emit("session.end", tid=self.tid,
                              trace_id=self.trace_id, how=how)

    # -- KVS commands bound to this session's TID --------------------------------

    def iq_get(self, key):
        """Read ``key`` with this session's read-your-own-update view."""
        with trace_context(self.trace_id):
            return self.kvs.iq_get(key, session=self.tid)

    def qar(self, key):
        with trace_context(self.trace_id):
            return self.kvs.qar(self.tid, key)

    def qareg(self, keys):
        """Bulk-acquire invalidation Q leases for ``keys`` in one batch.

        Returns the ordered key -> ``"granted"``/``"abort"``/
        ``"unavailable"`` dict of
        :meth:`~repro.core.backend.LeaseBackend.qar_many`; acquisition
        stops at the first reject exactly like sequential :meth:`qar`.
        """
        with trace_context(self.trace_id):
            return self.kvs.qar_many(self.tid, keys)

    def qaread(self, key):
        with trace_context(self.trace_id):
            return self.kvs.qaread(key, self.tid)

    def sar(self, key, value):
        with trace_context(self.trace_id):
            return self.kvs.sar(key, value, self.tid)

    def propose_refresh(self, key, value):
        with trace_context(self.trace_id):
            return self.kvs.propose_refresh(key, value, self.tid)

    def delta(self, key, op, operand):
        with trace_context(self.trace_id):
            return self.kvs.iq_delta(self.tid, key, op, operand)

    def dar(self):
        with trace_context(self.trace_id):
            self.kvs.dar(self.tid)
        self._finished = True
        self._end("dar")

    def commit_kvs(self):
        with trace_context(self.trace_id):
            self.kvs.commit(self.tid)
        self._finished = True
        self._end("commit")

    # -- RDBMS commit ------------------------------------------------------------------

    def commit_sql(self, **options):
        self.sql.commit(**options)
        if self.trace_id is not None:
            # Emitted only after a successful commit: the auditor's 2PL
            # check treats KVS applies before this event as violations.
            self._tracer.emit("session.sql_commit", tid=self.tid,
                              trace_id=self.trace_id)

    # -- cleanup ----------------------------------------------------------------------

    def detach_kvs(self):
        """Give up on this session's KVS side without contacting the server.

        Used when the cache became unreachable after the RDBMS commit:
        the session's Q leases are left to expire server-side, which
        deletes the quarantined keys (Section 4.2 condition 3) and keeps
        the cache safe without a reachable connection.
        """
        self._finished = True
        self._end("detach")

    def abandon(self):
        """Release everything after a failure: KVS leases + RDBMS rollback."""
        if not self._finished:
            try:
                with trace_context(self.trace_id):
                    self.kvs.abort(self.tid)
            except CacheUnavailableError:
                # Unreachable cache: the leases expire on their own and
                # the server discards the session's proposals.
                pass
            self._finished = True
            self._end("abandon")
        self.rollback_sql()


@contextmanager
def attempt(connection_factory, client=None):
    """One session attempt: the only place a session's connection opens
    and closes.

    Yields a :class:`WriteSession` on a fresh TID from ``client``'s
    backend, or a TID-less :class:`SqlSession` when ``client`` is
    ``None``.  Any failure -- minting the TID included -- abandons the
    session (leases released, transaction rolled back) and re-raises;
    the connection is closed either way.
    """
    connection = connection_factory()
    session = None
    try:
        if client is None:
            session = SqlSession(connection)
        else:
            session = WriteSession(client, connection)
        yield session
    except Exception:
        if session is not None:
            session.abandon()
        raise
    finally:
        connection.close()


class SessionOutcome:
    """Result of a completed session plus its restart statistics."""

    __slots__ = ("result", "restarts")

    def __init__(self, result, restarts):
        self.result = result
        self.restarts = restarts

    def __repr__(self):
        return "SessionOutcome(restarts={}, result={!r})".format(
            self.restarts, self.result
        )


class SessionRunner:
    """Run write-session bodies with abort/retry semantics.

    ``body(session)`` implements one attempt of the session; raising
    :class:`QuarantinedError` (Q lease conflict) or
    :class:`TransactionAbortedError` (RDBMS write-write conflict) triggers
    full cleanup -- release leases, roll back the transaction -- a backoff
    delay, and a restart with a fresh TID, per Section 4.2.  The restart
    count is the metric reported in Table 6.

    With ``client=None`` each attempt is a TID-less :class:`SqlSession`:
    the lease-free clock technique restarts its write-write conflicts
    through this same loop.
    """

    RETRIABLE = (QuarantinedError, TransactionAbortedError)

    def __init__(self, client, connection_factory, backoff=None, clock=None):
        self.client = client
        self.connection_factory = connection_factory
        self.backoff = backoff or ExponentialBackoff(BackoffConfig())
        self.clock = clock or SystemClock()

    def run(self, body):
        """Execute ``body`` until it succeeds; returns a SessionOutcome."""
        restarts = 0
        delays = self.backoff.delays()
        while True:
            try:
                with attempt(self.connection_factory, self.client) as session:
                    return SessionOutcome(body(session), restarts)
            except self.RETRIABLE:
                restarts += 1
                tracer = get_tracer()
                if tracer.active:
                    tracer.emit("session.restart", tid=session.tid,
                                trace_id=session.trace_id, restarts=restarts)
                try:
                    delay = next(delays)
                except StarvationError:
                    raise StarvationError(restarts)
                self.clock.sleep(delay)
