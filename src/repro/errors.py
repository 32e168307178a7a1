"""Exception taxonomy for the reproduction.

Every subsystem raises exceptions rooted at :class:`ReproError` so that
applications (and the benchmark harness) can distinguish programming errors
from protocol outcomes such as lease conflicts, which are a normal part of
the IQ framework's control flow.
"""


class ReproError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# KVS errors
# ---------------------------------------------------------------------------

class KVSError(ReproError):
    """Base class for key-value store errors."""


class CacheMissError(KVSError):
    """A strict read referenced a key with no value in the KVS."""

    def __init__(self, key):
        super().__init__("cache miss for key {!r}".format(key))
        self.key = key


class BadValueError(KVSError):
    """A value was not usable for the requested command.

    For example ``incr`` on a value that is not an unsigned integer, which
    memcached reports as ``CLIENT_ERROR cannot increment or decrement
    non-numeric value``.
    """


class KeyFormatError(KVSError):
    """A key contained illegal characters or exceeded the length limit."""


class ValueTooLargeError(KVSError):
    """A value exceeded the configured per-item size limit."""


# ---------------------------------------------------------------------------
# Lease / IQ framework errors
# ---------------------------------------------------------------------------

class LeaseError(ReproError):
    """Base class for lease protocol outcomes."""


class LeaseConflictError(LeaseError):
    """A lease request could not be granted and the caller must back off.

    Raised, for example, when a read session requests an I lease on a key
    that already carries an I or Q lease (Figure 5a of the paper: *back
    off and retry*).
    """

    def __init__(self, key, message=None):
        super().__init__(message or "lease conflict on key {!r}".format(key))
        self.key = key


class QuarantinedError(LeaseError):
    """A refresh/delta Q lease request hit an existing Q lease.

    Per the compatibility matrix of Figure 5b the *requesting* session must
    release all of its leases, roll back its RDBMS transaction (if any),
    back off, and retry from the start.
    """

    def __init__(self, key):
        super().__init__(
            "key {!r} is quarantined by another session; abort and retry".format(key)
        )
        self.key = key


class InvalidTokenError(LeaseError):
    """A lease token did not match the server's current lease for the key."""

    def __init__(self, key, token):
        super().__init__(
            "token {!r} is not valid for key {!r}".format(token, key)
        )
        self.key = key
        self.token = token


class SessionAbortedError(ReproError):
    """A session was aborted and must be retried by the caller.

    Sessions abort either because a ``QaRead``/``IQ-delta`` command returned
    *quarantine unsuccessful* or because the RDBMS aborted the session's
    transaction (snapshot-isolation write-write conflict).
    """

    def __init__(self, reason="session aborted", retriable=True):
        super().__init__(reason)
        self.retriable = retriable


class StarvationError(SessionAbortedError):
    """A session exhausted its retry budget without acquiring its leases.

    Section 6.2 of the paper observes this can happen when Q leases are
    acquired *prior to* the RDBMS transaction under high load because there
    is no queuing mechanism for lease acquisition.
    """

    def __init__(self, attempts):
        super().__init__(
            "session starved after {} attempts".format(attempts), retriable=False
        )
        self.attempts = attempts


# ---------------------------------------------------------------------------
# SQL engine errors
# ---------------------------------------------------------------------------

class SQLError(ReproError):
    """Base class for relational engine errors."""


class ParseError(SQLError):
    """The SQL text could not be parsed."""


class SchemaError(SQLError):
    """Reference to an unknown table/column, duplicate definition, etc."""


class IntegrityError(SQLError):
    """A constraint (primary key, not-null) was violated."""


class TransactionAbortedError(SQLError):
    """The transaction was aborted by the engine.

    Under snapshot isolation this is the *first-committer-wins* outcome: the
    transaction attempted to commit an update that conflicts with a write
    committed by a concurrent transaction since this transaction's snapshot.
    """

    def __init__(self, reason="transaction aborted"):
        super().__init__(reason)


class TransactionStateError(SQLError):
    """An operation was issued against a transaction in the wrong state."""


# ---------------------------------------------------------------------------
# Wire protocol errors
# ---------------------------------------------------------------------------

class ProtocolError(ReproError):
    """Malformed request or response on the memcached wire protocol."""


class ServerReplyError(ReproError):
    """The server answered a command with ``SERVER_ERROR``/``CLIENT_ERROR``.

    The reply was read completely, so the connection stays usable and
    the command must not be retried: the server refused it, it did not
    lose it.  ``CLIENT_ERROR`` replies that report a bad key, value or
    size surface as the :class:`KeyFormatError` / :class:`BadValueError`
    / :class:`ValueTooLargeError` the in-process server raises instead.
    """


# ---------------------------------------------------------------------------
# Cache availability errors
# ---------------------------------------------------------------------------

class CacheUnavailableError(ReproError):
    """Base class: the KVS could not be reached (or must not be used).

    The consistency clients catch this class to enter *degraded mode*:
    reads are served straight from the SQL engine and writes skip their
    KVS operations, journaling the impacted keys for delete-on-recover
    reconciliation.  Correctness is preserved -- the cache either holds
    nothing for the key or is repaired before it is consulted again --
    only performance degrades, which is the paper's failure contract.
    """


class ConnectionLostError(CacheUnavailableError):
    """The TCP connection to the cache server failed or is poisoned.

    Once a request/response exchange breaks mid-frame the stream can no
    longer be trusted (a later reader would consume garbage), so the
    connection is marked dead and every subsequent call fails with this
    error until a fresh connection is established.
    """


class OperationTimeout(CacheUnavailableError):
    """A single cache operation exceeded its per-operation deadline."""


class CircuitOpenError(CacheUnavailableError):
    """The circuit breaker is open; the cache is not being contacted.

    Raised without touching the network so callers fail fast into
    degraded mode instead of stacking timeouts behind a dead server.
    """


class DegradedModeActive(CacheUnavailableError):
    """A cache-dependent operation was refused while running degraded.

    Raised by consistency clients configured with ``degraded_fallback``
    disabled: instead of silently serving from the SQL engine they
    surface the degradation to the application.
    """
