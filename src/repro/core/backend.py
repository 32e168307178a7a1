"""LeaseBackend: the abstract IQ command surface.

The paper's Section 5 defines ten commands; everything above the cache
tier -- :class:`~repro.core.iq_client.IQClient`, the write-session model,
the consistency clients, the BG harness -- needs exactly that surface and
nothing else.  This module names it, so the cache tier is pluggable:

* :class:`~repro.core.iq_server.IQServer` -- the in-process server;
* :class:`~repro.net.client.RemoteIQServer` -- the same surface over TCP;
* :class:`~repro.net.resilient.ResilientIQServer` -- the fault-tolerant
  TCP client (timeouts, reconnect, circuit breaker, journal);
* :class:`~repro.sharding.ShardedIQServer` -- N backends behind a
  consistent-hash router, each itself any of the above.

The composition is closed under itself: a sharded router over resilient
remotes over restartable servers still *is* a ``LeaseBackend``, which is
what lets every consistency technique run unchanged against any cache
tier topology.

Implementations must honour two cross-cutting contracts that the
sessions' safety argument relies on:

* ``commit``/``abort``/``dar`` of an unknown or already-finished TID are
  no-ops (a retried or zombie terminator cannot double-apply);
* a Q lease's finite lifetime deletes its key on expiry (Section 4.2
  condition 3), so a backend that loses its client mid-session converges
  to a safe state on its own.
"""

import abc


class LeaseBackend(abc.ABC):
    """Abstract base class for anything that can serve IQ sessions.

    The methods mirror :class:`~repro.core.iq_server.IQServer` exactly --
    the ten commands of Section 5 plus the two client-visible helpers
    (``release_i`` for an unredeemed I lease, ``propose_refresh`` for the
    Section 4.2.2 buffered-refresh optimization) and ``flush_all`` for
    test isolation.
    """

    # -- session identity ----------------------------------------------------

    @abc.abstractmethod
    def gen_id(self):
        """Command 5, ``GenID``: mint a unique session identifier."""

    # -- reads ---------------------------------------------------------------

    @abc.abstractmethod
    def iq_get(self, key, session=None):
        """Command 1, ``IQget``: read; may grant an I lease on a miss."""

    @abc.abstractmethod
    def iq_set(self, key, value, token):
        """Command 2, ``IQset``: install a value under a live I token."""

    @abc.abstractmethod
    def release_i(self, key, token):
        """Relinquish an unredeemed I lease."""

    # -- refresh (R-M-W) -----------------------------------------------------

    @abc.abstractmethod
    def qaread(self, key, tid):
        """Command 3, ``QaRead``: exclusive Q lease + read."""

    @abc.abstractmethod
    def sar(self, key, value, tid):
        """Command 4, ``SaR``: swap the value, release the Q lease."""

    @abc.abstractmethod
    def propose_refresh(self, key, value, tid):
        """Section 4.2.2: buffer a refresh value until ``commit``."""

    # -- invalidate ----------------------------------------------------------

    @abc.abstractmethod
    def qar(self, tid, key):
        """Command 6, ``QaR``: quarantine-and-register for invalidation."""

    def dar(self, tid):
        """Command 7, ``DaR``: apply registered deletes, release leases.

        Defined as ``commit`` on every backend in this repository.
        """
        return self.commit(tid)

    def qar_many(self, tid, keys):
        """Bulk ``QaR``: acquire invalidation Q leases for ``keys`` in order.

        Returns an ordered dict mapping each *attempted* key to one of
        ``"granted"``, ``"abort"`` (Q-Q incompatibility -- acquisition
        stops, exactly like a sequential run of :meth:`qar`), or
        ``"unavailable"`` (that key's backend was unreachable; the caller
        degrades it individually and acquisition continues).  Keys after
        an ``"abort"`` are never attempted and are absent from the result.

        The default implementation loops :meth:`qar`; wire and sharded
        backends override it with a single round trip per server.
        """
        from repro.errors import CacheUnavailableError, QuarantinedError

        results = {}
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
        return results

    def iq_mget(self, keys, session=None):
        """Bulk ``IQget``: read ``keys`` in order, granting I leases on
        misses exactly as :meth:`iq_get` would.

        Returns an ordered dict mapping each key to its
        :class:`~repro.core.iq_server.IQGetResult`.  The default
        implementation loops :meth:`iq_get`; wire and sharded backends
        override it with a single round trip per server.
        """
        return {key: self.iq_get(key, session=session) for key in keys}

    # -- precise-clock reads (lease-free; ClockClient) ------------------------

    def cget(self, key, clock_now, extend=None):
        """Interval read at commit-clock reading ``clock_now``.

        Serves a cached value only while its validity interval covers
        ``clock_now`` -- the lease-free read path of the precise-clock
        technique.  Every backend in this repository implements it; the
        default raises so a third-party backend that predates the
        command fails loudly rather than serving unvalidated data.
        """
        raise NotImplementedError(
            "{} does not implement cget".format(type(self).__name__)
        )

    def cset(self, key, value, valid_from, valid_until):
        """Install ``value`` stamped with ``[valid_from, valid_until)``."""
        raise NotImplementedError(
            "{} does not implement cset".format(type(self).__name__)
        )

    # -- incremental update --------------------------------------------------

    @abc.abstractmethod
    def iq_delta(self, tid, key, op, operand):
        """Command 8, ``IQ-delta``: propose an incremental change."""

    # -- session termination -------------------------------------------------

    @abc.abstractmethod
    def commit(self, tid):
        """Command 9: apply the session's proposals, release its leases."""

    @abc.abstractmethod
    def abort(self, tid):
        """Command 10: discard proposals, release leases, keep values."""

    # -- plumbing ------------------------------------------------------------

    @abc.abstractmethod
    def flush_all(self):
        """Drop every value, lease, and in-flight session."""
