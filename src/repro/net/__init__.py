"""Memcached ASCII wire protocol with IQ lease extensions.

The paper's IQ-Twemcached is a network server spoken to by a modified
Whalin client.  This package provides the equivalent end-to-end path:

* :mod:`repro.net.commands` -- the command table: one record per wire
  command (the standard memcached text commands ``get``, ``set``,
  ``cas``, ``delete``, ``incr`` ... plus the IQ extensions ``iqget``,
  ``iqset``, ``qaread``, ``sar``, ``genid``, ``qar``, ``dar``,
  ``iqdelta``, ``commit``, ``abort`` ...) from which the clients'
  methods and the server's handler table are derived;
* :mod:`repro.net.protocol` -- request/response framing shared by all
  of them;
* :mod:`repro.net.async_server` -- the server: one event-loop thread
  multiplexing every connection over non-blocking sockets and exposing
  an :class:`~repro.core.iq_server.IQServer`;
* :mod:`repro.net.cluster` -- process-per-shard deployment: each shard
  of a consistent-hash ring runs in its own OS process with health
  checks, graceful drain, and restart-on-crash supervision;
* :mod:`repro.net.client` -- :class:`RemoteIQServer`, a client with the
  same method surface as the in-process server, so
  :class:`~repro.core.iq_client.IQClient` (and everything built on it)
  runs unchanged over a real socket;
* :mod:`repro.net.resilient` -- :class:`ResilientIQServer`, the
  fault-tolerant wrapper: per-operation timeouts, automatic reconnect,
  idempotency-aware retry, a circuit breaker, and delete-on-recover
  reconciliation (see ``docs/FAULTS.md``).
"""

from repro.net.client import Pipeline, RemoteIQServer
from repro.net.resilient import (
    CircuitBreaker,
    CircuitState,
    ConnectionPool,
    ReconciliationJournal,
    ResilientIQServer,
)
from repro.net.async_server import AsyncIQServer, serve_background

__all__ = [
    "AsyncIQServer",
    "CircuitBreaker",
    "CircuitState",
    "ConnectionPool",
    "Pipeline",
    "ReconciliationJournal",
    "RemoteIQServer",
    "ResilientIQServer",
    "serve_background",
]
