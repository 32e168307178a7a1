"""Memcached ASCII wire protocol with IQ lease extensions.

The paper's IQ-Twemcached is a network server spoken to by a modified
Whalin client.  This package provides the equivalent end-to-end path:

* :mod:`repro.net.commands` -- the command table: one record per wire
  command (the standard memcached text commands ``get``, ``set``,
  ``cas``, ``delete``, ``incr`` ... plus the IQ extensions ``iqget``,
  ``iqset``, ``qaread``, ``sar``, ``genid``, ``qar``, ``dar``,
  ``iqdelta``, ``commit``, ``abort`` ...) from which the clients'
  methods and the servers' dispatch are derived;
* :mod:`repro.net.protocol` -- request/response framing shared by all
  of them;
* :mod:`repro.net.server` -- a threaded TCP server exposing an
  :class:`~repro.core.iq_server.IQServer` (the reference transport);
* :mod:`repro.net.async_server` -- the event-loop transport: one thread
  multiplexing every connection over non-blocking sockets, byte-for-byte
  compatible with the threaded server (the transport parity contract);
* :mod:`repro.net.dispatch` -- the shared command dispatcher both
  transports funnel through;
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
from repro.net.async_server import AsyncIQServer
from repro.net.server import IQTCPServer, serve_background, server_class

__all__ = [
    "AsyncIQServer",
    "CircuitBreaker",
    "CircuitState",
    "ConnectionPool",
    "IQTCPServer",
    "Pipeline",
    "ReconciliationJournal",
    "RemoteIQServer",
    "ResilientIQServer",
    "serve_background",
    "server_class",
]
