"""Chaos orchestration: kill-and-restart servers, frozen lease holders.

:class:`RestartableServer` owns a fixed TCP port and can kill and
re-start an IQ cache server on it mid-workload -- the wire-level analogue
of the paper's restart experiment.  A restart is *cold*: the replacement
gets a fresh :class:`~repro.core.iq_server.IQServer` (empty store, empty
lease table), which models a process restart and is always safe -- an
empty cache cannot serve stale data.  TID generation restarts at a new
epoch offset so in-flight sessions created against the dead server can
never collide with sessions minted by its successor.

:class:`FrozenLeaseHolder` acquires a Q lease and then goes silent,
standing in for an application node that froze mid-write-session; the
server's Q-lease TTL must expire it (Section 4.2 condition 3) for the
workload to make progress without staleness.
"""

import socket
import threading

from repro.errors import CacheUnavailableError
from repro.net.async_server import AsyncIQServer


#: Gap between the TID ranges of successive server incarnations.
TID_EPOCH_STRIDE = 1_000_000


class RestartableServer:
    """An :class:`AsyncIQServer` that can be killed and restarted on one
    port."""

    def __init__(self, iq_server_factory, host="127.0.0.1",
                 fault_injector=None):
        #: builds a fresh IQServer for each incarnation; called with the
        #: incarnation's ``tid_start``
        self._factory = iq_server_factory
        self._host = host
        self._injector = fault_injector
        self._lock = threading.Lock()
        self._server = None
        self._thread = None
        self.epoch = 0
        #: how many times the server has been killed
        self.kills = 0
        self._port = self._reserve_port()

    def _reserve_port(self):
        """Pick a free port once so every incarnation reuses it."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((self._host, 0))
        port = probe.getsockname()[1]
        probe.close()
        return port

    @property
    def port(self):
        return self._port

    @property
    def iq_server(self):
        with self._lock:
            return self._server.iq_server if self._server else None

    @property
    def alive(self):
        with self._lock:
            return self._server is not None

    def start(self):
        """Start (or restart) an incarnation; returns its IQServer."""
        with self._lock:
            if self._server is not None:
                raise RuntimeError("server already running")
            self.epoch += 1
            iq = self._factory(tid_start=self.epoch * TID_EPOCH_STRIDE + 1)
            server = AsyncIQServer(
                (self._host, self._port), iq,
                fault_injector=self._injector,
            )
            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            self._server = server
            self._thread = thread
            return iq

    def kill(self):
        """Shut the current incarnation down abruptly."""
        with self._lock:
            server, thread = self._server, self._thread
            self._server = self._thread = None
        if server is None:
            return
        self.kills += 1
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    def restart(self):
        """Kill (if alive) and bring up a cold replacement."""
        self.kill()
        return self.start()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.kill()
        return False


class FrozenLeaseHolder:
    """A write session that acquires Q leases and then freezes forever.

    ``freeze(keys)`` grabs an exclusive Q lease (via ``qaread``) on each
    key and never completes the session.  Other sessions must abort
    against those keys until the server's Q TTL expires and deletes them,
    after which the system recovers with zero staleness.
    """

    def __init__(self, server):
        #: anything with the IQ command surface (IQServer / RemoteIQServer)
        self.server = server
        self.tid = None
        self.frozen_keys = []

    def freeze(self, keys):
        self.tid = self.server.gen_id()
        for key in keys:
            try:
                self.server.qaread(key, self.tid)
            except CacheUnavailableError:
                break
            self.frozen_keys.append(key)
        return self.frozen_keys

    def zombie_commit(self):
        """The frozen node wakes up after its leases expired and commits.

        The server must treat this as a no-op for every expired lease;
        returns without raising even if the connection is gone.
        """
        if self.tid is None:
            return
        try:
            self.server.commit(self.tid)
        except CacheUnavailableError:
            pass
