"""The event loop's readiness bookkeeping: a closing connection waits
for writability only, so a peer that keeps talking cannot spin it."""

import socket
import time

import pytest

from repro.core.iq_server import IQServer
from repro.net import RemoteIQServer, serve_background

VALUE = b"v" * (200 * 1024)
GETS = 19


def _thread_cpu(thread):
    return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))


@pytest.mark.skipif(not hasattr(time, "pthread_getcpuclockid"),
                    reason="needs per-thread CPU clocks")
def test_closing_connection_with_a_talking_peer_does_not_spin():
    server, thread = serve_background(IQServer())
    try:
        with RemoteIQServer(port=server.port) as remote:
            assert remote.set("big", VALUE).name == "STORED"
        peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        # A small receive window: the reply backlog (~3.9 MB, under the
        # 4 MB overflow cap) cannot drain while the peer does not read.
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        peer.connect(("127.0.0.1", server.port))
        peer.sendall(b"get big\r\n" * GETS + b"quit\r\n")
        time.sleep(0.3)
        # Bytes after quit: ignored by the server, but they leave the
        # socket readable for as long as the connection lives.
        peer.sendall(b"get big\r\n")

        before = _thread_cpu(thread)
        time.sleep(1.0)
        idle_cpu = _thread_cpu(thread) - before
        assert idle_cpu < 0.2, (
            "server burned {:.2f}s of CPU in a 1s idle window".format(
                idle_cpu))

        # Once the peer drains, every owed reply arrives and then EOF.
        peer.settimeout(10)
        received = 0
        while True:
            chunk = peer.recv(1 << 16)
            if not chunk:
                break
            received += len(chunk)
        peer.close()
        reply = len(b"VALUE big 0 %d\r\n" % len(VALUE)) + len(VALUE) + 7
        assert received == GETS * reply
    finally:
        server.shutdown()
