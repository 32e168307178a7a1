"""Wire-protocol error handling and edge cases against a live server."""

import socket

import pytest

from repro.config import NetConfig
from repro.errors import (
    BadValueError,
    KeyFormatError,
    ServerReplyError,
    ValueTooLargeError,
)
from repro.net import RemoteIQServer, ResilientIQServer, serve_background
from repro.net.protocol import CRLF


@pytest.fixture
def served():
    server, _thread = serve_background()
    yield server
    server.shutdown()


def raw_exchange(port, payload, reads=1):
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(payload)
        chunks = []
        for _ in range(reads):
            chunks.append(sock.recv(65536))
        return b"".join(chunks)


class TestMalformedRequests:
    def test_unknown_command(self, served):
        reply = raw_exchange(served.port, b"warp 9" + CRLF)
        assert reply.startswith(b"SERVER_ERROR")

    def test_bad_size_field(self, served):
        reply = raw_exchange(served.port, b"set k 0 0 notanumber" + CRLF)
        assert reply.startswith(b"SERVER_ERROR")

    def test_key_with_control_chars(self, served):
        reply = raw_exchange(
            served.port, b"get bad\x01key" + CRLF
        )
        assert reply.startswith(b"CLIENT_ERROR") or reply.startswith(
            b"SERVER_ERROR"
        )

    def test_incr_non_numeric_value(self, served):
        with RemoteIQServer(port=served.port) as remote:
            remote.set("k", b"hello")
        reply = raw_exchange(served.port, b"incr k 1" + CRLF)
        assert reply.startswith(b"CLIENT_ERROR")

    def test_connection_survives_error(self, served):
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            sock.sendall(b"bogus" + CRLF)
            assert sock.recv(4096).startswith(b"SERVER_ERROR")
            sock.sendall(b"version" + CRLF)
            assert sock.recv(4096).startswith(b"VERSION")

    def test_oversized_value_rejected(self, served):
        payload = b"x" * (1024 * 1024 + 1)
        request = (
            "set big 0 0 {}".format(len(payload)).encode() + CRLF
            + payload + CRLF
        )
        reply = raw_exchange(served.port, request)
        assert reply.startswith(b"CLIENT_ERROR")


OVERSIZED = b"x" * (1024 * 1024 + 1)

#: (method, args given a backend, exception) -- each used to come back as
#: ``False``, a "miss", or a bare ``ValueError`` because no receiver knew
#: error replies.
REFUSED = [
    ("commit", lambda backend: ("notanint",), ServerReplyError),
    ("iq_set",
     lambda backend: ("k", OVERSIZED, backend.iq_get("k").token),
     ValueTooLargeError),
    ("get", lambda backend: ("k" * 300,), KeyFormatError),
    ("set", lambda backend: ("k", OVERSIZED), ValueTooLargeError),
    ("incr", lambda backend: ("text",), BadValueError),
]


@pytest.fixture(params=("threaded", "async"))
def any_transport(request):
    server, _thread = serve_background(transport=request.param)
    server.iq_server.store.set("text", b"hello")
    yield server
    server.shutdown()
    server.server_close()


@pytest.mark.parametrize(
    "name,args,error", REFUSED, ids=[case[0] for case in REFUSED]
)
class TestErrorRepliesAreTyped:
    def test_client_raises_and_stays_usable(self, any_transport, name, args,
                                            error):
        with RemoteIQServer(port=any_transport.port) as remote:
            with pytest.raises(error) as raised:
                getattr(remote, name)(*args(remote))
            if error is ServerReplyError:
                assert "CLIENT_ERROR bad command arguments" in str(raised.value)
            assert not remote.broken
            assert remote.get("text") == (b"hello", 0)  # reply stream in step

    def test_resilient_neither_retries_nor_trips(self, any_transport, name,
                                                 args, error):
        config = NetConfig(max_retries=2, breaker_failure_threshold=1)
        with ResilientIQServer(port=any_transport.port,
                               config=config) as client:
            with pytest.raises(error):
                getattr(client, name)(*args(client))
            assert (client.retries, client.failures) == (0, 0)
            assert client.circuit.times_opened == 0
            assert client.get("text") == (b"hello", 0)
            assert client.reconnects == 1  # still the first connection

    def test_pipeline_files_it_in_its_slot(self, any_transport, name, args,
                                           error):
        with RemoteIQServer(port=any_transport.port) as remote:
            pipe = remote.pipeline().get("text")
            getattr(pipe, name)(*args(remote))
            results = pipe.get("text").execute()
            assert isinstance(results[1], error)
            assert results[0] == results[2] == (b"hello", 0)


@pytest.mark.parametrize(
    "name,args,error", REFUSED[1:], ids=[case[0] for case in REFUSED[1:]]
)
def test_wire_error_is_the_in_process_error(any_transport, name, args, error):
    """Same class, same message as ``IQServer`` raises (malformed
    arguments, the first case, have no in-process equivalent)."""
    iq = any_transport.iq_server
    target = iq if hasattr(iq, name) else iq.store
    with pytest.raises(error) as local:
        getattr(target, name)(*args(iq))
    iq.flush_all()
    iq.store.set("text", b"hello")
    with RemoteIQServer(port=any_transport.port) as remote:
        with pytest.raises(error) as wire:
            getattr(remote, name)(*args(remote))
    assert str(wire.value) == str(local.value)


class TestMultiKeyGet:
    def test_get_multiple_keys_one_request(self, served):
        with RemoteIQServer(port=served.port) as remote:
            remote.set("a", b"1")
            remote.set("b", b"2")
        reply = raw_exchange(served.port, b"get a b missing" + CRLF)
        assert b"VALUE a 0 1" in reply
        assert b"VALUE b 0 1" in reply
        assert b"missing" not in reply
        assert reply.rstrip().endswith(b"END")


class TestLeaseTTLOverWire:
    def test_short_ttl_server(self):
        from repro.config import LeaseConfig
        from repro.core.iq_server import IQServer
        from repro.util.clock import LogicalClock

        clock = LogicalClock()
        iq = IQServer(
            lease_config=LeaseConfig(i_lease_ttl=1, q_lease_ttl=1),
            clock=clock,
        )
        server, _thread = serve_background(iq)
        try:
            with RemoteIQServer(port=server.port) as remote:
                result = remote.iq_get("k")
                assert result.has_lease
                clock.advance(2)
                # Expired token is ignored; a new lease can be granted.
                assert not remote.iq_set("k", b"late", result.token)
                assert remote.iq_get("k").has_lease
        finally:
            server.shutdown()

    def test_q_expiry_deletes_over_wire(self):
        from repro.config import LeaseConfig
        from repro.core.iq_server import IQServer
        from repro.util.clock import LogicalClock

        clock = LogicalClock()
        iq = IQServer(
            lease_config=LeaseConfig(q_lease_ttl=1), clock=clock
        )
        server, _thread = serve_background(iq)
        try:
            with RemoteIQServer(port=server.port) as remote:
                remote.set("k", b"v")
                tid = remote.gen_id()
                remote.qaread("k", tid)  # client "crashes" here
                clock.advance(2)
                iq.leases.sweep_expired()
                assert remote.get("k") is None
                assert not remote.sar("k", b"zombie", tid)
        finally:
            server.shutdown()


class TestPipelining:
    def test_sequential_commands_on_one_socket(self, served):
        """Multiple requests written before reading any reply."""
        request = (
            b"set a 0 0 1" + CRLF + b"1" + CRLF
            + b"set b 0 0 1" + CRLF + b"2" + CRLF
            + b"get a" + CRLF
        )
        with socket.create_connection(("127.0.0.1", served.port)) as sock:
            sock.sendall(request)
            received = b""
            while b"END" not in received:
                received += sock.recv(4096)
        assert received.count(b"STORED") == 2
        assert b"VALUE a 0 1" in received
