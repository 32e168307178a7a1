"""The wire server, pinned by golden transcripts.

Every ``CORPUS`` request stream runs on a fresh server and must draw
exactly its ``GOLDEN`` reply stream -- same framing recovery, same
pipelined flush contents, same error wording, same connection-close
decisions -- whether the stream arrives in one write or one byte per
segment.  The golden bytes were recorded once, from two independent
server implementations (thread-per-connection and event loop) that
agreed on every byte; a seeded :class:`FaultPlan`'s hook activations
are pinned the same way.  Adversarial clients (mid-frame disconnects,
floods, half-open readers) and the server's lifecycle (multiplexing,
drain, kill, restart) are checked here too.
"""

import socket
import threading
import time

import pytest

from repro.config import NetConfig
from repro.core.iq_server import IQServer
from repro.net import RemoteIQServer, serve_background
from repro.net.protocol import CRLF


def start(net_config=None, injector=None):
    server, _thread = serve_background(
        iq_server=IQServer(), fault_injector=injector, net_config=net_config,
    )
    return server


def transcript(port, payload, chunks=None, timeout=5.0):
    """Send ``payload`` (optionally pre-chunked), half-close, read it all."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        try:
            for chunk in (payload,) if chunks is None else chunks:
                sock.sendall(chunk)
                if chunks is not None:
                    time.sleep(0.001)
            sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # the server closed mid-stream; its replies are queued
        received = []
        while True:
            try:
                data = sock.recv(65536)
            except OSError:
                break
            if not data:
                break
            received.append(data)
        return b"".join(received)


def run(payload, net_config=None, chunks=None):
    """The reply transcript of ``payload`` on a fresh server."""
    server = start(net_config=net_config)
    try:
        return transcript(server.port, payload, chunks=chunks)
    finally:
        server.shutdown()
        server.server_close()


def lines(*parts):
    return b"".join(p + CRLF for p in parts)


# A corpus of whole-connection request streams.  Every scenario runs on
# a FRESH server (token/TID/cas counters start at the same values), so
# its reply transcript is deterministic.
CORPUS = {
    "storage-and-retrieval": lines(
        b"set k1 0 0 5", b"hello",
        b"add k1 0 0 3", b"nah",
        b"add k2 7 0 2", b"hi",
        b"replace k2 7 0 3", b"hey",
        b"append k2 0 0 1", b"!",
        b"prepend k2 0 0 1", b"~",
        b"get k1 k2 missing",
        b"gets k2",
        b"set n 0 0 1", b"7",
        b"incr n 3",
        b"decr n 100",
        b"touch k1 60",
        b"touch missing 60",
        b"delete k1",
        b"delete k1",
        b"version",
    ),
    "iq-session": lines(
        b"genid",                       # ID 1 on a fresh server
        b"iqget user:1",                # LEASE (deterministic token)
        b"iqget user:1",                # BACKOFF (I lease held)
        b"iqset user:1 2 5", b"alice",  # token minted above
        b"iqget user:1",
        b"qaread user:1 1",
        b"sar user:1 1 3", b"bob",
        b"commit 1",
        b"iqget user:1",
        b"genid",
        b"qar 4 user:2",
        b"sar user:2 4 -1",             # null-value form, no data block
        b"abort 4",
    ),
    "multi-key-and-keysnap": lines(
        b"set a 0 0 1", b"A",
        b"set b 0 0 1", b"B",
        b"iqmget a b c",
        b"keysnap",
        b"genid",
        b"qareg 1 a b",
        b"commit 1",
        b"mdelete a b missing",
        b"keysnap",
    ),
    "trace-tokens": lines(
        b"set t 0 0 2 @t42", b"ok",
        b"get t @t42",
        b"iqget t @t43",
        b"genid @t44",
    ),
    "recoverable-errors": lines(
        b"warp 9",                      # unknown command
        b"get ok",                      # connection stays usable
        b"incr missing 1",
        b"set k 0 0 1", b"x",
        b"incr k 1",                    # CLIENT_ERROR non-numeric
        b"iqset k notanint 1", b"y",    # CLIENT_ERROR bad arguments
        b"get k",                       # data block was still consumed
        b"version",
    ),
    "unparseable-size-closes": lines(
        b"get before",
        b"set k 0 0 notanumber",        # size unknowable: error + close
        b"version",                     # never answered
    ),
    "broken-terminator-closes": (
        lines(b"get before")
        + b"set k 0 0 4" + CRLF + b"12345678" + CRLF
        + lines(b"version")
    ),
    "quit-discards-pipeline": lines(
        b"set k 0 0 1", b"q",
        b"get k",
        b"quit",
        b"get k",                       # after quit: never answered
    ),
    "pipelined-burst": lines(
        *([b"set burst 0 0 2", b"hi"]
          + [b"get burst"] * 40
          + [b"delete burst"])
    ),
    "precise-clock": lines(
        b"cget cool 0",                 # miss: nothing cached
        b"cset cool 0 8 5", b"fresh",   # STORED, valid over [0, 8)
        b"cget cool 3",                 # hit inside the interval
        b"cget cool 3 12",              # hit + dynamic extension to 12
        b"cset cool 0 9 5", b"worse",   # IGNORED: shorter-lived interval
        b"cset cool 5 5 4", b"void",    # IGNORED: empty interval
        b"cget cool 12",                # EXPIRED: past the extended bound
        b"cget cool 12",                # plain MISS: expiry dropped it
        b"set cool 0 0 4", b"zzzz",     # plain set leaves it unstamped
        b"cget cool 1",                 # MISS: unstamped entries never serve
        b"cget",                        # CLIENT_ERROR bad arguments
        b"cset cool 1 2 notanumber",    # size unknowable: error + close
    ),
    "precise-clock-pipelined": lines(
        *([b"cset hot 0 64 2", b"hi"]
          + [b"cget hot 1"] * 20
          + [b"cget hot 64"]            # EXPIRED mid-burst
          + [b"cget hot 64"] * 3        # then plain misses
          + [b"cset hot 64 65 2", b"yo",
             b"cget hot 64"])
    ),
    "set-get-quit": lines(b"set slow 0 0 5", b"hello", b"get slow", b"quit"),
    "clock-quit": lines(
        b"cset ck 2 9 5", b"hello",
        b"cget ck 3",                   # CVALUE reply with its data block
        b"cget ck 9",
        b"quit",
    ),
}

VERSION = b"VERSION repro-iq-twemcached 1.0"

#: The reply stream each ``CORPUS`` entry draws from a fresh server.
GOLDEN = {
    "storage-and-retrieval": lines(
        b"STORED",
        b"NOT_STORED",
        b"STORED",
        b"STORED",
        b"STORED",
        b"STORED",
        b"VALUE k1 0 5", b"hello",
        b"VALUE k2 7 5", b"~hey!",
        b"END",
        b"VALUE k2 7 5 4", b"~hey!",
        b"END",
        b"STORED",
        b"10",
        b"0",
        b"TOUCHED",
        b"NOT_FOUND",
        b"DELETED",
        b"NOT_FOUND",
        VERSION,
    ),
    "iq-session": lines(
        b"ID 1",
        b"LEASE 1",
        b"BACKOFF",
        b"IGNORED",
        b"BACKOFF",
        b"MISS",
        b"STORED",
        b"OK",
        b"VALUE user:1 0 3", b"bob", b"END",
        b"ID 2",
        b"GRANTED",
        b"RELEASED",
        b"OK",
    ),
    "multi-key-and-keysnap": lines(
        b"STORED",
        b"STORED",
        b"VALUE a 0 1", b"A",
        b"VALUE b 0 1", b"B",
        b"LEASE c 1",
        b"END",
        b"KEY a", b"KEY b", b"END",
        b"ID 1",
        b"GRANTED a", b"GRANTED b", b"END",
        b"OK",
        b"DELETED 0",
        b"END",
    ),
    "trace-tokens": lines(
        b"STORED",
        b"VALUE t 0 2", b"ok", b"END",
        b"VALUE t 0 2", b"ok", b"END",
        b"ID 1",
    ),
    "recoverable-errors": lines(
        b"SERVER_ERROR unknown command 'warp'",
        b"END",
        b"NOT_FOUND",
        b"STORED",
        b"CLIENT_ERROR cannot increment or decrement non-numeric value",
        b"CLIENT_ERROR bad command arguments: "
        b"invalid literal for int() with base 10: 'notanint'",
        b"VALUE k 0 1", b"x", b"END",
        VERSION,
    ),
    "unparseable-size-closes": lines(
        b"END",
        b"SERVER_ERROR bad data block size",
    ),
    "broken-terminator-closes": lines(
        b"END",
        b"SERVER_ERROR data block not terminated by CRLF",
    ),
    "quit-discards-pipeline": lines(
        b"STORED",
        b"VALUE k 0 1", b"q", b"END",
    ),
    "pipelined-burst": lines(
        b"STORED",
        *[b"VALUE burst 0 2", b"hi", b"END"] * 40,
        b"DELETED",
    ),
    "precise-clock": lines(
        b"MISS",
        b"STORED",
        b"CVALUE cool 0 0 8 5", b"fresh", b"END",
        b"CVALUE cool 0 0 12 5", b"fresh", b"END",
        b"IGNORED",
        b"IGNORED",
        b"EXPIRED",
        b"MISS",
        b"STORED",
        b"MISS",
        b"CLIENT_ERROR bad command arguments: list index out of range",
        b"SERVER_ERROR bad data block size",
    ),
    "precise-clock-pipelined": lines(
        b"STORED",
        *[b"CVALUE hot 0 0 64 2", b"hi", b"END"] * 20,
        b"EXPIRED",
        b"MISS",
        b"MISS",
        b"MISS",
        b"STORED",
        b"CVALUE hot 0 64 65 2", b"yo", b"END",
    ),
    "set-get-quit": lines(
        b"STORED",
        b"VALUE slow 0 5", b"hello", b"END",
    ),
    "clock-quit": lines(
        b"STORED",
        b"CVALUE ck 0 2 9 5", b"hello", b"END",
        b"EXPIRED",
    ),
}

CASES = [
    pytest.param(name, torn, id=name + ("-byte-at-a-time" if torn else ""))
    for torn in (False, True)
    for name in sorted(CORPUS)
]


@pytest.mark.parametrize("name,torn", CASES)
def test_reply_streams_identical(name, torn):
    """Whole-write and one-byte-segment delivery draw the golden bytes."""
    payload = CORPUS[name]
    chunks = [payload[i:i + 1] for i in range(len(payload))] if torn else None
    assert run(payload, chunks=chunks) == GOLDEN[name]


@pytest.mark.parametrize("cut", [
    b"get half",                 # mid command line, no CRLF
    b"set k 0 0 10" + CRLF,      # announced block, no payload
    b"set k 0 0 10" + CRLF + b"12345",  # partial payload
])
def test_mid_frame_disconnect_leaves_server_serving(cut):
    server = start()
    try:
        with socket.create_connection(("127.0.0.1", server.port)) as sock:
            sock.sendall(cut)
        # The abandoned frame dies with its connection; a fresh client
        # gets normal service.
        reply = transcript(server.port, lines(b"version"))
        assert reply.startswith(b"VERSION")
    finally:
        server.shutdown()
        server.server_close()


class TestPipelineBufferCap:
    """NetConfig.max_pipeline_buffer bounds each connection."""

    CAP = 4096

    def config(self):
        return NetConfig(max_pipeline_buffer=self.CAP)

    def test_unterminated_flood_gets_error_and_close(self):
        server = start(net_config=self.config())
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                sock.settimeout(5)
                # A "line" that never terminates, far past the cap.
                flood = b"x" * (self.CAP * 4)
                try:
                    sock.sendall(flood)
                except OSError:
                    pass  # server may already have closed on us
                received = b""
                while True:
                    try:
                        data = sock.recv(65536)
                    except OSError:
                        break
                    if not data:
                        break
                    received += data
                assert b"SERVER_ERROR connection buffered" in received
        finally:
            server.shutdown()
            server.server_close()

    def test_oversized_announced_block_identical_refusal(self):
        # Announcing a block bigger than the cap is refused up front --
        # before any flooding bytes are buffered.
        payload = lines(
            b"version",
            "set big 0 0 {}".format(self.CAP * 10).encode(),
        )
        assert run(payload, net_config=self.config()) == lines(
            VERSION,
            b"SERVER_ERROR connection buffered 40962 bytes, limit 4096",
        )

    def test_async_half_open_reader_is_disconnected(self):
        # A peer that pipelines requests but never reads replies cannot
        # pin unbounded reply memory: the event loop cuts it off once
        # the backlog passes the cap.
        iq = IQServer()
        iq.store.set("big", b"v" * 1024)
        server, _thread = serve_background(
            iq_server=iq, net_config=self.config(),
        )
        try:
            with socket.create_connection(
                ("127.0.0.1", server.port)
            ) as sock:
                sock.settimeout(10)
                burst = lines(*[b"get big"] * 500)
                try:
                    sock.sendall(burst)
                    # Never read.  The server must close on us; detect it
                    # by the read side reaching EOF/reset.
                    while sock.recv(0) is not None:
                        data = sock.recv(65536)
                        if not data:
                            break
                except OSError:
                    pass
            deadline = time.time() + 5
            while time.time() < deadline:
                if iq.stats.get("evloop_overflow_closes") > 0:
                    break
                time.sleep(0.01)
            assert iq.stats.get("evloop_overflow_closes") > 0
        finally:
            server.shutdown()
            server.server_close()


def test_keysnap_under_pipelining():
    """keysnap inside a pipelined burst: point-in-time snapshot, in-order
    reply."""
    payload = lines(
        b"set k1 0 0 1", b"1",
        b"set k2 0 0 1", b"2",
        b"keysnap",
        b"set k3 0 0 1", b"3",
        b"keysnap",
        b"mdelete k1 k2 k3",
        b"keysnap",
    )
    text = run(payload)
    first = text.find(b"KEY k1" + CRLF + b"KEY k2" + CRLF + b"END")
    assert first != -1, text
    assert b"KEY k1" + CRLF + b"KEY k2" + CRLF + b"KEY k3" + CRLF + b"END" \
        in text[first:]
    assert text.rstrip().endswith(b"END")  # final keysnap: empty store


class TestFaultHookParity:
    """A seeded FaultPlan fires the committed per-site activations."""

    PAYLOAD = lines(
        b"set k 0 0 5", b"hello",
        *([b"get k"] * 6
          + [b"delete k", b"get k", b"set k 0 0 2", b"vv"]
          + [b"get k"] * 4
          + [b"version"])
    )

    #: Per-site activations as (site, action, label, command).  The
    #: global sequence number is dropped: ``net.recv`` fires per chunk,
    #: and chunk boundaries shift the numbering without changing the
    #: per-command history.
    ACTIVATIONS = {
        "server.request": (
            [("server.request", "delay", "req-delay", "get")] * 4
            + [("server.request", "delay", "req-delay", "version")]
        ),
        "server.reply": (
            [("server.reply", "corrupt", "reply-corrupt", "get")] * 2
        ),
    }

    def plan(self):
        from repro.faults import FaultPlan, FaultRule
        from repro.faults.injector import (
            FaultAction,
            SITE_NET_RECV,
            SITE_SERVER_REPLY,
            SITE_SERVER_REQUEST,
        )

        return FaultPlan([
            FaultRule(SITE_SERVER_REQUEST, FaultAction.DELAY,
                      every=3, count=None, delay=0.0, label="req-delay"),
            FaultRule(SITE_SERVER_REPLY, FaultAction.CORRUPT,
                      every=4, count=None, label="reply-corrupt",
                      match=lambda ctx: ctx.get("command") == "get"),
            FaultRule(SITE_NET_RECV, FaultAction.DELAY,
                      every=2, count=None, delay=0.0, label="recv-delay"),
        ])

    def test_same_request_and_reply_activations(self):
        from repro.faults import FaultInjector
        from repro.faults.injector import SITE_NET_RECV, SITE_SERVER_REQUEST

        injector = FaultInjector(self.plan(), seed=7)
        server = start(injector=injector)
        try:
            transcript(server.port, self.PAYLOAD)
        finally:
            server.shutdown()
            server.server_close()
        for site, expected in self.ACTIVATIONS.items():
            assert [sig[1:] for sig in injector.signatures()
                    if sig[1] == site] == expected, site
        assert injector.events_at(SITE_SERVER_REQUEST) == 15
        assert injector.fired(SITE_NET_RECV) >= 1


def test_drop_and_kill_faults():
    """DROP_CONNECTION severs one connection; KILL_SERVER the listener."""
    from repro.faults import FaultInjector, FaultPlan, FaultRule
    from repro.faults.injector import FaultAction, SITE_SERVER_REQUEST

    # First connection: the 3rd command's request hook drops the
    # connection.  The dropped command and everything pipelined behind
    # it never get replies (whether replies 1-2 were already flushed
    # depends only on TCP arrival timing).
    injector = FaultInjector(FaultPlan([
        FaultRule(SITE_SERVER_REQUEST, FaultAction.DROP_CONNECTION, nth=3),
    ]))
    server = start(injector=injector)
    try:
        reply = transcript(server.port, lines(*[b"version"] * 5))
        assert reply.count(b"VERSION") <= 2, reply
        assert transcript(server.port, lines(b"version")).startswith(
            b"VERSION"
        )
    finally:
        server.shutdown()
        server.server_close()

    # KILL_SERVER takes the whole listener down.
    injector = FaultInjector(FaultPlan([
        FaultRule(SITE_SERVER_REQUEST, FaultAction.KILL_SERVER, nth=2),
    ]))
    server = start(injector=injector)
    try:
        transcript(server.port, lines(b"version", b"version"))
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                socket.create_connection(
                    ("127.0.0.1", server.port), timeout=0.2
                ).close()
            except OSError:
                break
            time.sleep(0.02)
        else:
            pytest.fail("listener still accepting after KILL_SERVER")
    finally:
        server.shutdown()
        server.server_close()


# -- lifecycle: multiplexing, drain, kill, restart ---------------------------

@pytest.fixture
def served():
    iq = IQServer()
    server, thread = serve_background(iq_server=iq)
    yield server, iq
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


class TestMultiplexing:
    def test_many_interleaved_connections_one_thread(self, served):
        server, iq = served
        sockets = [
            socket.create_connection(("127.0.0.1", server.port), timeout=5)
            for _ in range(64)
        ]
        try:
            # Interleave: every connection writes its own key, then every
            # connection reads every other's -- all multiplexed on the
            # single event-loop thread.
            for i, sock in enumerate(sockets):
                sock.sendall(
                    "set conn{} 0 0 2".format(i).encode() + CRLF
                    + "{:02d}".format(i).encode() + CRLF
                )
            for sock in sockets:
                assert sock.recv(4096) == b"STORED" + CRLF
            for i, sock in enumerate(sockets):
                peer = (i + 1) % len(sockets)
                sock.sendall("get conn{}".format(peer).encode() + CRLF)
            for i, sock in enumerate(sockets):
                peer = (i + 1) % len(sockets)
                reply = sock.recv(4096)
                assert reply.startswith(
                    "VALUE conn{} 0 2".format(peer).encode()
                )
        finally:
            for sock in sockets:
                sock.close()
        assert iq.stats.get("evloop_connections") >= 64

    def test_pipelined_batch_counted_and_flushed_together(self, served):
        server, iq = served
        with RemoteIQServer(port=server.port) as remote:
            remote.set("k", b"v")
            pipe = remote.pipeline()
            for _ in range(30):
                pipe.get("k")
            values = pipe.execute()
        assert len(values) == 30
        assert iq.stats.get("pipelined_commands") >= 30

    def test_lease_protocol_over_event_loop(self, served):
        server, _iq = served
        with RemoteIQServer(port=server.port) as remote:
            result = remote.iq_get("user:1")
            assert result.has_lease
            assert remote.iq_get("user:1").backoff
            assert remote.iq_set("user:1", b"alice", result.token)
            assert remote.iq_get("user:1").value == b"alice"
            tid = remote.gen_id()
            remote.qar(tid, "user:1")
            remote.sar("user:1", b"bob", tid)
            remote.commit(tid)
            assert remote.iq_get("user:1").value == b"bob"


class TestLifecycle:
    def test_shutdown_unblocks_and_joins(self):
        server, thread = serve_background()
        server.shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()  # idempotent
        server.server_close()

    def test_shutdown_drains_buffered_replies(self, served):
        server, iq = served
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            batch = b"".join(
                b"set k 0 0 1" + CRLF + b"x" + CRLF for _ in range(20)
            )
            sock.sendall(batch)
            # Shut down while replies may still be queued: every command
            # the server *executed* must still get its reply out before
            # the close (the graceful-drain guarantee).
            threading.Thread(target=server.shutdown).start()
            received = b""
            sock.settimeout(5)
            while True:
                try:
                    data = sock.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                received += data
            executed = iq.stats.get("cmd_set")
            assert received.count(b"STORED") == executed

    def test_close_all_connections_severs_clients(self, served):
        server, _iq = served
        sock = socket.create_connection(("127.0.0.1", server.port))
        sock.sendall(b"version" + CRLF)
        assert sock.recv(4096).startswith(b"VERSION")
        server.close_all_connections()
        sock.settimeout(2)
        try:
            assert sock.recv(4096) == b""
        except OSError:
            pass  # reset is also an acceptable severing
        finally:
            sock.close()

    def test_initiate_kill_notifies_on_kill(self):
        server, thread = serve_background()
        killed = threading.Event()
        server.on_kill = killed.set
        server.initiate_kill()
        assert killed.wait(timeout=5)
        thread.join(timeout=5)
        assert not thread.is_alive()
        server.server_close()

    def test_restartable_server_restarts_cold(self):
        from repro.errors import CacheUnavailableError
        from repro.faults.chaos import RestartableServer

        from repro.net.resilient import ResilientIQServer

        restartable = RestartableServer(
            lambda tid_start=1: IQServer(tid_start=tid_start),
        )
        restartable.start()
        client = ResilientIQServer(port=restartable.port)
        try:
            client.set("k", b"v")
            assert client.get("k")[0] == b"v"
            restartable.kill()
            with pytest.raises(CacheUnavailableError):
                client.get("k")
            restartable.start()
            deadline = time.time() + 5
            while time.time() < deadline:
                try:
                    assert client.get("k") is None  # cold restart: empty
                    break
                except CacheUnavailableError:
                    time.sleep(0.05)
            else:
                pytest.fail("client never reconnected after restart")
            assert restartable.kills == 1
        finally:
            client.close()
            restartable.kill()
