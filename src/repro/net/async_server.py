"""The wire server: one event-loop thread multiplexing every connection.

:class:`AsyncIQServer` exposes an :class:`IQServer` over the memcached
text protocol from a single thread, non-blocking sockets and a
``selectors`` readiness loop, so one shard process serves thousands of
connections and the process-per-shard launcher
(:mod:`repro.net.cluster`) can put one such loop on every core -- the
shape of the paper's event-driven IQ-Twemcached.

What the server promises, byte for byte (the golden transcripts in
``tests/net/test_transport_parity.py`` pin it):

* framing -- a command line's announced data block is consumed before
  the command is validated (PR 1 discipline), an unknowable size or a
  broken terminator draws one error reply and a close;
* pipelining -- replies are buffered while complete frames remain
  buffered and flushed in one write when the connection would otherwise
  go idle, in request order (PR 5 semantics);
* fault sites -- ``net.recv`` fires before every ``recv``,
  ``server.request`` after a command is framed, ``server.reply`` before
  its reply is buffered;
* tracing -- a trailing ``@t<id>`` token joins the handler to the
  caller's trace.

Each framed command is one probe of :data:`repro.net.commands.HANDLERS`;
:func:`exception_reply` maps what a handler raises to its error reply.

**Bounded buffering.**  ``NetConfig.max_pipeline_buffer`` caps both
directions per connection.  A frame that never terminates (or announces
a data block beyond the cap) draws an error reply and a close; a peer
that pipelines requests but never reads its replies is disconnected once
the reply backlog passes the cap -- the loop has no thread to block for
backpressure, so the cap is what keeps one misbehaving client from
holding its memory hostage.

The loop exposes its health through the IQ server's stats registry
(``stats`` over the wire): ``evloop_connections`` accepted,
``evloop_flushes`` reply writes, ``evloop_overflow_closes`` cap
disconnects, and ``pipelined_commands`` answered in multi-reply writes.
"""

import selectors
import socket
import threading

from repro.core.iq_server import IQServer
from repro.errors import (
    BadValueError,
    KeyFormatError,
    ProtocolError,
    ReproError,
    ValueTooLargeError,
)
from repro.net.commands import HANDLERS
from repro.net.protocol import (
    CRLF,
    data_block_size,
    error_response,
    parse_command_line,
    split_trace_token,
)
from repro.obs.trace import trace_context

#: recv size per readiness event; large enough to drain a pipelined
#: burst in one syscall.
_RECV_CHUNK = 65536


def exception_reply(exc):
    """Map a handler's exception to its reply bytes, or re-raise.

    The classification mirrors memcached: protocol violations and
    malformed arguments keep the connection usable (any data block was
    consumed before the handler ran), server-side errors are reported as
    ``SERVER_ERROR``.  Exceptions outside the taxonomy propagate.
    """
    if isinstance(exc, ProtocolError):
        return error_response(str(exc))
    if isinstance(exc, (BadValueError, KeyFormatError, ValueTooLargeError)):
        return "CLIENT_ERROR {}".format(exc).encode()
    if isinstance(exc, ReproError):
        return error_response(str(exc))
    if isinstance(exc, (ValueError, IndexError)):
        # Malformed arguments (non-integer token/tid, missing fields).
        return "CLIENT_ERROR bad command arguments: {}".format(exc).encode()
    raise exc


class _Connection:
    """Per-connection state: read buffer, parse position, reply buffer."""

    __slots__ = (
        "sock", "inbuf", "pos", "out", "batch", "pending", "closing",
        "corrupt_armed", "registered_write", "handler",
    )

    def __init__(self, sock):
        self.sock = sock
        self.inbuf = bytearray()
        self.pos = 0
        self.out = bytearray()
        self.batch = 0
        #: a parsed command line waiting for its announced data block:
        #: (command, args, trace_id, size) -- framing state that survives
        #: a payload arriving one byte per segment.
        self.pending = None
        #: once set, the connection closes as soon as ``out`` drains.
        self.closing = False
        self.corrupt_armed = False
        self.registered_write = False
        #: the selector callback, built once at accept -- re-registering
        #: for writability reuses it instead of minting a new closure on
        #: every readiness toggle.
        self.handler = None

    def available(self):
        return len(self.inbuf) - self.pos


class AsyncIQServer:
    """Non-blocking event-loop front end for an :class:`IQServer`.

    ``fault_injector`` (a :class:`repro.faults.FaultInjector`) arms the
    ``net.recv``, ``server.request`` and ``server.reply`` sites on every
    connection; leave it ``None`` for the zero-overhead default.  A
    ``DELAY``/``FREEZE`` rule at those sites stalls the one loop thread,
    and with it every connection.  ``on_kill`` is called (on a
    background thread) after a KILL_SERVER fault has shut the listener
    down -- a chaos controller hooks this to schedule the restart.
    ``net_config`` supplies ``max_pipeline_buffer`` (``None`` uses the
    :class:`~repro.config.NetConfig` default).
    """

    def __init__(self, address=("127.0.0.1", 0), iq_server=None,
                 fault_injector=None, net_config=None):
        from repro.config import NetConfig

        self.iq_server = iq_server or IQServer()
        self.fault_injector = fault_injector
        self.max_pipeline_buffer = (
            net_config or NetConfig()
        ).max_pipeline_buffer
        self.on_kill = None

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(address)
        self._listener.listen(1024)
        self._listener.setblocking(False)
        self.server_address = self._listener.getsockname()

        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                self._on_accept)
        # Cross-thread wakeup: shutdown() writes one byte so a blocked
        # select() returns immediately.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                self._on_wakeup)

        # Counter handles resolved once: the per-flush and per-batch
        # bumps are on the loop's hottest path.
        counter = self.iq_server.stats.counter
        self._count_connection = counter("evloop_connections").inc
        self._count_flush = counter("evloop_flushes").inc
        self._count_overflow_close = counter("evloop_overflow_closes").inc
        self._count_pipelined = counter("pipelined_commands").inc

        self._conns = {}
        self._shutdown_requested = threading.Event()
        self._loop_done = threading.Event()
        self._loop_done.set()  # not running yet
        self._closed = False
        self._kill_started = False
        self._kill_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def port(self):
        return self.server_address[1]

    def serve_forever(self, poll_interval=0.5):
        """Run the event loop until :meth:`shutdown` (or a kill fault)."""
        self._loop_done.clear()
        try:
            while not self._shutdown_requested.is_set():
                events = self._selector.select(poll_interval)
                for key, mask in events:
                    key.data(key.fileobj, mask)
                    if self._shutdown_requested.is_set():
                        break
        finally:
            self._drain_and_close()
            self._loop_done.set()
            if self._kill_started and self.on_kill is not None:
                # Notify off the serving thread once teardown finished.
                threading.Thread(target=self.on_kill, daemon=True).start()

    def shutdown(self):
        """Stop ``serve_forever`` and wait for its graceful drain."""
        self._shutdown_requested.set()
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass
        self._loop_done.wait(timeout=10)

    def server_close(self):
        """Close the listener and every connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._selector.close()
        except (OSError, RuntimeError):
            pass
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass
        self.close_all_connections()

    def close_all_connections(self):
        """Sever every live client connection, as a process death would."""
        for conn in list(self._conns.values()):
            self._close_conn(conn, abrupt=True)

    def initiate_kill(self):
        """Shut the server down from inside the loop (KILL_SERVER fault)."""
        with self._kill_lock:
            if self._kill_started:
                return
            self._kill_started = True
        self._shutdown_requested.set()
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass

    def _drain_and_close(self):
        """Graceful drain: flush buffered replies, then close sockets.

        Buffered replies acknowledge commands the server already
        executed; losing them would turn an orderly SIGTERM into
        client-visible ambiguity.  Each connection gets one short
        blocking attempt to land its backlog before the socket closes.
        """
        for conn in list(self._conns.values()):
            if conn.out:
                try:
                    conn.sock.settimeout(0.5)
                    conn.sock.sendall(bytes(conn.out))
                except OSError:
                    pass
        self.server_close()

    # -- event handlers ------------------------------------------------------

    def _on_wakeup(self, sock, _mask):
        try:
            sock.recv(4096)
        except OSError:
            pass

    def _on_accept(self, listener, _mask):
        while True:
            try:
                sock, _addr = listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _Connection(sock)
            conn.handler = self._make_conn_handler(conn)
            self._conns[sock.fileno()] = conn
            self._selector.register(sock, selectors.EVENT_READ,
                                    conn.handler)
            self._count_connection()

    def _make_conn_handler(self, conn):
        def handle(_sock, mask):
            if mask & selectors.EVENT_WRITE:
                self._on_writable(conn)
            if mask & selectors.EVENT_READ and not conn.closing:
                self._on_readable(conn)
        return handle

    def _on_readable(self, conn):
        injector = self.fault_injector
        if injector is not None and not self._inject_recv(injector, conn):
            return
        try:
            chunk = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn, abrupt=True)
            return
        if not chunk:
            # Peer EOF mid-anything: close quietly.
            self._close_conn(conn, abrupt=True)
            return
        if conn.corrupt_armed:
            from repro.faults.injector import corrupt_bytes

            chunk = corrupt_bytes(chunk)
            conn.corrupt_armed = False
        conn.inbuf += chunk
        self._process(conn)

    def _inject_recv(self, injector, conn):
        """Fire ``net.recv`` before the read.  Returns False when the
        connection was dropped."""
        from repro.faults.injector import SITE_NET_RECV, FaultAction

        rule = injector.perform(SITE_NET_RECV)
        if rule is None:
            return True
        if rule.action is FaultAction.DROP_CONNECTION:
            self._close_conn(conn, abrupt=True)
            return False
        if rule.action is FaultAction.CORRUPT:
            conn.corrupt_armed = True
        return True

    # -- frame processing ----------------------------------------------------

    def _process(self, conn):
        """Drain every complete buffered frame, then flush in one write.

        This is the loop's hottest path, so buffer state lives in locals
        and the consumed prefix is compacted once per pass rather than
        per frame.
        """
        inbuf = conn.inbuf
        cap = self.max_pipeline_buffer
        while not conn.closing:
            if conn.pending is not None:
                if not self._continue_data_block(conn):
                    break
                continue
            pos = conn.pos
            end = inbuf.find(CRLF, pos)
            if end == -1:
                if len(inbuf) - pos > cap:
                    self._overflow_close(
                        conn,
                        "connection buffered {} bytes, limit {}".format(
                            len(inbuf) - pos, cap
                        ),
                    )
                break
            # memoryview slice: one copy into the line, not two (the
            # view is a same-expression temporary, released before the
            # compaction below mutates the buffer).
            line = bytes(memoryview(inbuf)[pos:end])
            conn.pos = end + len(CRLF)
            self._handle_line(conn, line)
        pos = conn.pos
        if pos:
            if pos == len(inbuf):
                del inbuf[:]
                conn.pos = 0
            elif pos >= 65536:
                del inbuf[:pos]
                conn.pos = 0
        self._flush(conn)

    def _handle_line(self, conn, line):
        try:
            command, args = parse_command_line(line)
        except ProtocolError as exc:
            self._append_reply(conn, error_response(str(exc)), command=None)
            return
        args, trace_id = split_trace_token(args)
        if command == "quit":
            conn.closing = True
            return
        try:
            size = data_block_size(command, args)
        except ProtocolError:
            # Unknowable byte count: the stream is beyond repair.
            conn.out += error_response("bad data block size") + CRLF
            conn.closing = True
            return
        if size is not None:
            if size + len(CRLF) > self.max_pipeline_buffer:
                # Refused up front, before any of the block is buffered.
                self._overflow_close(
                    conn,
                    "connection buffered {} bytes, limit {}".format(
                        size + len(CRLF), self.max_pipeline_buffer
                    ),
                )
                return
            conn.pending = (command, args, trace_id, size)
            return
        self._execute(conn, command, args, trace_id, None)

    def _continue_data_block(self, conn):
        """Try to complete the pending frame; False = need more bytes."""
        command, args, trace_id, size = conn.pending
        needed = size + len(CRLF)
        if conn.available() < needed:
            return False
        start = conn.pos
        data = bytes(memoryview(conn.inbuf)[start:start + size])
        # bytearray indexing yields ints: terminator check without a
        # slice allocation (CRLF is 0x0d 0x0a).
        broken = (conn.inbuf[start + size] != 0x0D
                  or conn.inbuf[start + size + 1] != 0x0A)
        conn.pos += needed
        conn.pending = None
        if broken:
            # Payload not CRLF-terminated: framing is broken (the block
            # was still consumed first, PR 1 discipline).
            conn.out += (
                error_response("data block not terminated by CRLF") + CRLF
            )
            conn.closing = True
            return False
        self._execute(conn, command, args, trace_id, data)
        return True

    def _execute(self, conn, command, args, trace_id, data):
        injector = self.fault_injector
        if injector is not None:
            if not self._inject_request(injector, conn, command):
                return
        handler = HANDLERS.get(command)
        if handler is None:
            reply = error_response("unknown command {!r}".format(command))
        else:
            try:
                if trace_id is not None:
                    with trace_context(trace_id):
                        reply = handler(self.iq_server, args, data)
                else:
                    reply = handler(self.iq_server, args, data)
            except Exception as exc:
                reply = exception_reply(exc)
        self._append_reply(conn, reply, command)

    def _append_reply(self, conn, reply, command):
        injector = self.fault_injector
        if injector is not None:
            reply = self._inject_reply(injector, conn, command, reply)
            if reply is None:
                return
        conn.out += reply + CRLF
        conn.batch += 1
        if len(conn.out) > self.max_pipeline_buffer:
            # The peer pipelines requests but never reads replies (a
            # half-open flooder).  There is no thread to block for
            # backpressure; cut the connection instead of buffering
            # replies without limit.
            self._close_conn(conn, abrupt=True)
            self._count_overflow_close()

    def _overflow_close(self, conn, message):
        conn.out += error_response(message) + CRLF
        conn.closing = True
        self._count_overflow_close()

    # -- fault hooks ---------------------------------------------------------

    def _inject_request(self, injector, conn, command):
        """Fire ``server.request``; False when the connection died."""
        from repro.faults.injector import SITE_SERVER_REQUEST, FaultAction

        rule = injector.perform(SITE_SERVER_REQUEST, command=command)
        if rule is None:
            return True
        if rule.action is FaultAction.DROP_CONNECTION:
            self._close_conn(conn, abrupt=True)
            return False
        if rule.action is FaultAction.KILL_SERVER:
            self.initiate_kill()
            self._close_conn(conn, abrupt=True)
            return False
        return True

    def _inject_reply(self, injector, conn, command, reply):
        """Fire ``server.reply``; returns the (doctored) reply or None.

        Buffered replies precede this one in ``conn.out``, so a truncated
        or dropped reply never takes an earlier one with it.
        """
        from repro.faults.injector import SITE_SERVER_REPLY, FaultAction
        from repro.faults.injector import corrupt_bytes

        rule = injector.perform(SITE_SERVER_REPLY, command=command)
        if rule is None:
            return reply
        if rule.action is FaultAction.DROP_CONNECTION:
            conn.closing = True
            return None
        if rule.action is FaultAction.TRUNCATE:
            conn.out += reply[: max(1, len(reply) // 2)]
            conn.closing = True
            return None
        if rule.action is FaultAction.CORRUPT:
            return corrupt_bytes(reply)
        return reply

    # -- reply flushing ------------------------------------------------------

    def _flush(self, conn):
        """One write attempt for the whole reply buffer (PR 5 one-write
        flush); the unsent remainder waits for writability."""
        if conn.sock.fileno() < 0:
            return
        if conn.out:
            if conn.batch > 1:
                self._count_pipelined(conn.batch)
            conn.batch = 0
            try:
                sent = conn.sock.send(conn.out)
            except (BlockingIOError, InterruptedError):
                sent = 0
            except OSError:
                self._close_conn(conn, abrupt=True)
                return
            del conn.out[:sent]
            self._count_flush()
        if conn.out:
            self._want_write(conn, True)
        else:
            self._want_write(conn, False)
            if conn.closing:
                self._close_conn(conn)

    def _on_writable(self, conn):
        self._flush(conn)

    def _want_write(self, conn, want):
        if want == conn.registered_write:
            return
        conn.registered_write = want
        events = selectors.EVENT_READ
        if want:
            events |= selectors.EVENT_WRITE
        try:
            self._selector.modify(conn.sock, events, conn.handler)
        except (KeyError, ValueError, OSError):
            pass

    def _close_conn(self, conn, abrupt=False):
        self._conns.pop(conn.sock.fileno(), None)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError, RuntimeError):
            pass
        if abrupt:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        try:
            conn.sock.close()
        except OSError:
            pass
        conn.out = bytearray()
        conn.closing = True


def serve_background(iq_server=None, address=("127.0.0.1", 0),
                     fault_injector=None, net_config=None):
    """Start an :class:`AsyncIQServer` on a daemon thread.

    Returns ``(server, thread)``; call ``server.shutdown()`` to stop.
    """
    server = AsyncIQServer(address, iq_server, fault_injector=fault_injector,
                           net_config=net_config)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
