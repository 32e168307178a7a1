"""The wire server: one event-loop thread multiplexing every connection.

:class:`AsyncIQServer` exposes an :class:`IQServer` over the memcached
text protocol from a single thread, non-blocking sockets and a
readiness loop that drives the kernel poller itself (``select.epoll``,
or ``select.poll`` where epoll does not exist), so one shard process
serves thousands of connections and the process-per-shard launcher
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
holding its memory hostage.  A connection that is closing (``quit``, a
broken frame, an overflow) only waits to flush what it owes: its poller
interest is write-only, so a peer that keeps sending without reading
cannot wake the loop, and the socket closes once the backlog drains.

The loop exposes its health through the IQ server's stats registry
(``stats`` over the wire): ``evloop_connections`` accepted,
``evloop_flushes`` reply writes, ``evloop_overflow_closes`` cap
disconnects, and ``pipelined_commands`` answered in multi-reply writes.
"""

import select
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

#: most recv calls a graceful close spends discarding unread input
_CLOSE_DRAIN_CHUNKS = 16

# The poller, chosen from the platform: ``select.poll`` has epoll's
# calls and masks, but takes its timeout in milliseconds and has no
# ``close``.  Hang-up and error count as both readable and writable:
# the next recv or send meets the failure and closes the connection.
if hasattr(select, "epoll"):
    _new_poller = select.epoll
    _IN, _OUT = select.EPOLLIN, select.EPOLLOUT
    _FAIL = select.EPOLLHUP | select.EPOLLERR
    _TIMEOUT_SCALE = 1
else:  # pragma: no cover - platforms without epoll
    _new_poller = select.poll
    _IN, _OUT = select.POLLIN, select.POLLOUT
    _FAIL = select.POLLHUP | select.POLLERR | select.POLLNVAL
    _TIMEOUT_SCALE = 1000
_READABLE = _IN | _FAIL
_WRITABLE = _OUT | _FAIL


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
        "sock", "fd", "inbuf", "pos", "out", "batch", "pending", "closing",
        "corrupt_armed", "interest",
    )

    def __init__(self, sock):
        self.sock = sock
        #: the poller key; kept because a closed socket's fileno() is -1
        self.fd = sock.fileno()
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
        #: the poller mask this connection is registered with
        self.interest = _IN

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

        self._poller = _new_poller()
        #: fd -> (connection or socket, handler): the one table the loop
        #: dispatches readiness through.
        self._fds = {}
        self._register(self._listener.fileno(), self._listener,
                       self._on_accept)
        # Cross-thread wakeup: shutdown() writes one byte so a blocked
        # poll() returns immediately.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._register(self._wake_recv.fileno(), self._wake_recv,
                       self._on_wakeup)

        # Counter handles resolved once: the per-flush and per-batch
        # bumps are on the loop's hottest path.
        counter = self.iq_server.stats.counter
        self._count_connection = counter("evloop_connections").inc
        self._count_flush = counter("evloop_flushes").inc
        self._count_overflow_close = counter("evloop_overflow_closes").inc
        self._count_pipelined = counter("pipelined_commands").inc

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
        poll = self._poller.poll
        timeout = poll_interval * _TIMEOUT_SCALE
        fds = self._fds
        stopping = self._shutdown_requested.is_set
        try:
            while not stopping():
                for fd, mask in poll(timeout):
                    # An earlier event of this batch may have closed it.
                    entry = fds.get(fd)
                    if entry is not None:
                        entry[1](entry[0], mask)
                    if stopping():
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
        close_poller = getattr(self._poller, "close", None)
        if close_poller is not None:
            close_poller()
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:
                pass
        self.close_all_connections()

    def _connections(self):
        return [target for target, _handler in self._fds.values()
                if isinstance(target, _Connection)]

    def close_all_connections(self):
        """Sever every live client connection, as a process death would."""
        for conn in self._connections():
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
        for conn in self._connections():
            if conn.out:
                try:
                    conn.sock.settimeout(0.5)
                    conn.sock.sendall(bytes(conn.out))
                except OSError:
                    pass
        self.server_close()

    # -- event handlers ------------------------------------------------------

    def _register(self, fd, target, handler):
        """Watch ``fd`` for reads; readiness calls ``handler(target, mask)``."""
        self._fds[fd] = (target, handler)
        self._poller.register(fd, _IN)

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
            self._register(conn.fd, conn, self._on_conn_event)
            self._count_connection()

    def _on_conn_event(self, conn, mask):
        if mask & _WRITABLE:
            self._flush(conn)
        if mask & _READABLE and not conn.closing:
            self._on_readable(conn)

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
        flush); the unsent remainder waits for writability.

        Then the poller interest follows the state: read, plus write
        while a backlog waits; a closing connection closes once drained
        and until then waits for writability *only* -- were it still
        registered for reads, every byte its peer sends would wake the
        level-triggered loop again, forever, for a handler that ignores
        input once ``closing`` is set.
        """
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
        if conn.closing:
            if not conn.out:
                self._close_conn(conn)
                return
            interest = _OUT
        elif conn.out:
            interest = _IN | _OUT
        else:
            interest = _IN
        if interest != conn.interest:
            conn.interest = interest
            try:
                self._poller.modify(conn.fd, interest)
            except (KeyError, ValueError, OSError):
                pass

    def _close_conn(self, conn, abrupt=False):
        entry = self._fds.get(conn.fd)
        if entry is not None and entry[0] is conn:
            # (a closed connection's fd may already belong to a new one)
            del self._fds[conn.fd]
            try:
                self._poller.unregister(conn.fd)
            except (KeyError, ValueError, OSError):
                pass
        if abrupt:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        else:
            # Unread input makes close() send a reset, and a reset
            # discards the replies the kernel has not transmitted yet:
            # drop what the peer sent past its last command first.
            try:
                for _ in range(_CLOSE_DRAIN_CHUNKS):
                    if not conn.sock.recv(_RECV_CHUNK):
                        break
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
