"""RemoteIQServer: the IQ command surface over a TCP connection.

Implements the exact method surface of the in-process
:class:`~repro.core.iq_server.IQServer`, so application code --
:class:`~repro.core.iq_client.IQClient`, the consistency clients, the BG
actions -- runs unchanged against a networked cache.  One instance wraps
one socket; it is protected by a lock so several threads may share it
(each request/response exchange is atomic), though one connection per
thread performs better (see :class:`repro.net.resilient.ResilientIQServer`,
which pools connections).

No command is spelled out here: the public methods are generated from
the records of :mod:`repro.net.commands`.  A record *encodes* the
request line and optional data block and *parses* exactly one reply off
the stream.  The single-command path sends one frame and parses one
reply; :class:`Pipeline` queues many frames, sends them in one write,
then parses the replies in request order -- N commands for one round
trip.
"""

import socket
import threading

from repro.errors import (
    ConnectionLostError,
    KVSError,
    OperationTimeout,
    ProtocolError,
    QuarantinedError,
    ServerReplyError,
)
from repro.core.backend import LeaseBackend
from repro.net import commands
from repro.net.protocol import (
    CRLF,
    ERROR_PREFIXES,
    TRACE_TOKEN_PREFIX,
    LineReader,
    reply_error,
)
from repro.obs.trace import current_trace_id, get_tracer


#: Raised by a command whose reply was nevertheless read completely: the
#: stream is still in step, so a pipeline files them in the result slot.
REFUSALS = (QuarantinedError, KVSError, ServerReplyError)


class RemoteIQServer(commands.surface("_execute", skip_empty=True),
                     LeaseBackend):
    """Client-side stub for a networked IQ-Twemcached.

    A socket error or timeout mid-exchange leaves the framed stream
    desynchronized -- the bytes a later caller would read could belong to
    the interrupted reply.  The connection is therefore *poisoned* on the
    first such failure: the socket is closed, the typed error
    (:class:`~repro.errors.ConnectionLostError` /
    :class:`~repro.errors.OperationTimeout`) is raised, and every
    subsequent call fails immediately with :class:`ConnectionLostError`
    until the caller builds a fresh connection (see
    :class:`repro.net.resilient.ResilientIQServer`, which does exactly
    that automatically).  The same discipline covers pipelines: a failure
    anywhere in a pipelined exchange poisons the whole connection --
    later commands never resynchronize onto an earlier command's reply.
    """

    def __init__(self, host="127.0.0.1", port=11211, timeout=10.0,
                 injector=None):
        try:
            self._sock = socket.create_connection(
                (host, port), timeout=timeout
            )
        except socket.timeout as exc:
            raise OperationTimeout(
                "connect to {}:{} timed out".format(host, port)
            ) from exc
        except OSError as exc:
            raise ConnectionLostError(
                "cannot connect to {}:{}: {}".format(host, port, exc)
            ) from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = LineReader(self._sock, injector=injector)
        self._lock = threading.Lock()
        self._injector = injector
        #: True once the connection is poisoned and must be replaced (a
        #: plain attribute: the pool reads it on every check-out).
        self.broken = False
        self._tracer = get_tracer()

    def close(self):
        if not self.broken:
            try:
                self._sock.sendall(b"quit" + CRLF)
            except OSError:
                pass
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- plumbing ------------------------------------------------------------

    def _poison(self, exc, doing):
        """Mark the connection dead and raise the typed failure."""
        self.mark_broken()
        if self._tracer.active:
            self._tracer.emit("net.poison", command=doing,
                              error=type(exc).__name__)
        if isinstance(exc, socket.timeout):
            raise OperationTimeout(
                "timed out while {}".format(doing)
            ) from exc
        raise ConnectionLostError(
            "connection lost while {}: {}".format(doing, exc)
        ) from exc

    def mark_broken(self):
        """Poison without raising (the caller raises its own error)."""
        self.broken = True
        try:
            self._sock.close()
        except OSError:
            pass

    def _check_usable(self):
        if self.broken:
            raise ConnectionLostError(
                "connection is poisoned by an earlier failure; reconnect"
            )

    def _inject_send(self, doing):
        from repro.faults.injector import (
            SITE_CLIENT_SEND,
            FaultAction,
        )

        rule = self._injector.perform(SITE_CLIENT_SEND, command=doing)
        if rule is not None and rule.action is FaultAction.DROP_CONNECTION:
            self._poison(
                ConnectionResetError("injected drop before send"), "sending"
            )

    def _inject_after_send(self, doing):
        from repro.faults.injector import (
            SITE_CLIENT_AFTER_SEND,
            FaultAction,
        )

        rule = self._injector.perform(SITE_CLIENT_AFTER_SEND, command=doing)
        if rule is not None and rule.action is FaultAction.DROP_CONNECTION:
            self._poison(
                ConnectionResetError("injected drop after send"),
                "awaiting reply",
            )

    def _trace_suffix(self):
        """Trailing ``@t<id>`` token, or ``""`` outside any trace.

        Appended after every positional field so the server's data-block
        size indices (counted from the front) keep working untouched.
        """
        if not self._tracer.active:
            return ""
        trace_id = current_trace_id()
        if trace_id is None:
            return ""
        return " {}{}".format(TRACE_TOKEN_PREFIX, trace_id)

    def _frame(self, line, data):
        """Encode one request frame (command line + optional data block)."""
        if self._tracer.active:
            line += self._trace_suffix()
        if data is None:
            return line.encode() + CRLF
        return b"".join((line.encode(), CRLF, data, CRLF))

    def _execute(self, cmd, args):
        """Send one command frame and parse its one reply.

        Every single command takes this path, so it is written out in
        one frame: it encodes the request as :meth:`_frame` does, fires
        the fault sites around the write, and reads the reply through
        :meth:`_receive`'s steps -- the same as :meth:`_execute_pipeline`
        for one frame.
        """
        line, data = cmd.encode(*args)
        if self._tracer.active:
            line += self._trace_suffix()
        if data is None:
            payload = line.encode() + CRLF
        else:
            payload = b"".join((line.encode(), CRLF, data, CRLF))
        verb = cmd.verb
        with self._lock:
            if self.broken:
                self._check_usable()
            injector = self._injector
            if injector is not None:
                self._inject_send(verb)
            try:
                self._sock.sendall(payload)
            except OSError as exc:
                self._poison(exc, verb)
            if injector is not None:
                self._inject_after_send(verb)
            reader = self._reader
            try:
                first = reader.read_line()
                if first.startswith(ERROR_PREFIXES):
                    raise reply_error(first)
                return cmd.parse(reader, first, args)
            except (OSError, ConnectionError) as exc:
                self._poison(exc, verb)
            except ProtocolError:
                # The stream is desynchronized; nobody may read it again.
                self.mark_broken()
                raise

    def _receive(self, cmd, args):
        """Read one pipelined command's reply (:meth:`_execute` does the
        same for a single command).

        An error reply is one complete line, so raising its typed error
        leaves the stream in step; ``cmd.parse`` only ever sees the
        command's own reply forms.
        """
        reader = self._reader
        first = reader.read_line()
        if first.startswith(ERROR_PREFIXES):
            raise reply_error(first)
        return cmd.parse(reader, first, args)

    def _execute_pipeline(self, ops):
        """Send every queued frame in one write, then parse the replies.

        ``ops`` is a list of ``(payload, cmd, args)``.  Replies come
        back in request order (the server guarantees per-connection
        ordering).  A refusal (:data:`REFUSALS`) consumes its reply
        completely, so it is stored in the result slot and reading
        continues; any transport or framing failure poisons the whole
        connection and propagates -- the remaining replies are
        unrecoverable by construction, never resynchronized onto.
        """
        with self._lock:
            self._check_usable()
            if self._injector is not None:
                for _payload, cmd, _args in ops:
                    self._inject_send(cmd.verb)
            try:
                self._sock.sendall(b"".join(op[0] for op in ops))
            except OSError as exc:
                self._poison(exc, "pipeline")
            if self._injector is not None:
                self._inject_after_send("pipeline")
            results = []
            for _payload, cmd, args in ops:
                try:
                    results.append(self._receive(cmd, args))
                except REFUSALS as exc:
                    results.append(exc)
                except (OSError, ConnectionError) as exc:
                    self._poison(exc, cmd.verb)
                except ProtocolError:
                    self.mark_broken()
                    raise
            return results

    def pipeline(self):
        """Return a :class:`Pipeline` batch context over this connection."""
        return Pipeline(self)

    def propose_refresh(self, key, value, tid):
        raise NotImplementedError(
            "propose_refresh is an in-process optimization hook; the wire "
            "protocol uses qaread/sar"
        )


class Pipeline(commands.surface("_queue")):
    """Batch context: queue commands, send them as one write, read all
    replies in order.

    ::

        with server.pipeline() as pipe:
            pipe.qar(tid, "k1").qar(tid, "k2").commit(tid)
        granted_k1, granted_k2, committed = pipe.results

    Queue methods mirror the single-command surface (they are generated
    from the same records) and return ``self`` for chaining.
    ``execute()`` (called automatically on clean ``with`` exit) returns
    the per-command results in request order.  A command rejected with
    :class:`~repro.errors.QuarantinedError`, or refused with an error
    reply, places the *exception instance* in its result slot (its reply
    was fully consumed, so later replies still parse); a transport or
    framing failure raises and poisons the whole connection -- partial
    results are never returned and the stream is never resynchronized.

    The trace token for each command is captured when it is queued, so a
    pipeline built inside a traced session tags every frame.
    """

    def __init__(self, conn):
        self._conn = conn
        self._ops = []
        self._executed = False
        #: per-command results after :meth:`execute`, in request order
        self.results = None

    def __len__(self):
        return len(self._ops)

    def _queue(self, cmd, args):
        if self._executed:
            raise RuntimeError("pipeline already executed")
        payload = self._conn._frame(*cmd.encode(*args))
        self._ops.append((payload, cmd, args))
        return self

    def execute(self):
        """Send all queued frames, return all results in request order."""
        if self._executed:
            raise RuntimeError("pipeline already executed")
        self._executed = True
        if not self._ops:
            self.results = []
            return self.results
        self.results = self._conn._execute_pipeline(self._ops)
        return self.results

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None and not self._executed:
            self.execute()
        return False
