"""Framing helpers for the memcached text protocol and IQ extensions.

Requests and responses are CRLF-delimited command lines, optionally
followed by a data block of a byte length announced on the command line
(exactly as in the memcached ASCII protocol).  Every IQ extension follows
the same discipline so a protocol trace reads like a Twemcache trace.

The commands themselves -- request grammar, data-block rule, reply
parser, server handler, retry class -- are the records of
:mod:`repro.net.commands`; ``docs/PROTOCOL.md`` is the prose home of
the grammar and the reply forms.  This module knows only the framing
they share.

Any request line may carry a trailing ``@t<trace-id>`` token
(``qar 7 user:1 @t42``).  It propagates the caller's trace id so
server-side events join the client's trace; servers strip it before
dispatch and ignore unparseable tokens.  ``iqmget`` similarly carries
its optional session TID as a trailing ``@s<tid>`` token (keys would be
ambiguous with a positional TID).  Tokens ride at the *end* of the
line, after every positional field, so the ``<nbytes>`` indices in
:data:`DATA_COMMANDS` (counted from the front) are unaffected.  Keys
never start with ``@`` in this codebase, so the tokens are unambiguous.

**Pipelining.**  Commands may be pipelined: a client may write N
request frames back-to-back and then read the N replies, which the
server produces in request order on each connection.  Framing is
unchanged -- each request is a complete line (plus announced data
block), each reply is a complete line or ``END``-terminated block -- so
a pipelined stream is byte-identical to the same commands issued one at
a time.
"""

from repro.errors import (
    BadValueError,
    KeyFormatError,
    PipelineOverflowError,
    ProtocolError,
    ServerReplyError,
    ValueTooLargeError,
)

CRLF = b"\r\n"

#: Commands whose request carries a data block; value is the index of the
#: <nbytes> field on the command line (0 = command name itself).  A view
#: over the command table: :func:`repro.net.commands.register` fills it
#: from each record's ``size_index``.
DATA_COMMANDS = {}


class LineReader:
    """Incremental reader over a socket-like object with ``recv``.

    Bytes are received in large chunks into one growing buffer and
    consumed by advancing a read offset, so draining a pipelined burst
    of N frames costs one ``recv`` plus N slice-outs -- the historical
    implementation re-copied the unconsumed remainder on every line,
    which is quadratic exactly when pipelining makes the buffer deep.
    The consumed prefix is compacted away only once it is large and
    dominates the buffer.

    ``injector`` is an optional :class:`repro.faults.FaultInjector`; when
    installed, every refill fires the ``net.recv`` site, which can drop
    the connection, delay, or corrupt the incoming chunk.  The default
    path carries only a ``None`` check.

    ``max_buffer`` bounds the *unconsumed* bytes the reader will hold
    (``NetConfig.max_pipeline_buffer`` on the servers; ``None`` = no
    limit, the client default).  A line that never terminates, or a data
    block whose announced size exceeds the bound, raises
    :class:`~repro.errors.PipelineOverflowError` before the flooding
    bytes are buffered -- the server replies with an error and closes
    instead of growing without limit.
    """

    #: Compact the buffer once this many consumed bytes accumulate.
    _COMPACT_THRESHOLD = 65536

    def __init__(self, sock, chunk_size=65536, injector=None,
                 max_buffer=None):
        self._sock = sock
        self._buffer = bytearray()
        self._pos = 0
        self._chunk_size = chunk_size
        self._injector = injector
        self._max_buffer = max_buffer

    def _fill(self):
        if self._injector is not None:
            self._inject_recv()
        chunk = self._sock.recv(self._chunk_size)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        if self._injector is not None and self._corrupt_armed:
            from repro.faults.injector import corrupt_bytes

            chunk = corrupt_bytes(chunk)
            self._corrupt_armed = False
        if self._pos and self._pos == len(self._buffer):
            # Everything was consumed: restart the buffer for free.
            del self._buffer[:]
            self._pos = 0
        self._buffer += chunk

    _corrupt_armed = False

    def _inject_recv(self):
        from repro.faults.injector import SITE_NET_RECV, FaultAction

        rule = self._injector.perform(SITE_NET_RECV)
        if rule is None:
            return
        if rule.action is FaultAction.DROP_CONNECTION:
            try:
                self._sock.close()
            except OSError:
                pass
            raise ConnectionError("injected connection drop (net.recv)")
        if rule.action is FaultAction.CORRUPT:
            self._corrupt_armed = True

    def _compact(self):
        if (self._pos >= self._COMPACT_THRESHOLD
                and self._pos * 2 >= len(self._buffer)):
            del self._buffer[:self._pos]
            self._pos = 0

    def pending(self):
        """True when a complete line is already buffered (no blocking).

        The server's dispatch loop uses this to keep draining pipelined
        commands before flushing its replies.
        """
        return self._buffer.find(CRLF, self._pos) != -1

    def _check_limit(self, pending):
        if self._max_buffer is not None and pending > self._max_buffer:
            raise PipelineOverflowError(
                "connection buffered {} bytes, limit {}".format(
                    pending, self._max_buffer
                )
            )

    def read_line(self):
        """Read one CRLF-terminated line (returned without the CRLF)."""
        while True:
            end = self._buffer.find(CRLF, self._pos)
            if end != -1:
                break
            self._check_limit(len(self._buffer) - self._pos)
            self._fill()
        # Slice out through a memoryview: one copy into the result,
        # where a bytearray slice would copy twice (slice, then bytes).
        # The view is a same-expression temporary, released before any
        # buffer mutation (an exported view pins a bytearray's size).
        line = bytes(memoryview(self._buffer)[self._pos:end])
        self._pos = end + len(CRLF)
        self._compact()
        return line

    def read_bytes(self, count):
        """Read exactly ``count`` bytes plus the trailing CRLF."""
        self._check_limit(count + len(CRLF))
        # Compare *available* bytes, not absolute buffer length: _fill()
        # may compact the consumed prefix away (resetting _pos), so any
        # absolute index computed before the loop would go stale.
        while len(self._buffer) - self._pos < count + len(CRLF):
            self._fill()
        start = self._pos
        data = bytes(memoryview(self._buffer)[start:start + count])
        # Indexing a bytearray yields ints -- the terminator check costs
        # no allocation at all (CRLF is 0x0d 0x0a).
        if (self._buffer[start + count] != 0x0D
                or self._buffer[start + count + 1] != 0x0A):
            raise ProtocolError("data block not terminated by CRLF")
        self._pos = start + count + len(CRLF)
        self._compact()
        return data


#: Prefix of the optional trailing trace token on a request line.
TRACE_TOKEN_PREFIX = "@t"

#: Prefix of the optional trailing session-TID token (``iqmget`` only).
SESSION_TOKEN_PREFIX = "@s"


def split_session_token(args):
    """Pop a trailing ``@s<tid>`` session token from parsed ``args``.

    Returns ``(args, tid)`` where ``tid`` is ``None`` when no well-formed
    token is present.  Mirrors :func:`split_trace_token`; when both tokens
    ride one line the trace token comes last, so strip it first.
    """
    if args and args[-1].startswith(SESSION_TOKEN_PREFIX):
        try:
            tid = int(args[-1][len(SESSION_TOKEN_PREFIX):])
        except ValueError:
            return args, None
        return args[:-1], tid
    return args, None


def split_trace_token(args):
    """Pop a trailing ``@t<id>`` trace token from parsed ``args``.

    Returns ``(args, trace_id)`` where ``trace_id`` is ``None`` when no
    (well-formed) token is present.  A malformed token is left in place
    for the dispatcher to reject as a bad argument.
    """
    if args and args[-1].startswith(TRACE_TOKEN_PREFIX):
        try:
            trace_id = int(args[-1][len(TRACE_TOKEN_PREFIX):])
        except ValueError:
            return args, None
        return args[:-1], trace_id
    return args, None


def parse_command_line(line):
    """Split a request line into (command, args).  Command is lowercased."""
    if not line:
        raise ProtocolError("empty command line")
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError:
        raise ProtocolError("command line is not valid UTF-8")
    parts = text.split()
    if not parts:
        raise ProtocolError("blank command line")
    return parts[0].lower(), parts[1:]


def data_block_size(command, args):
    """Return the announced data-block size for ``command`` or ``None``.

    A negative announced size means "no data block follows" (the ``sar``
    null-value form).
    """
    index = DATA_COMMANDS.get(command)
    if index is None:
        return None
    if len(args) < index:
        raise ProtocolError(
            "command {!r} is missing its size field".format(command)
        )
    try:
        size = int(args[index - 1])
    except ValueError:
        raise ProtocolError("bad data size {!r}".format(args[index - 1]))
    if size < 0:
        return None
    return size


def value_block(key, value, flags=0, cas_id=None):
    """A ``VALUE``...``END`` retrieval block *without* the trailing CRLF.

    One %-formatted buffer (PEP 461) instead of a format/encode/concat
    chain; the dispatcher appends the per-reply CRLF itself, so this is
    the shape its handlers want.
    """
    if cas_id is None:
        return b"VALUE %s %d %d\r\n%s\r\nEND" % (
            key.encode(), flags, len(value), value)
    return b"VALUE %s %d %d %d\r\n%s\r\nEND" % (
        key.encode(), flags, len(value), cas_id, value)


def value_response(key, value, flags=0, cas_id=None):
    """Build a ``VALUE``...``END`` retrieval response."""
    return value_block(key, value, flags=flags, cas_id=cas_id) + CRLF


def simple_response(word):
    return word.encode() if isinstance(word, str) else word


def error_response(message):
    return "SERVER_ERROR {}".format(message).encode()


#: First words of the two error replies (see ``dispatch.exception_reply``).
ERROR_PREFIXES = (b"SERVER_ERROR ", b"CLIENT_ERROR ")


def reply_error(line):
    """The exception an error reply stands for (client side).

    The inverse of :func:`repro.net.dispatch.exception_reply`, as far as
    the text allows: the server sends ``CLIENT_ERROR <message>`` for the
    three KVS input errors, whose messages tell them apart, and for
    malformed arguments; everything else is a ``SERVER_ERROR``.
    """
    text = line.decode("utf-8", "replace")
    kind, _, message = text.partition(" ")
    if kind == "CLIENT_ERROR" and not message.startswith("bad command"):
        if message.startswith("key "):
            return KeyFormatError(message)
        if "exceed" in message or "cannot fit" in message:
            return ValueTooLargeError(message)
        return BadValueError(message)
    return ServerReplyError(text)
