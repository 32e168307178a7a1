"""Transport-independent command dispatch for the wire servers.

Both wire transports -- the thread-per-connection
:class:`~repro.net.server.IQTCPServer` and the event-loop
:class:`~repro.net.async_server.AsyncIQServer` -- serve the same
protocol against the same :class:`~repro.core.iq_server.IQServer`.  The
*transport parity contract* (docs/ARCHITECTURE.md §12) demands that the
two produce byte-identical replies for any request stream; the only way
to keep that true as commands are added is for exactly one dispatcher
to exist.  This module is that dispatcher: a pure function from
``(iq, command, args, data)`` to reply bytes, plus the error-to-reply
mapping both transports share.

Dispatch is one probe of :data:`repro.net.commands.HANDLERS`, the
verb -> handler view of the command table, rather than an if-chain; each
handler (defined beside its record) assembles its reply with ``bytes``
%-formatting (PEP 461) in a single buffer instead of
``str.format().encode()`` -- same bytes on the wire (the parity corpus
pins this), fewer intermediate objects per request.

Nothing here touches a socket; framing (reading the command line,
consuming the announced data block) stays in each transport, because
that is where the transports legitimately differ.
"""

from repro.errors import (
    BadValueError,
    KeyFormatError,
    ProtocolError,
    ReproError,
    ValueTooLargeError,
)
from repro.net.commands import HANDLERS
from repro.net.protocol import error_response


def exception_reply(exc):
    """Map a dispatch-time exception to its reply bytes, or re-raise.

    The classification mirrors memcached: protocol violations and
    malformed arguments keep the connection usable (any data block was
    consumed before dispatch), server-side errors are reported as
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


def dispatch(iq, command, args, data):
    """Execute one parsed command against ``iq``; return the reply bytes.

    ``args`` must already have its trailing ``@t``/``@s`` tokens intact
    except the trace token (stripped by the caller, which owns the trace
    context).  Raises the dispatch-time exceptions listed in
    :func:`exception_reply`; the transports funnel them through it so
    both reply identically.
    """
    handler = HANDLERS.get(command)
    if handler is None:
        raise ProtocolError("unknown command {!r}".format(command))
    return handler(iq, args, data)


def bump_stat(iq, name, amount=1):
    """Increment a server-side counter if the stats object supports it.

    Both transports report serving-layer counters (``pipelined_commands``,
    the event loop's per-loop metrics) through the IQ server's stats
    registry so ``stats`` exposes them over the wire; shards wrapping a
    stats-less backend simply skip the count.

    This does a ``getattr`` probe per call; hot loops should resolve a
    counter handle once via :func:`stat_handle` instead.
    """
    stats = getattr(iq, "stats", None)
    if stats is not None and callable(getattr(stats, "incr", None)):
        stats.incr(name, amount)


def stat_handle(iq, name):
    """Resolve ``name`` to a bound ``inc(amount=1)`` callable, or ``None``.

    The returned handle skips the per-call reflection *and* the stats
    view's per-call dict lookup -- it is the underlying registry
    counter's ``inc`` method, safe to call from any thread.  ``None``
    means the backend has no such counter (same condition under which
    :func:`bump_stat` silently skips).
    """
    stats = getattr(iq, "stats", None)
    if stats is None:
        return None
    counter = getattr(stats, "counter", None)
    if callable(counter):
        try:
            return counter(name).inc
        except KeyError:
            return None
    if callable(getattr(stats, "incr", None)):
        def inc(amount=1, _incr=stats.incr, _name=name):
            _incr(_name, amount)
        return inc
    return None
