"""The wire-command table: every command is defined once, here.

One immutable :class:`Command` record per wire command carries
everything the rest of :mod:`repro.net` needs to know about it: the
client encodes a request with ``encode``, the server sizes its data
block with ``size_index`` and answers it with ``handle``, the
client reads the answer back with ``parse``, and
:class:`~repro.net.resilient.ResilientIQServer` takes its retry class
from ``idempotent``/``best_effort``.  Nothing else spells a command out:
the public methods of :class:`~repro.net.client.RemoteIQServer`,
:class:`~repro.net.client.Pipeline` and ``ResilientIQServer`` are
generated from the records (:func:`surface`), and the server's
handler table and :data:`repro.net.protocol.DATA_COMMANDS` are views
that :func:`register` keeps.

Adding a command is one :func:`register` call next to its three
functions in this module, plus its row in ``docs/PROTOCOL.md`` (the
prose home of the grammar and the reply forms; a test pins every
record's ``grammar`` to it).
"""

import inspect
from typing import Callable, NamedTuple, Optional

from repro.errors import ProtocolError, QuarantinedError
from repro.core.iq_server import IQGetResult, QaReadResult
from repro.kvs.store import ClockGetResult, StoreResult
from repro.net import protocol
from repro.net.protocol import (
    CRLF,
    SESSION_TOKEN_PREFIX,
    split_session_token,
    value_block,
)


class Command(NamedTuple):
    """Everything the wire layers know about one command."""

    #: Python method name on every backend surface (``iq_get``).
    name: str
    #: First word of the request line (``iqget``).
    verb: str
    #: ``(*method args) -> (line, data)``.  Its signature *is* the public
    #: method signature: the generated methods copy it.
    encode: Callable
    #: ``(reader, first_line, args) -> result``: reads the rest of one
    #: reply off the connection's :class:`~repro.net.protocol.LineReader`
    #: (``read_line``/``read_bytes``/``read_block``).  ``first_line`` is
    #: never an error reply -- the client's one reply path raised those
    #: already -- and the client turns what the reader raises into a
    #: poisoned connection.  ``args`` are the method's positional
    #: arguments.
    parse: Callable
    #: Server side: ``(iq, args, data) -> reply bytes`` without the CRLF.
    handle: Callable
    #: May a connection loss be answered by replaying the command on a
    #: fresh connection?  Required: a command nobody classified must not
    #: silently become non-retriable.  True where a duplicate execution
    #: cannot violate consistency; False where it would double-apply a
    #: change (``sar``, ``iq_delta``, the storage commands) or
    #: re-register work under an outcome the client cannot see (``qar``,
    #: ``qar_many``, ``qaread``).
    idempotent: bool
    #: ``<request line> -> <reply forms>``; the request half is pinned
    #: verbatim to ``docs/PROTOCOL.md``, the prose home of both.
    grammar: str
    #: Index of the ``<nbytes>`` field on the request line (0 = the verb)
    #: when a data block follows, else ``None``.
    size_index: Optional[int] = None
    #: Not applying it is always safe, so ``ResilientIQServer`` answers a
    #: lost connection or open circuit with ``False`` instead of raising.
    best_effort: bool = False
    #: Result factory for an empty ``keys`` list (no round trip is made).
    empty: Optional[Callable] = None


#: Method name -> record, in definition order.
COMMANDS = {}

#: Wire verb -> server handler; the server answers each framed command
#: with one probe of this view.
HANDLERS = {}

_SURFACES = []


def _stub(cmd, via, skip_empty):
    """The public method for ``cmd``: ``self.<via>(cmd, args)``.

    Compiled from the encoder's signature so it takes exactly the
    keyword and default arguments the hand-written method took and costs
    one call frame, like :func:`collections.namedtuple`'s ``__new__``.
    """
    signature = inspect.signature(cmd.encode)
    params = list(signature.parameters)
    lines = ["def {}(self, {}:".format(cmd.name, str(signature)[1:])]
    if "keys" in params:
        # Materialize once: the encoder joins it, a retry re-sends it.
        lines.append("    keys = list(keys)")
        if skip_empty and cmd.empty is not None:
            lines += ["    if not keys:", "        return cmd.empty()"]
    lines.append("    return self.{}(cmd, ({}))".format(
        via, "".join(param + ", " for param in params)))
    namespace = {"cmd": cmd}
    exec("\n".join(lines), namespace)
    method = namespace[cmd.name]
    method.__doc__ = "``{}``{}".format(
        cmd.grammar,
        "\n\n" + cmd.encode.__doc__ if cmd.encode.__doc__ else "")
    return method


def surface(via, skip_empty=False):
    """A base class with one generated method per registered command.

    Each method packs its arguments and calls ``self.<via>(cmd, args)``.
    ``skip_empty`` answers an empty ``keys`` list locally from
    ``cmd.empty`` (the single-command surfaces, whose call paths then
    reach ``RemoteIQServer._execute`` directly; a pipeline must still
    queue a frame so the command keeps its result slot).  A mixin rather
    than ``setattr`` on the finished class, so an ``abc.ABC`` subclass
    sees its abstract methods satisfied at class creation.
    """
    cls = type("CommandSurface", (), {})
    _SURFACES.append((cls, via, skip_empty))
    for cmd in COMMANDS.values():
        setattr(cls, cmd.name, _stub(cmd, via, skip_empty))
    return cls


def register(cmd):
    """Add ``cmd`` to the table, its views and every surface."""
    if cmd.name in COMMANDS or cmd.verb in HANDLERS:
        raise ValueError("command {!r} ({!r}) is already registered".format(
            cmd.name, cmd.verb))
    COMMANDS[cmd.name] = cmd
    HANDLERS[cmd.verb] = cmd.handle
    if cmd.size_index is not None:
        protocol.DATA_COMMANDS[cmd.verb] = cmd.size_index
    for cls, via, skip_empty in _SURFACES:
        setattr(cls, cmd.name, _stub(cmd, via, skip_empty))
    return cmd


def unregister(cmd):
    """Undo :func:`register` (tests that add a throwaway command)."""
    del COMMANDS[cmd.name]
    del HANDLERS[cmd.verb]
    protocol.DATA_COMMANDS.pop(cmd.verb, None)
    for cls, _via, _skip_empty in _SURFACES:
        delattr(cls, cmd.name)


# -- shared reply forms ------------------------------------------------------

def _word(word):
    """Parser for a one-line reply: true iff the line is ``word``."""
    def parse(reader, first, args):
        return first == word
    return parse


def _parse_store_result(reader, first, args):
    return StoreResult(first.decode())


STORE_REPLIES = {
    StoreResult.STORED: b"STORED",
    StoreResult.NOT_STORED: b"NOT_STORED",
    StoreResult.EXISTS: b"EXISTS",
    StoreResult.NOT_FOUND: b"NOT_FOUND",
}


# -- memcached base commands -------------------------------------------------

def _retrieve(verb, header):
    """``get``/``gets``: a hit is ``(value, flags)`` plus, for ``gets``, the
    cas id, both in the store's result and on the ``VALUE`` line."""
    def parse(reader, first, args):
        if not first.startswith(b"VALUE "):
            return None
        parts = first.split()
        value = reader.read_block(int(parts[3]), parts[0])
        return (value, int(parts[2]), *map(int, parts[4:]))

    def handle(iq, args, data):
        fetch = getattr(iq.store, verb)
        chunks = []
        for key in args:
            hit = fetch(key)
            if hit is not None:
                value, flags, *cas = hit
                chunks.append(header % (
                    key.encode(), flags, len(value), *cas, value))
        chunks.append(b"END")
        return CRLF.join(chunks)

    return (lambda key: ("{} {}".format(verb, key), None)), parse, handle


register(Command(
    "get", "get", *_retrieve("get", b"VALUE %s %d %d\r\n%s"),
    idempotent=True,
    grammar="get <key>* -> VALUE <key> <flags> <n> + data per hit, then END",
))
register(Command(
    "gets", "gets", *_retrieve("gets", b"VALUE %s %d %d %d\r\n%s"),
    idempotent=True,
    grammar="gets <key>* -> VALUE <key> <flags> <n> <cas> + data per hit,"
            " then END",
))


def _store(verb):
    def encode(key, value, flags=0, ttl=None):
        line = "{} {} {} {} {}".format(verb, key, flags, ttl or 0, len(value))
        return line, value

    def handle(iq, args, data):
        key, flags, exptime = args[0], int(args[1]), float(args[2])
        ttl = exptime if exptime > 0 else None
        return STORE_REPLIES[getattr(iq.store, verb)(key, data, flags, ttl)]

    return encode, _parse_store_result, handle


for _verb in ("set", "add", "replace"):
    register(Command(
        _verb, _verb, *_store(_verb), idempotent=False, size_index=4,
        grammar=_verb + " <key> <flags> <exptime> <n> -> STORED | NOT_STORED",
    ))


def _h_concat(verb):
    def handle(iq, args, data):
        return STORE_REPLIES[getattr(iq.store, verb)(args[0], data)]
    return handle


register(Command(
    "append", "append",
    lambda key, suffix: ("append {} 0 0 {}".format(key, len(suffix)), suffix),
    _parse_store_result, _h_concat("append"),
    idempotent=False, size_index=4,
    grammar="append <key> <flags> <exptime> <n> -> STORED | NOT_STORED",
))
register(Command(
    "prepend", "prepend",
    lambda key, prefix: ("prepend {} 0 0 {}".format(key, len(prefix)), prefix),
    _parse_store_result, _h_concat("prepend"),
    idempotent=False, size_index=4,
    grammar="prepend <key> <flags> <exptime> <n> -> STORED | NOT_STORED",
))


def _enc_cas(key, value, cas_id, flags=0, ttl=None):
    line = "cas {} {} {} {} {}".format(
        key, flags, ttl or 0, len(value), cas_id)
    return line, value


def _h_cas(iq, args, data):
    key, flags, exptime, _size, cas_id = args[:5]
    ttl = float(exptime) if float(exptime) > 0 else None
    result = iq.store.cas(key, data, int(cas_id), int(flags), ttl)
    return STORE_REPLIES[result]


register(Command(
    "cas", "cas", _enc_cas, _parse_store_result, _h_cas,
    idempotent=False, size_index=4,
    grammar="cas <key> <flags> <exptime> <n> <casid>"
            " -> STORED | EXISTS | NOT_FOUND",
))


def _h_delete(iq, args, data):
    return b"DELETED" if iq.store.delete(args[0]) else b"NOT_FOUND"


register(Command(
    "delete", "delete", lambda key: ("delete {}".format(key), None),
    _word(b"DELETED"), _h_delete, idempotent=True,
    grammar="delete <key> -> DELETED | NOT_FOUND",
))


def _arith(verb):
    def parse(reader, first, args):
        return None if first == b"NOT_FOUND" else int(first)

    def handle(iq, args, data):
        new = getattr(iq.store, verb)(args[0], int(args[1]))
        if new is None:
            return b"NOT_FOUND"
        return b"%d" % new

    return (lambda key, delta=1: ("{} {} {}".format(verb, key, delta), None),
            parse, handle)


for _verb in ("incr", "decr"):
    register(Command(
        _verb, _verb, *_arith(_verb), idempotent=False,
        grammar=_verb + " <key> <delta> -> <new-value> | NOT_FOUND",
    ))


def _h_touch(iq, args, data):
    if iq.store.touch(args[0], float(args[1])):
        return b"TOUCHED"
    return b"NOT_FOUND"


register(Command(
    "touch", "touch", lambda key, ttl: ("touch {} {}".format(key, ttl), None),
    _word(b"TOUCHED"), _h_touch, idempotent=True,
    grammar="touch <key> <exptime> -> TOUCHED | NOT_FOUND",
))


def _h_flush_all(iq, args, data):
    iq.flush_all()
    return b"OK"


register(Command(
    "flush_all", "flush_all", lambda: ("flush_all", None),
    _word(b"OK"), _h_flush_all, idempotent=True,
    grammar="flush_all -> OK",
))


def _parse_stats(reader, line, args):
    result = {}
    while line != b"END":
        _stat, name, value = line.decode().split()
        result[name] = int(value)
        line = reader.read_line()
    return result


def _h_stats(iq, args, data):
    lines = [
        "STAT {} {}".format(name, value).encode()
        for name, value in sorted(iq.stats.snapshot().items())
    ]
    return CRLF.join(lines + [b"END"])


register(Command(
    "stats", "stats", lambda: ("stats", None), _parse_stats, _h_stats,
    idempotent=True,
    grammar="stats -> STAT <name> <value> per counter, then END",
))


def _parse_version(reader, first, args):
    return first.decode().split(" ", 1)[1]


def _h_version(iq, args, data):
    return b"VERSION repro-iq-twemcached 1.0"


register(Command(
    "version", "version", lambda: ("version", None),
    _parse_version, _h_version, idempotent=True,
    grammar="version -> VERSION repro-iq-twemcached 1.0",
))


# -- IQ extensions (one per Section 5 primitive) -----------------------------

def _parse_genid(reader, first, args):
    if not first.startswith(b"ID "):
        raise ProtocolError("bad genid reply {!r}".format(first))
    return int(first.split()[1])


def _h_genid(iq, args, data):
    return b"ID %d" % iq.gen_id()


register(Command(
    "gen_id", "genid", lambda: ("genid", None), _parse_genid, _h_genid,
    idempotent=True, grammar="genid -> ID <tid>",
))


def _enc_iq_get(key, session=None):
    line = "iqget {}".format(key)
    if session is not None:
        line += " {}".format(session)
    return line, None


def _parse_iq_get(reader, first, args):
    if first.startswith(b"VALUE "):
        parts = first.split()
        return IQGetResult(value=reader.read_block(int(parts[3]), parts[0]))
    if first.startswith(b"LEASE "):
        return IQGetResult(token=int(first.split()[1]))
    if first == b"BACKOFF":
        return IQGetResult(backoff=True)
    if first == b"MISS":
        return IQGetResult()
    raise ProtocolError("bad iqget reply {!r}".format(first))


def _h_iqget(iq, args, data):
    session = int(args[1]) if len(args) > 1 else None
    result = iq.iq_get(args[0], session=session)
    # Attribute tests, not the ``is_hit``/``has_lease`` properties: this
    # is the one handler every warm read runs.
    if result.value is not None:
        return value_block(args[0], result.value)
    if result.token is not None:
        return b"LEASE %d" % result.token
    return b"BACKOFF" if result.backoff else b"MISS"


# Retriable: a replayed iqget re-issues at worst a fresh lease.
register(Command(
    "iq_get", "iqget", _enc_iq_get, _parse_iq_get, _h_iqget, idempotent=True,
    grammar="iqget <key> [<tid>]"
            " -> VALUE .../END | LEASE <token> | MISS | BACKOFF",
))


def _h_iqset(iq, args, data):
    return b"STORED" if iq.iq_set(args[0], data, int(args[1])) else b"IGNORED"


# Best effort: the server ignores sets whose lease was voided and the
# reader still returns its computed value, so a connection failure
# degrades to "not cached" instead of failing the read session.
register(Command(
    "iq_set", "iqset",
    lambda key, value, token: (
        "iqset {} {} {}".format(key, token, len(value)), value),
    _word(b"STORED"), _h_iqset,
    idempotent=False, best_effort=True, size_index=3,
    grammar="iqset <key> <token> <n> -> STORED | IGNORED",
))


def _h_releasei(iq, args, data):
    iq.release_i(args[0], int(args[1]))
    return b"OK"


# Best effort: an unreleased I lease simply expires server-side.
register(Command(
    "release_i", "releasei",
    lambda key, token: ("releasei {} {}".format(key, token), None),
    _word(b"OK"), _h_releasei, idempotent=True, best_effort=True,
    grammar="releasei <key> <token> -> OK",
))


def _parse_qaread(reader, first, args):
    if first == b"ABORT":
        raise QuarantinedError(args[0])
    if first.startswith(b"VALUE "):
        parts = first.split()
        return QaReadResult(reader.read_block(int(parts[3]), parts[0]))
    if first == b"MISS":
        return QaReadResult(None)
    raise ProtocolError("bad qaread reply {!r}".format(first))


def _h_qaread(iq, args, data):
    try:
        result = iq.qaread(args[0], int(args[1]))
    except QuarantinedError:
        return b"ABORT"
    if result.value is None:
        return b"MISS"
    return value_block(args[0], result.value)


register(Command(
    "qaread", "qaread",
    lambda key, tid: ("qaread {} {}".format(key, tid), None),
    _parse_qaread, _h_qaread, idempotent=False,
    grammar="qaread <key> <tid> -> VALUE .../END | MISS | ABORT",
))


def _enc_sar(key, value, tid):
    if value is None:
        # The null-value form: a negative size announces "no data block".
        return "sar {} {} -1".format(key, tid), None
    return "sar {} {} {}".format(key, tid, len(value)), value


def _parse_sar(reader, first, args):
    return first == (b"RELEASED" if args[1] is None else b"STORED")


def _h_sar(iq, args, data):
    stored = iq.sar(args[0], data, int(args[1]))
    if data is None:
        return b"RELEASED"
    return b"STORED" if stored else b"IGNORED"


register(Command(
    "sar", "sar", _enc_sar, _parse_sar, _h_sar,
    idempotent=False, size_index=3,
    grammar="sar <key> <tid> <n> -> STORED | RELEASED | IGNORED",
))


def _parse_lease_grant(reader, first, args):
    """GRANTED-or-ABORT replies (``qar``, ``iqdelta``: ``(tid, key, ...)``)."""
    if first == b"ABORT":
        raise QuarantinedError(args[1])
    return True


def _h_qar(iq, args, data):
    try:
        iq.qar(int(args[0]), args[1])
    except QuarantinedError:
        return b"ABORT"
    return b"GRANTED"


register(Command(
    "qar", "qar", lambda tid, key: ("qar {} {}".format(tid, key), None),
    _parse_lease_grant, _h_qar, idempotent=False,
    grammar="qar <tid> <key> -> GRANTED | ABORT",
))


def _enc_iq_delta(tid, key, op, operand):
    # incr/decr operands arrive as ints from the in-process API; the
    # wire carries them as an ASCII data block, like memcached does.
    if not isinstance(operand, bytes):
        operand = str(operand).encode()
    return "iqdelta {} {} {} {}".format(tid, key, op, len(operand)), operand


def _h_iqdelta(iq, args, data):
    try:
        iq.iq_delta(int(args[0]), args[1], args[2], data)
    except QuarantinedError:
        return b"ABORT"
    return b"GRANTED"


register(Command(
    "iq_delta", "iqdelta", _enc_iq_delta, _parse_lease_grant, _h_iqdelta,
    idempotent=False, size_index=4,
    grammar="iqdelta <tid> <key> <op> <n> -> GRANTED | ABORT",
))


def _terminator(verb):
    """``dar``/``commit``/``abort``: the server pops the session state on
    first application, so a replay is a no-op and all three retry."""
    def handle(iq, args, data):
        getattr(iq, verb)(int(args[0]))
        return b"OK"

    return Command(
        verb, verb, lambda tid: ("{} {}".format(verb, tid), None),
        _word(b"OK"), handle, idempotent=True, grammar=verb + " <tid> -> OK",
    )


for _verb in ("dar", "commit", "abort"):
    register(_terminator(_verb))


# -- precise-clock extensions (ClockClient) ----------------------------------

def _enc_cget(key, clock_now, extend=None):
    """Interval read at commit-clock value ``clock_now``."""
    line = "cget {} {}".format(key, clock_now)
    if extend is not None:
        line += " {}".format(extend)
    return line, None


def _parse_cget(reader, first, args):
    if first.startswith(b"CVALUE "):
        parts = first.split()
        return ClockGetResult(
            value=reader.read_block(int(parts[5]), parts[0]),
            flags=int(parts[2]),
            valid_from=int(parts[3]),
            valid_until=int(parts[4]),
        )
    if first == b"EXPIRED":
        return ClockGetResult(expired=True)
    if first == b"MISS":
        return ClockGetResult()
    raise ProtocolError("bad cget reply {!r}".format(first))


def _h_cget(iq, args, data):
    extend = int(args[2]) if len(args) > 2 else None
    result = iq.cget(args[0], int(args[1]), extend=extend)
    if result.is_hit:
        return b"CVALUE %s %d %d %d %d\r\n%s\r\nEND" % (
            args[0].encode(),
            result.flags,
            result.valid_from,
            result.valid_until,
            len(result.value),
            result.value,
        )
    return b"EXPIRED" if result.expired else b"MISS"


register(Command(
    "cget", "cget", _enc_cget, _parse_cget, _h_cget, idempotent=True,
    grammar="cget <key> <now> [<extend>] -> CVALUE <key> <flags> <start>"
            " <until> <n> + data, END | MISS | EXPIRED",
))


def _enc_cset(key, value, valid_from, valid_until):
    """Install ``value`` stamped ``[valid_from, valid_until)``."""
    line = "cset {} {} {} {}".format(key, valid_from, valid_until, len(value))
    return line, value


def _h_cset(iq, args, data):
    stored = iq.cset(args[0], data, int(args[1]), int(args[2]))
    return b"STORED" if stored else b"IGNORED"


# Retriable: a replayed cset re-proposes the same validity interval, which
# the server arbitrates identically (keep the longer-lived interval).
# Best effort like iq_set: the reader still returns its computed value.
register(Command(
    "cset", "cset", _enc_cset, _word(b"STORED"), _h_cset,
    idempotent=True, best_effort=True, size_index=4,
    grammar="cset <key> <start> <until> <n> -> STORED | IGNORED",
))


# -- multi-key extensions ----------------------------------------------------

def _enc_iq_mget(keys, session=None):
    """Bulk ``iq_get`` in one round trip."""
    line = "iqmget {}".format(" ".join(keys))
    if session is not None:
        # A trailing token: a positional TID would be ambiguous with keys.
        line += " {}{}".format(SESSION_TOKEN_PREFIX, session)
    return line, None


def _parse_iq_mget(reader, line, args):
    results = {}
    while line != b"END":
        parts = line.split()
        if len(parts) < 2:
            raise ProtocolError("bad iqmget reply line {!r}".format(line))
        word, key = parts[0], parts[1].decode()
        if word == b"VALUE":
            results[key] = IQGetResult(value=reader.read_bytes(int(parts[3])))
        elif word == b"LEASE":
            results[key] = IQGetResult(token=int(parts[2]))
        elif word == b"MISS":
            results[key] = IQGetResult()
        elif word == b"BACKOFF":
            results[key] = IQGetResult(backoff=True)
        else:
            raise ProtocolError("bad iqmget reply line {!r}".format(line))
        line = reader.read_line()
    return results


def _h_iqmget(iq, args, data):
    keys, session = split_session_token(args)
    chunks = []
    for key, result in iq.iq_mget(keys, session=session).items():
        if result.is_hit:
            chunks.append(b"VALUE %s 0 %d\r\n%s" % (
                key.encode(), len(result.value), result.value))
        elif result.has_lease:
            chunks.append(b"LEASE %s %d" % (key.encode(), result.token))
        elif result.backoff:
            chunks.append(b"BACKOFF %s" % key.encode())
        else:
            chunks.append(b"MISS %s" % key.encode())
    chunks.append(b"END")
    return CRLF.join(chunks)


register(Command(
    "iq_mget", "iqmget", _enc_iq_mget, _parse_iq_mget, _h_iqmget,
    idempotent=True, empty=dict,
    grammar="iqmget <key>* [@s<tid>] -> per key VALUE <key> 0 <n> + data"
            " | LEASE <key> <token> | BACKOFF <key> | MISS <key>, then END",
))


QAREG_WORDS = {
    "granted": b"GRANTED",
    "abort": b"ABORT",
    "unavailable": b"UNAVAIL",
}
_QAREG_STATUS = {word: status for status, word in QAREG_WORDS.items()}


def _enc_qar_many(tid, keys):
    """Bulk invalidation ``qar`` in one round trip.

    Returns the ordered key -> ``"granted"``/``"abort"``/
    ``"unavailable"`` dict of :meth:`LeaseBackend.qar_many`; the server
    stops at the first reject exactly like sequential ``qar``.
    """
    return "qareg {} {}".format(tid, " ".join(keys)), None


def _parse_qar_many(reader, line, args):
    results = {}
    while line != b"END":
        parts = line.split()
        status = _QAREG_STATUS.get(parts[0])
        if status is None or len(parts) != 2:
            raise ProtocolError("bad qareg reply line {!r}".format(line))
        results[parts[1].decode()] = status
        line = reader.read_line()
    return results


def _h_qareg(iq, args, data):
    chunks = [
        b"%s %s" % (QAREG_WORDS[status], key.encode())
        for key, status in iq.qar_many(int(args[0]), args[1:]).items()
    ]
    chunks.append(b"END")
    return CRLF.join(chunks)


register(Command(
    "qar_many", "qareg", _enc_qar_many, _parse_qar_many, _h_qareg,
    idempotent=False, empty=dict,
    grammar="qareg <tid> <key>* -> per key GRANTED <key> | ABORT <key>"
            " | UNAVAIL <key>, then END",
))


def _enc_mdelete(keys):
    """Delete many keys in one round trip; returns the hit count."""
    return "mdelete {}".format(" ".join(keys)), None


def _parse_mdelete(reader, first, args):
    if not first.startswith(b"DELETED "):
        raise ProtocolError("bad mdelete reply {!r}".format(first))
    return int(first.split()[1])


def _h_mdelete(iq, args, data):
    hits = sum(1 for key in args if iq.store.delete(key))
    return b"DELETED %d" % hits


register(Command(
    "mdelete", "mdelete", _enc_mdelete, _parse_mdelete, _h_mdelete,
    idempotent=True, empty=int, grammar="mdelete <key>* -> DELETED <n>",
))


def _enc_key_snapshot():
    """Every key currently cached on the server.

    A point-in-time listing for migration enumeration -- keys may of
    course appear or vanish the moment the reply is framed.
    """
    return "keysnap", None


def _parse_key_snapshot(reader, line, args):
    keys = []
    while line != b"END":
        parts = line.split()
        if len(parts) != 2 or parts[0] != b"KEY":
            raise ProtocolError("bad keysnap reply line {!r}".format(line))
        keys.append(parts[1].decode())
        line = reader.read_line()
    return keys


def _h_keysnap(iq, args, data):
    chunks = [
        "KEY {}".format(key).encode() for key in sorted(iq.store.keys())
    ]
    chunks.append(b"END")
    return CRLF.join(chunks)


register(Command(
    "key_snapshot", "keysnap", _enc_key_snapshot, _parse_key_snapshot,
    _h_keysnap, idempotent=True,
    grammar="keysnap -> KEY <key> per cached key, then END",
))
