"""The thread gate: the model checker steps the clients we ship.

A *gate program* is one real client call -- ``IQInvalidateClient.write``,
``IQClient.read_through`` behind ``_IQClientBase.read``,
``ClockClient.read``, a ``Baseline*Client`` -- running on its own
thread.  The thread sees the world only through proxies, and every
proxied call first *announces* an :class:`~repro.mc.program.Op`, then
parks until the explorer grants it, then performs the call.  To the
explorer a gate program is the same ``Op``-yielding generator as any
announce-then-perform program: :class:`~repro.mc.program.MCRun`,
``replay``, ``shrink`` and ``fuzz`` drive it unchanged.  Exactly one
thread runs between two grants, so an execution is as deterministic as
the client is.

**What is a step.**  The proxies cover the cache tier (``IQServer``,
``ShardedIQServer`` and its journal, ``ReadLeaseStore``), the SQL
``Connection`` (``begin``, ``execute``, ``query_*``, ``commit`` and
``rollback``; opening and closing a connection are local), the
``CommitClock``'s ``promise``, and a co-located ``SingleFlight``
(``begin``/``join``/``unregister``/``abandon`` and a flight's
``wait``/``resolve``; ``note`` is a counter, not a step).  A footprint is
read from the called method's own ``key``/``keys`` parameter (once per
method, via :func:`inspect.signature`); a command without one, such as
``commit``, ``dar`` or ``gen_id``, conservatively touches every key of
the world.  SQL calls touch ``sql``; flight calls touch only that key's
flight registry entry.

**No real waiting.**  Clients get :class:`~repro.util.backoff.NoBackoff`
with a ``max_attempts`` bound and :data:`NO_SLEEP` as their clock, so a
retry is just the next announced step.  A gated ``Flight.wait`` returns
the outcome if the flight has resolved, else ``None``, at once.

**Fingerprints.**  Thread stacks cannot be hashed, so the gate records
each program's ``(label, result)`` history -- TIDs and lease tokens
normalised to "present", a begun transaction to its snapshot -- plus the
flight registries it can see, and :meth:`World.fingerprint
<repro.mc.world.World.fingerprint>` folds both in.  That is sound when
a client is deterministic given its call results (``docs/TESTING.md``).

**Teardown.**  Closing a gate program's generator (the explorer closes
every run with its execution) cancels its parked thread: a
``BaseException`` unwinds the client, whose ``finally`` blocks run with
every call passing straight through, and the thread is joined.  Calls
from any thread that is not a live gate program -- the explorer's own
world setup and oracles -- pass straight through too.
"""

import enum
import inspect
import threading

from repro.core.singleflight import SingleFlight
from repro.mc.program import MCProgram, Op
from repro.sql.rows import ResultSet
from repro.util.clock import Clock

__all__ = [
    "Gate",
    "GateProgram",
    "GatedSingleFlight",
    "NO_SLEEP",
    "client_program",
    "gate_step",
]

_local = threading.local()


def _current():
    """The live gate program the calling thread runs, or ``None``."""
    run = getattr(_local, "run", None)
    if run is None or run.cancelled:
        return None
    return run


class _Cancelled(BaseException):
    """Unwinds a parked program thread whose execution was closed."""


class _NoSleepClock(Clock):
    """A client's backoff clock under the gate: a retry is the next
    announced step, so sleeping takes no time at all."""

    def now(self):
        return 0.0

    def sleep(self, seconds):
        pass


NO_SLEEP = _NoSleepClock()


class _Run:
    """The thread side of one gate program."""

    def __init__(self, name, fn, world):
        self.name = name
        self.cancelled = False
        self.finished = False
        self.announced = None
        self.result = None
        self.error = None
        self._fn = fn
        self._world = world
        # Two locks held from the start, used as binary semaphores (a
        # plain lock hands over between threads about twice as fast).
        self._granted = threading.Lock()
        self._granted.acquire()
        self._parked = threading.Lock()
        self._parked.acquire()
        self.thread = threading.Thread(
            target=self._main, name="mc-gate:" + name, daemon=True
        )

    def _main(self):
        _local.run = self
        try:
            self.result = self._fn(self._world)
        except _Cancelled:
            pass
        except BaseException as exc:
            self.error = exc
        finally:
            _local.run = None
            self.finished = True
            self._parked.release()

    def start(self):
        """Explorer thread: run the program up to its first announcement."""
        self.thread.start()
        self._parked.acquire()

    def park(self, op):
        """Program thread: announce ``op`` and wait for its grant."""
        self.announced = op
        self._parked.release()
        self._granted.acquire()
        if self.cancelled:
            raise _Cancelled()

    def grant(self):
        """Explorer thread: run the program up to its next announcement."""
        self._granted.release()
        self._parked.acquire()

    def cancel(self):
        if not self.finished:
            self.cancelled = True
            self._granted.release()
        self.thread.join()


class GateProgram(MCProgram):
    """An :class:`MCProgram` whose steps are a real client's calls."""


def client_program(name, fn):
    """The gate program running ``fn(world)`` on its own thread.

    The generator yields each :class:`Op` the thread announces and
    grants it on resume; ``fn``'s return value is the program's result
    and an exception it raises surfaces as
    :class:`~repro.mc.program.ProgramCrash`.
    """

    def factory(world):
        run = _Run(name, fn, world)
        run.start()
        try:
            while not run.finished:
                yield run.announced
                run.grant()
        finally:
            run.cancel()
        if run.error is not None:
            raise run.error
        return run.result

    return GateProgram(name, factory)


def gate_step(label, action, observe=None, **footprint):
    """Run ``action()`` as one announced step of the calling program.

    Every proxied call goes through here; scenarios use it directly for
    harness work that reads shared state mid-program (a freshness
    baseline).  ``footprint`` takes :class:`Op`'s keywords; the history
    keeps ``observe(run, result)`` (default: the result itself).
    Outside a live gate program the action simply runs.
    """
    run = _current()
    if run is None:
        return action()
    op = Op("{}:{}".format(run.name, label), **footprint)
    run.park(op)
    gate = run._world.gate
    try:
        result = action()
    except Exception as exc:
        gate.record(run.name, op.label, ("raised", type(exc).__name__))
        raise
    gate.record(run.name, op.label,
                result if observe is None else observe(run, result))
    return result


# -- result normalisation (fingerprints) --------------------------------------

_PLAIN = (type(None), bool, int, float, str, bytes)
#: result fields minted per execution: only their presence is state
_MINTED = frozenset(("token", "tid"))


def _normalise(value):
    if isinstance(value, _PLAIN):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return tuple(_normalise(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted(
            (key, _normalise(item)) for key, item in value.items()
        ))
    if isinstance(value, ResultSet):
        return (_normalise(value.rows), value.rowcount)
    if isinstance(value, _GatedFlight):
        return ("flight", value.owner, value.ordinal)
    fields = []
    for slot in getattr(type(value), "__slots__", ()):
        item = getattr(value, slot, None)
        fields.append(item is not None if slot in _MINTED
                      else _normalise(item))
    return (type(value).__name__,) + tuple(fields)


# -- proxies ------------------------------------------------------------------

_SIGNATURES = {}


def _key_parameters(method):
    """The ``key``/``keys`` parameter of ``method``, read once per
    function: ``(name, position)`` or ``None``."""
    function = getattr(method, "__func__", method)
    try:
        return _SIGNATURES[function]
    except KeyError:
        pass
    found = None
    try:
        parameters = list(inspect.signature(method).parameters)
    except (TypeError, ValueError):
        parameters = []
    for name in ("key", "keys"):
        if name in parameters:
            found = (name, parameters.index(name))
            break
    _SIGNATURES[function] = found
    return found


class _Gated:
    """Every public method call on ``target`` is one announced step.

    ``prefix`` starts each step label after the program name; ``sql``
    adds the RDBMS to every footprint; ``keyed=False`` drops the key
    footprint (SQL calls).  A public attribute holding an object (a
    router's journal) is gated the same way; plain values pass through.
    """

    _PLAIN_ATTRS = _PLAIN + (tuple, list, dict, set, frozenset)

    def __init__(self, gate, target, prefix="", sql=False, keyed=True,
                 methods=None):
        self._gate = gate
        self._target = target
        self._prefix = prefix
        self._sql = sql
        self._keyed = keyed
        self._methods = methods

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if (name.startswith("_") or isinstance(attr, self._PLAIN_ATTRS)
                or (self._methods is not None and name not in self._methods)):
            return attr
        if not callable(attr):
            return _Gated(self._gate, attr, self._prefix + name + ".",
                          sql=self._sql, keyed=self._keyed)
        return self._gated(name, attr)

    def _footprint(self, method, args, kwargs):
        footprint = {"sql": self._sql}
        if not self._keyed:
            return footprint
        found = _key_parameters(method)
        keys = None
        if found is not None:
            name, position = found
            if name in kwargs:
                keys = kwargs[name]
            elif position < len(args):
                keys = args[position]
            if keys is not None and name == "key":
                keys = (keys,)
        footprint["kvs"] = self._gate.world.keys if keys is None else keys
        return footprint

    def _gated(self, name, method):
        def call(*args, **kwargs):
            if _current() is None:
                return method(*args, **kwargs)
            return gate_step(
                self._prefix + name, lambda: method(*args, **kwargs),
                observe=lambda run, result: self._observe(run, name, result),
                **self._footprint(method, args, kwargs)
            )

        return call

    def _observe(self, run, name, result):
        """What the history keeps of ``result``; binds minted TIDs."""
        if name == "gen_id":
            self._gate.world.bind_tid(run.name, result)
            return "tid"
        return result


class _GatedConnection(_Gated):
    """A SQL connection whose statements and transaction control are
    steps; a commit folds the new rows into the committed history."""

    STEPS = frozenset((
        "begin", "execute", "query_one", "query_scalar", "commit",
        "rollback",
    ))

    def __init__(self, gate, connection):
        super().__init__(gate, connection, prefix="sql.", sql=True,
                         keyed=False, methods=self.STEPS)

    def _observe(self, run, name, result):
        world = self._gate.world
        if name == "commit":
            world.record_commit()
            world.flags["sql_committed:{}".format(run.name)] = True
        if name == "begin":
            # The snapshot decides what the transaction reads and which
            # updates abort: it is part of the program's state.
            return ("snapshot", result.snapshot)
        return result


class _GatedFlight:
    """One in-flight fill seen through the gate: ``wait`` and ``resolve``
    are steps on the flight's key, and ``wait`` never blocks."""

    def __init__(self, registry, flight, key, owner, ordinal):
        self._registry = registry
        self.flight = flight
        self.key = key
        self.owner = owner
        self.ordinal = ordinal

    def resolve(self, outcome):
        return self._registry._step(
            "resolve", self.key, lambda: self.flight.resolve(outcome)
        )

    def wait(self, timeout):
        return self._registry._step(
            "wait", self.key, lambda: self._registry._outcome(self)
        )

    @property
    def resolved(self):
        return self.flight.resolved


class GatedSingleFlight:
    """A :class:`~repro.core.singleflight.SingleFlight` shared by
    co-located gate programs: assign it to each client's ``flights``.

    Registration, join, unregistration, abandonment and a flight's
    wait/resolve are steps on ``flight:<key>``; the registry and every
    flight's outcome are part of the execution's fingerprint.
    """

    def __init__(self, gate):
        self._gate = gate
        self._real = SingleFlight()
        self._flights = []
        gate.registries.append(self)

    def _step(self, name, key, action):
        return gate_step("flight." + name, action,
                         writes=("flight:{}".format(key),))

    def _outcome(self, gated):
        """What a ``wait`` on ``gated`` returns: its outcome once
        resolved, else ``None``."""
        flight = gated.flight
        return flight.outcome if flight.resolved else None

    def _wrap(self, flight, key):
        for gated in self._flights:
            if gated.flight is flight:
                return gated
        owner = _current().name if _current() is not None else "?"
        gated = _GatedFlight(self, flight, key, owner, len(self._flights))
        self._flights.append(gated)
        return gated

    def begin(self, key):
        return self._step(
            "begin", key, lambda: self._wrap(self._real.begin(key), key)
        )

    def join(self, key):
        def join():
            flight = self._real.join(key)
            return None if flight is None else self._wrap(flight, key)

        return self._step("join", key, join)

    def unregister(self, key, flight):
        return self._step("unregister", key,
                          lambda: self._real.unregister(key, flight.flight))

    def abandon(self, key, flight):
        return self._step(
            "abandon", key, lambda: self._real.abandon(key, flight.flight)
        )

    def note(self, served):
        self._real.note(served)

    def fingerprint(self):
        registered = []
        for gated in self._flights:
            if self._real.join(gated.key) is gated.flight:
                registered.append((gated.key, gated.owner, gated.ordinal))
        outcomes = tuple(
            (gated.owner, gated.ordinal, gated.flight.resolved,
             _normalise(gated.flight.outcome))
            for gated in self._flights
        )
        return tuple(registered), outcomes


class Gate:
    """One world's proxies and the client state its fingerprint needs.

    ``backend`` is the world's cache tier behind the gate;
    :meth:`connect` is a gated ``connection_factory``; :meth:`proxy`
    gates any other object a client is handed (a ``CommitClock``).
    """

    def __init__(self, world):
        self.world = world
        #: program name -> [(label, normalised result)]
        self.histories = {}
        #: the co-located flight registries built on this world
        self.registries = []
        self.backend = _Gated(self, world.backend)

    def connect(self):
        return _GatedConnection(self, self.world.db.connect())

    def proxy(self, target, prefix, sql=False):
        return _Gated(self, target, prefix=prefix, sql=sql)

    def record(self, program, label, result):
        self.histories.setdefault(program, []).append(
            (label, _normalise(result))
        )

    def fingerprint(self):
        return (
            tuple(
                (name, tuple(history))
                for name, history in sorted(self.histories.items())
            ),
            tuple(registry.fingerprint() for registry in self.registries),
        )
