"""Scenario programs: one call of a shipped client each, stepped by the gate.

Every builder returns a :func:`~repro.mc.gate.client_program` whose
thread builds a real consistency client over the world's gated cache
tier and connections (:attr:`World.gate <repro.mc.world.World.gate>`)
and makes one ``read`` or ``write`` call.  Nothing here re-implements a
session: the steps the explorer interleaves are the client's own calls.

Bounds replace waiting: a client's backoff is
``NoBackoff(max_attempts=attempts - 1)``, so ``attempts`` is the most
wire attempts a read makes or the most restarts plus one a write
session makes, after which the client's own
:class:`~repro.errors.StarvationError` ends the program (``"starved"`` /
``"gave-up"``).  Baseline clients never restart a conflicting
transaction; their program retries the whole write, as the BG runner
does.

Readers record what they were served for the oracles: ``"cache"`` when
the value came from the cache tier or a co-located flight, ``"query"``
when the read computed it from the RDBMS itself.
"""

from repro.core.iq_client import IQClient
from repro.core.policies import (
    BaselineInvalidateClient,
    ClockClient,
    IQDeltaClient,
    IQInvalidateClient,
    IQRefreshClient,
    KeyChange,
)
from repro.core.session import AcquisitionMode
from repro.errors import StarvationError, TransactionAbortedError
from repro.mc.gate import NO_SLEEP, client_program, gate_step
from repro.util.backoff import NoBackoff

__all__ = [
    "iq_client",
    "baseline_client",
    "clock_client",
    "reader",
    "writer",
    "iq_reader",
    "baseline_reader",
    "clock_reader",
    "invalidate_writer",
    "refresh_writer",
    "delta_writer",
    "clock_writer",
]

_SELECT = "SELECT val FROM items WHERE id = ?"


class _Rollback(Exception):
    """A scenario's SQL body aborting its transaction (Figure 6)."""


def _backoff(attempts):
    return NoBackoff(max_attempts=attempts - 1)


# -- client factories: ``make(world)`` -> a consistency client ----------------

def iq_client(cls=IQInvalidateClient, attempts=3,
              mode=AcquisitionMode.DURING, flights=None):
    """An IQ consistency client; ``flights`` is a shared
    :class:`~repro.mc.gate.GatedSingleFlight` for co-located readers."""

    def make(world):
        gate = world.gate
        reads = IQClient(gate.backend, backoff=_backoff(attempts),
                         clock=NO_SLEEP)
        if flights is not None:
            reads.flights = flights
        return cls(reads, gate.connect, mode=mode,
                   backoff=_backoff(attempts), clock=NO_SLEEP)

    return make


def baseline_client(cls=BaselineInvalidateClient, attempts=2, **options):
    def make(world):
        return cls(world.gate.backend, world.gate.connect,
                   backoff=_backoff(attempts), clock=NO_SLEEP, **options)

    return make


def clock_client(attempts=2, commit_clock=None):
    """A :class:`ClockClient` whose commit clock's ``promise`` is a step;
    ``commit_clock(world, real)`` substitutes another promise proxy."""

    def make(world):
        gate = world.gate
        client = ClockClient(gate.backend, gate.connect,
                             backoff=_backoff(attempts), clock=NO_SLEEP,
                             coalesce_fills=False)
        if commit_clock is None:
            client.commit_clock = gate.proxy(client.commit_clock, "clock.",
                                             sql=True)
        else:
            client.commit_clock = commit_clock(world, client.commit_clock)
        return client

    return make


# -- the two program shapes ---------------------------------------------------

def reader(name, key, make, expect=False):
    """``make(world).read(key, compute)``, ``compute`` a gated query.

    With ``expect`` the program first snapshots the committed value as
    one step -- the freshness baseline of the ``coalesced-stale`` oracle
    -- but only while no Q lease is outstanding on ``key``: a pending
    writer may legally serialize after this read (Figure 4's window).
    """

    def fn(world):
        if expect:
            gate_step("expect", lambda: _expect(world, name, key),
                      kvs=[key], sql=True)
        client = make(world)
        connection = world.gate.connect()
        computed = []

        def compute():
            value = connection.query_scalar(_SELECT, (world.row_id(key),))
            computed.append(value)
            return None if value is None else str(value).encode()

        try:
            value = client.read(key, compute)
        except StarvationError:
            return "starved"
        finally:
            connection.close()
        if computed:
            world.observe(name, "query", key, value)
            return "filled"
        world.observe(name, "cache", key, value)
        history = world.gate.histories[name]
        return ("coalesced" if history[-1][0].endswith(":flight.wait")
                else "hit")

    return client_program(name, fn)


def _expect(world, name, key):
    _has_i, q_holders = world.backend.leases.leases_on(key)
    if not q_holders:
        world.observe(name, "expect", key, world.query_committed(key))


def writer(name, make, assignments, changes, done, abort=False, retries=1):
    """``make(world).write(body, changes)``; ``body`` runs one UPDATE
    per ``{key: set-expression}`` and, with ``abort``, then fails.

    ``retries`` re-runs a write whose transaction lost a write-write
    conflict -- for baselines, which never restart one themselves.
    """

    def fn(world):
        client = make(world)

        def body(session):
            for key, expr in assignments.items():
                session.execute(
                    "UPDATE items SET val = {} WHERE id = ?".format(expr),
                    (world.row_id(key),),
                )
            if abort:
                raise _Rollback()

        for _ in range(retries):
            try:
                client.write(body, changes)
                return done
            except TransactionAbortedError:
                continue
            except StarvationError:
                return "gave-up"
            except _Rollback:
                return "aborted"
        return "gave-up"

    return client_program(name, fn)


# -- per-technique shorthands -------------------------------------------------

def iq_reader(name, key, attempts=3, flights=None, expect=False):
    return reader(name, key, iq_client(attempts=attempts, flights=flights),
                  expect=expect)


def baseline_reader(name, key, attempts=2):
    return reader(name, key, baseline_client(attempts=attempts))


def clock_reader(name, key, attempts=2, commit_clock=None):
    return reader(name, key, clock_client(attempts, commit_clock))


def invalidate_writer(name, assignments, attempts=2,
                      cls=IQInvalidateClient, make=None):
    """Figure 3's session under IQ: UPDATE, QaR every key, COMMIT, DaR
    -- or whatever ``make``'s client does with the same write."""
    return writer(name, make or iq_client(cls, attempts), assignments,
                  [KeyChange(key) for key in assignments], "invalidated")


def _refresher(compute):
    return lambda old: (
        None if old is None else str(compute(old.decode())).encode()
    )


def refresh_writer(name, key, expr, compute, attempts=3,
                   cls=IQRefreshClient, abort=False, make=None, retries=1):
    """Figure 2's R-M-W under IQ: QaRead before BEGIN (PRIOR), UPDATE,
    COMMIT, SaR of ``compute(old)`` -- or ``make``'s client's refresh."""
    return writer(
        name, make or iq_client(cls, attempts, mode=AcquisitionMode.PRIOR),
        {key: expr}, [KeyChange(key, refresher=_refresher(compute))],
        "refreshed", abort=abort, retries=retries,
    )


def _delta_sql(deltas):
    """``{key: set-expression}`` mirroring ``(key, op, operand)`` deltas."""
    assignments = {}
    for key, op, operand in deltas:
        if op in ("append", "prepend"):
            text = operand.decode() if isinstance(operand, bytes) else operand
            expr = ("val + '{}'" if op == "append" else "'{}' + val").format(
                text)
        else:
            expr = "val {} {}".format("+" if op == "incr" else "-",
                                      int(operand))
        assignments[key] = expr.replace("val", assignments.get(key, "val"), 1)
    return assignments


def delta_writer(name, deltas, attempts=2, cls=IQDeltaClient,
                 make=None, retries=1):
    """Figures 7/8's incremental update: ``deltas`` is a list of
    ``(key, op, operand)``; the SQL mirrors them in one transaction."""
    changes = {}
    for key, op, operand in deltas:
        changes.setdefault(key, KeyChange(key)).deltas.append((op, operand))
    return writer(name, make or iq_client(cls, attempts), _delta_sql(deltas),
                  list(changes.values()), "committed", retries=retries)


def clock_writer(name, assignments, attempts=2, abort=False):
    """A precise-clock write: the SQL, then COMMIT with ``clock_keys``."""
    return writer(name, clock_client(attempts), assignments,
                  [KeyChange(key) for key in assignments], "committed",
                  abort=abort)

