"""Announce-then-perform session programs for the model checker.

Each builder returns an :class:`~repro.mc.program.MCProgram` whose
generator mirrors one of the paper's session shapes -- read-and-fill,
refresh (R-M-W), invalidate (trigger-style), incremental update (delta)
-- against either the unleased baseline store or an IQ backend.  Three
properties hold for every builder:

* every shared-state operation is *announced* (an :class:`Op` with its
  resource footprint) before it runs, so the explorer can reason about
  commutativity;
* conflict outcomes the paper's figure schedules never reach --
  ``QuarantinedError`` from a competing Q lease,
  :class:`TransactionAbortedError` from the RDBMS's first-updater-wins
  rule, ``CacheUnavailableError`` from a gated shard -- are handled with
  *bounded* retries so every program terminates in every interleaving;
* observations and commits are reported to the :class:`~repro.mc.world.
  World` (``observe`` / ``record_commit`` / ``bind_tid``) for the
  oracles and fingerprints, and write sessions emit ``session.begin`` /
  ``session.sql_commit`` / ``session.end`` trace events so the
  :class:`~repro.obs.audit.IQAuditor` can apply its 2PL check.

Step labels are deliberately attempt-independent ("w:qaread", not
"w:qaread#2"): two prefixes that reach the same state through a
different number of rejected attempts still produce distinguishable
*histories* (the labels repeat), while the labels themselves stay small
and stable for shrinker output.
"""

from repro.errors import (
    CacheUnavailableError,
    QuarantinedError,
    TransactionAbortedError,
)
from repro.mc.program import MCProgram, Op

__all__ = [
    "iq_reader",
    "coalesced_iq_reader",
    "iq_refresh_writer",
    "iq_invalidate_writer",
    "iq_batch_invalidate_writer",
    "iq_delta_writer",
    "iq_abort_refresh_writer",
    "baseline_reader",
    "baseline_cas_writer",
    "baseline_trigger_invalidator",
    "baseline_dirty_refresher",
    "baseline_delta_writer",
    "fault_program",
    "sharded_invalidate_writer",
    "sharded_delta_writer",
    "reconciler",
    "migration_program",
    "clock_reader",
    "clock_writer",
    "clock_abort_writer",
    "naive_clock_reader",
]


def _encode(value):
    return str(value).encode()


def _sql_update(world, assignments):
    """Open a transaction and apply ``{key: set_expr}`` row updates.

    Returns the open connection, or ``None`` when the RDBMS aborted the
    transaction (first-updater-wins conflict with a concurrent session).
    """
    connection = world.connect()
    connection.begin()
    try:
        for key, expr in assignments.items():
            connection.execute(
                "UPDATE items SET val = {} WHERE id = ?".format(expr),
                (world.row_id(key),),
            )
    except TransactionAbortedError:
        connection.close()
        return None
    return connection


# ---------------------------------------------------------------------------
# read sessions
# ---------------------------------------------------------------------------

def iq_reader(name, key, attempts=3):
    """Read ``key``; on a miss, fill from the RDBMS under an I lease.

    On a gated-shard failure the reader degrades to a direct RDBMS read
    (the resilient client's fallback policy) -- still a committed value,
    recorded as a ``db`` observation rather than a ``cache`` one.
    """

    def factory(world):
        backend = world.backend
        for _ in range(attempts):
            yield Op("{}:get".format(name), kvs=[key])
            try:
                result = backend.iq_get(key)
            except CacheUnavailableError:
                yield Op("{}:db-read".format(name), sql=True)
                world.observe(name, "db", key, world.query_committed(key))
                return "degraded"
            if result.is_hit:
                world.observe(name, "cache", key, result.value)
                return "hit"
            if result.backoff:
                continue
            token = result.token
            yield Op("{}:fill-query".format(name), sql=True)
            value = world.query_committed(key)
            # The queried value lives in this generator until fill-set;
            # surfacing it as an observation keeps the explorer's state
            # fingerprint sound (two states that differ only in a pending
            # fill value must not dedup).
            world.observe(name, "query", key, value)
            yield Op("{}:fill-set".format(name), kvs=[key])
            try:
                installed = backend.iq_set(key, _encode(value), token)
            except CacheUnavailableError:
                return "degraded"
            if installed:
                world.observe(name, "fill", key, value)
            return "filled" if installed else "fill-ignored"
        return "starved"

    return MCProgram(name, factory)


def coalesced_iq_reader(name, key, flights, fenced=True, attempts=3,
                        wait_steps=2, expect=False):
    """IQ read with client-side miss coalescing (the singleflight path).

    ``flights`` is the co-located clients' shared flight registry (one
    plain dict per scenario, created by the scenario's ``build``).  The
    model mirrors :class:`repro.core.singleflight.SingleFlight` at
    exactly the granularity the fencing proof needs:

    * the filler *registers* its flight in a step separate from the fill
      query, and *unregisters* in a step separate from the install --
      ``join < unregister < install`` is the ordering the applied-fence
      argument rests on, so those transitions must be independently
      schedulable;
    * install and resolve collapse into one step (the real client
      resolves right after ``iqset`` returns, with no wire operation in
      between; coarsening adjacent local actions is sound);
    * a waiter joins at its back-off step (the real client consults the
      registry where it would otherwise sleep) and then polls the
      flight in announced ``flight-wait`` steps, consuming the outcome
      only when ``fenced`` is off or the fill was *applied* (a live I
      lease at install time).  The deliberately unfenced variant
      consumes any resolved outcome -- the losing schedule the checker
      must find.

    Registration and resolution are mirrored into ``world.flags``
    (``flight:<key>`` while registered, ``flight-outcome:<name>`` once
    resolved) so explorer fingerprints distinguish states that differ
    only in flight state; the pending fill value itself is covered by
    the ``query`` observation, exactly as in :func:`iq_reader`.

    With ``expect=True`` the program's first step snapshots the
    committed value -- the freshness baseline for the
    ``coalesced-stale`` oracle
    (:func:`repro.mc.scenarios.coalesced_final_checks`).  The snapshot
    is recorded only when no Q lease is outstanding on ``key``: a
    pending write session means this read may legally serialize before
    the writer (Figure 4's rearrangement window), so only reads that
    began *after* the writer's session fully ended carry the obligation
    to observe its value.
    """

    def factory(world):
        backend = world.backend
        if expect:
            yield Op("{}:expect".format(name), kvs=[key], sql=True)
            _has_i, q_holders = backend.leases.leases_on(key)
            if not q_holders:
                world.observe(name, "expect", key,
                              world.query_committed(key))
        for _ in range(attempts):
            yield Op("{}:get".format(name), kvs=[key])
            try:
                result = backend.iq_get(key)
            except CacheUnavailableError:
                yield Op("{}:db-read".format(name), sql=True)
                world.observe(name, "db", key, world.query_committed(key))
                return "degraded"
            if result.is_hit:
                world.observe(name, "cache", key, result.value)
                return "hit"
            if result.backoff:
                flight = flights.get(key)
                if flight is None:
                    continue
                outcome = None
                for _ in range(wait_steps):
                    yield Op("{}:flight-wait".format(name), kvs=[key])
                    if flight["done"]:
                        outcome = flight["outcome"]
                        break
                if outcome is None:
                    continue  # timed out, or the filler abandoned
                value, applied = outcome
                if fenced and not applied:
                    # Refused install: an invalidation crossed the fill
                    # window, so the flight's value may predate a commit
                    # this read must observe.  Retry through the server.
                    continue
                world.observe(name, "cache", key, value)
                return "coalesced"
            token = result.token
            # Filler: every branch below returns, so a program registers
            # at most one flight per run -- its name is a unique id.
            flight = {"done": False, "outcome": None}
            yield Op("{}:flight-begin".format(name), kvs=[key])
            flights[key] = flight
            world.flags["flight:{}".format(key)] = name
            yield Op("{}:fill-query".format(name), sql=True)
            value = world.query_committed(key)
            world.observe(name, "query", key, value)
            yield Op("{}:flight-close".format(name), kvs=[key])
            if flights.get(key) is flight:
                del flights[key]
            if world.flags.get("flight:{}".format(key)) == name:
                del world.flags["flight:{}".format(key)]
            yield Op("{}:fill-set".format(name), kvs=[key])
            try:
                installed = backend.iq_set(key, _encode(value), token)
            except CacheUnavailableError:
                flight["done"] = True
                world.flags["flight-outcome:{}".format(name)] = "abandoned"
                return "degraded"
            flight["outcome"] = (value, installed)
            flight["done"] = True
            world.flags["flight-outcome:{}".format(name)] = "{}:{}".format(
                value, "applied" if installed else "refused"
            )
            if installed:
                world.observe(name, "fill", key, value)
            return "filled" if installed else "fill-ignored"
        return "starved"

    return MCProgram(name, factory)


def baseline_reader(name, key, attempts=3):
    """The Facebook read-lease reader against the unleased baseline."""

    def factory(world):
        store = world.backend
        for _ in range(attempts):
            yield Op("{}:get".format(name), kvs=[key])
            result = store.lease_get(key)
            if result.is_hit:
                world.observe(name, "cache", key, result.value)
                return "hit"
            if not result.has_lease:
                continue
            token = result.token
            yield Op("{}:fill-query".format(name), sql=True)
            value = world.query_committed(key)
            world.observe(name, "query", key, value)
            yield Op("{}:fill-set".format(name), kvs=[key])
            installed = store.lease_set(key, _encode(value), token)
            if installed:
                world.observe(name, "fill", key, value)
            return "filled" if installed else "fill-ignored"
        return "starved"

    return MCProgram(name, factory)


# ---------------------------------------------------------------------------
# refresh (R-M-W) write sessions
# ---------------------------------------------------------------------------

def iq_refresh_writer(name, key, expr, compute, attempts=3):
    """Figure 2's R-M-W session under IQ: QaRead, SQL, commit, SaR.

    ``expr`` is the SQL set-expression (``"val + 50"``); ``compute``
    maps the QaRead'd old value (a ``str``) to the new one.  A rejected
    QaRead or an RDBMS write-write abort releases everything and
    retries, up to ``attempts`` times.
    """

    def factory(world):
        backend = world.backend
        for _ in range(attempts):
            yield Op("{}:qaread".format(name), kvs=[key])
            tid = backend.gen_id()
            world.bind_tid(name, tid)
            world.emit("session.begin", tid=tid)
            try:
                old = backend.qaread(key, tid).value
                world.observe(name, "qaread", key, old)
            except QuarantinedError:
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            yield Op("{}:sql-update".format(name), sql=True)
            connection = _sql_update(world, {key: expr})
            if connection is None:
                yield Op("{}:abort".format(name), kvs=[key])
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit()
            connection.close()
            world.record_commit()
            world.emit("session.sql_commit", tid=tid)
            if old is None:
                yield Op("{}:reread".format(name), sql=True)
                new_value = str(world.query_committed(key))
                world.observe(name, "query", key, new_value)
            else:
                new_value = compute(old.decode())
            yield Op("{}:sar".format(name), kvs=[key])
            backend.sar(key, _encode(new_value), tid)
            world.emit("session.end", tid=tid)
            return "refreshed"
        return "gave-up"

    return MCProgram(name, factory)


def iq_abort_refresh_writer(name, key, expr):
    """Figure 6's aborting refresh session under IQ.

    The RDBMS transaction rolls back before commit; ``Abort(TID)``
    releases the Q lease without ever touching the cached value.
    """

    def factory(world):
        backend = world.backend
        yield Op("{}:qaread".format(name), kvs=[key])
        tid = backend.gen_id()
        world.bind_tid(name, tid)
        world.emit("session.begin", tid=tid)
        try:
            backend.qaread(key, tid)
        except QuarantinedError:
            backend.abort(tid)
            world.emit("session.end", tid=tid)
            return "rejected"
        yield Op("{}:sql-update".format(name), sql=True)
        connection = _sql_update(world, {key: expr})
        yield Op("{}:rollback".format(name), sql=True)
        if connection is not None:
            connection.rollback()
            connection.close()
        yield Op("{}:abort".format(name), kvs=[key])
        backend.abort(tid)
        world.emit("session.end", tid=tid)
        return "aborted"

    return MCProgram(name, factory)


# ---------------------------------------------------------------------------
# invalidate write sessions
# ---------------------------------------------------------------------------

def iq_invalidate_writer(name, assignments, attempts=3):
    """Figure 3's trigger-invalidate session under IQ.

    ``assignments`` maps key -> SQL set-expression, all updated in one
    transaction with one QaR per key fired trigger-style inside it,
    then committed and DaR'd.
    """
    keys = tuple(assignments)

    def factory(world):
        backend = world.backend
        for _ in range(attempts):
            yield Op("{}:sql-update".format(name), sql=True)
            tid = backend.gen_id()
            world.bind_tid(name, tid)
            world.emit("session.begin", tid=tid)
            connection = _sql_update(world, assignments)
            if connection is None:
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            rejected = False
            for key in keys:
                yield Op("{}:qar:{}".format(name, key), kvs=[key])
                try:
                    backend.qar(tid, key)
                except QuarantinedError:
                    rejected = True
                    break
            if rejected:
                yield Op("{}:rollback".format(name), sql=True)
                connection.rollback()
                connection.close()
                yield Op("{}:abort".format(name), kvs=keys)
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit()
            connection.close()
            world.record_commit()
            world.flags["sql_committed:{}".format(name)] = True
            world.emit("session.sql_commit", tid=tid)
            yield Op("{}:dar".format(name), kvs=keys)
            backend.dar(tid)
            world.emit("session.end", tid=tid)
            return "invalidated"
        return "gave-up"

    return MCProgram(name, factory)


def iq_batch_invalidate_writer(name, assignments, attempts=3):
    """Figure 3's invalidate session with one *batched* QaR acquisition.

    The growing phase issues a single ``qar_many`` for the whole
    write-set -- one announced step, mirroring the one pipelined
    ``qareg`` round trip of the wire protocol -- instead of one ``qar``
    step per key.  An ``"abort"`` status (or a zombie-TID
    :class:`~repro.errors.QuarantinedError` from the router) restarts
    the session exactly like a per-key reject; keys whose shard was
    unreachable degrade to post-commit journaling like
    :func:`sharded_invalidate_writer`.  The batched session must be
    outcome-equivalent to :func:`iq_invalidate_writer` over every
    explored schedule -- ``tests/mc`` asserts exactly that.
    """
    keys = tuple(assignments)

    def factory(world):
        backend = world.backend
        for _ in range(attempts):
            yield Op("{}:sql-update".format(name), sql=True)
            tid = backend.gen_id()
            world.bind_tid(name, tid)
            world.emit("session.begin", tid=tid)
            connection = _sql_update(world, assignments)
            if connection is None:
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            yield Op("{}:qareg".format(name), kvs=keys)
            try:
                statuses = backend.qar_many(tid, keys)
            except QuarantinedError:
                statuses = None
            except CacheUnavailableError:
                statuses = {key: "unavailable" for key in keys}
            if statuses is None or "abort" in statuses.values():
                yield Op("{}:rollback".format(name), sql=True)
                connection.rollback()
                connection.close()
                yield Op("{}:abort".format(name), kvs=keys)
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            degraded = [
                key for key, status in statuses.items()
                if status == "unavailable"
            ]
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit()
            connection.close()
            world.record_commit()
            world.flags["sql_committed:{}".format(name)] = True
            world.emit("session.sql_commit", tid=tid)
            if degraded:
                yield Op("{}:journal".format(name), kvs=degraded)
                backend.journal.add(degraded)
            yield Op("{}:dar".format(name), kvs=keys)
            backend.dar(tid)
            world.emit("session.end", tid=tid)
            return "invalidated"
        return "gave-up"

    return MCProgram(name, factory)


# ---------------------------------------------------------------------------
# incremental-update (delta) write sessions
# ---------------------------------------------------------------------------

def _delta_sql_expr(op, operand):
    if op in ("append", "prepend"):
        text = operand.decode() if isinstance(operand, bytes) else operand
        if op == "append":
            return "val + '{}'".format(text)
        return "'{}' + val".format(text)
    amount = int(operand)
    return "val + {}".format(amount) if op == "incr" else (
        "val - {}".format(amount)
    )


def iq_delta_writer(name, deltas, attempts=3):
    """Figures 7/8's incremental-update session under IQ.

    ``deltas`` is a list of ``(key, op, operand)`` -- e.g. ``("k0",
    "append", b"d")`` or ``("k0", "incr", 1)``.  Each delta's SQL
    mirror runs in one transaction; ``IQ-delta`` buffers the cache-side
    change under an exclusive Q lease and ``Commit(TID)`` applies it.
    """
    keys = tuple(dict.fromkeys(key for key, _, _ in deltas))

    def factory(world):
        backend = world.backend
        assignments = {}
        for key, op, operand in deltas:
            expr = assignments.get(key, "val")
            assignments[key] = _delta_sql_expr(op, operand).replace(
                "val", expr, 1
            )
        for _ in range(attempts):
            yield Op("{}:sql-update".format(name), sql=True)
            tid = backend.gen_id()
            world.bind_tid(name, tid)
            world.emit("session.begin", tid=tid)
            connection = _sql_update(world, assignments)
            if connection is None:
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            rejected = False
            for key, op, operand in deltas:
                yield Op("{}:delta:{}".format(name, key), kvs=[key])
                try:
                    backend.iq_delta(tid, key, op, operand)
                except QuarantinedError:
                    rejected = True
                    break
            if rejected:
                yield Op("{}:rollback".format(name), sql=True)
                connection.rollback()
                connection.close()
                yield Op("{}:abort".format(name), kvs=keys)
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit()
            connection.close()
            world.record_commit()
            world.flags["sql_committed:{}".format(name)] = True
            world.emit("session.sql_commit", tid=tid)
            yield Op("{}:commit".format(name), kvs=keys)
            backend.commit(tid)
            world.emit("session.end", tid=tid)
            return "committed"
        return "gave-up"

    return MCProgram(name, factory)


# ---------------------------------------------------------------------------
# baseline (unleased) write sessions -- the racy shapes of the figures
# ---------------------------------------------------------------------------

def baseline_cas_writer(name, key, expr, compute, attempts=3):
    """Figure 2's R-M-W with gets/cas instead of leases."""

    def factory(world):
        store = world.backend
        for _ in range(attempts):
            yield Op("{}:sql-update".format(name), sql=True)
            connection = _sql_update(world, {key: expr})
            if connection is None:
                continue
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit()
            connection.close()
            world.record_commit()
            yield Op("{}:kvs-read".format(name), kvs=[key])
            hit = store.gets(key)
            if hit is None:
                return "lost-key"
            value, _flags, cas_id = hit
            world.observe(name, "gets", key, value)
            yield Op("{}:kvs-cas".format(name), kvs=[key])
            swapped = store.cas(key, _encode(compute(value.decode())), cas_id)
            return "swapped" if swapped else "cas-failed"
        return "gave-up"

    return MCProgram(name, factory)


def baseline_trigger_invalidator(name, assignments):
    """Figure 3: delete fired by a trigger *inside* the transaction."""
    keys = tuple(assignments)

    def factory(world):
        store = world.backend
        yield Op("{}:sql-update".format(name), sql=True)
        connection = _sql_update(world, assignments)
        if connection is None:
            return "sql-aborted"
        for key in keys:
            yield Op("{}:delete:{}".format(name, key), kvs=[key])
            store.delete(key)
        yield Op("{}:sql-commit".format(name), sql=True)
        connection.commit()
        connection.close()
        world.record_commit()
        return "invalidated"

    return MCProgram(name, factory)


def baseline_dirty_refresher(name, key, expr, value):
    """Figure 6: refresh the cache pre-commit, then abort the transaction."""

    def factory(world):
        store = world.backend
        yield Op("{}:sql-update".format(name), sql=True)
        connection = _sql_update(world, {key: expr})
        yield Op("{}:kvs-set".format(name), kvs=[key])
        store.set(key, _encode(value))
        yield Op("{}:rollback".format(name), sql=True)
        if connection is not None:
            connection.rollback()
            connection.close()
        return "aborted"

    return MCProgram(name, factory)


def baseline_delta_writer(name, key, op, operand, precommit=True):
    """Figures 7 (``precommit=True``) and 8 (``False``): unleased delta.

    The KVS-side append/incr either runs inside the transaction (lost on
    a concurrent miss, Figure 7) or after commit (applied twice on a
    fresh fill, Figure 8).
    """

    def factory(world):
        store = world.backend
        operand_bytes = (
            operand if isinstance(operand, bytes) else _encode(operand)
        )
        yield Op("{}:sql-update".format(name), sql=True)
        connection = _sql_update(world, {key: _delta_sql_expr(op, operand)})
        if connection is None:
            return "sql-aborted"
        if precommit:
            yield Op("{}:kvs-delta".format(name), kvs=[key])
            _apply_store_delta(store, key, op, operand_bytes)
        yield Op("{}:sql-commit".format(name), sql=True)
        connection.commit()
        connection.close()
        world.record_commit()
        if not precommit:
            yield Op("{}:kvs-delta".format(name), kvs=[key])
            _apply_store_delta(store, key, op, operand_bytes)
        return "committed"

    return MCProgram(name, factory)


def _apply_store_delta(store, key, op, operand_bytes):
    if op == "append":
        return store.append(key, operand_bytes)
    if op == "prepend":
        return store.prepend(key, operand_bytes)
    if op == "incr":
        return store.incr(key, int(operand_bytes))
    return store.decr(key, int(operand_bytes))


# ---------------------------------------------------------------------------
# fault delivery as a schedule step
# ---------------------------------------------------------------------------

def fault_program(name, label, action, keys):
    """A one-step pseudo-program that delivers a fault.

    ``action(world)`` flips a world-level fault control (arm an injector
    rule, gate a shard, expire leases); ``keys`` is the set of keys whose
    cache state the fault can affect, i.e. the op's write footprint --
    that is what lets DPOR treat fault delivery like any other
    conflicting operation.
    """

    def factory(world):
        yield Op("{}:{}".format(name, label), kvs=keys)
        action(world)
        return "delivered"

    return MCProgram(name, factory)


# ---------------------------------------------------------------------------
# sharded sessions with degraded-mode client policies (PR 2 semantics)
# ---------------------------------------------------------------------------

def sharded_invalidate_writer(name, assignments, journal_timing="post",
                              attempts=3):
    """Invalidate across shards, journaling keys whose shard is down.

    With ``journal_timing="post"`` (the reviewed PR 2 semantics) a key
    whose growing-phase ``QaR`` found its shard unreachable is journaled
    only *after* the RDBMS commit; ``"pre"`` reproduces the rejected
    behaviour -- journaling at failure time, before the transaction
    commits -- which the checker must flag (a reconciler can consume the
    entry and delete the key while the transaction can still abort or,
    worse, before readers can even observe the new value, reopening the
    Figure 3 window).
    """
    keys = tuple(assignments)

    def factory(world):
        backend = world.backend
        for _ in range(attempts):
            yield Op("{}:sql-update".format(name), sql=True)
            tid = backend.gen_id()
            world.bind_tid(name, tid)
            world.emit("session.begin", tid=tid)
            connection = _sql_update(world, assignments)
            if connection is None:
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            rejected = False
            degraded = []
            for key in keys:
                yield Op("{}:qar:{}".format(name, key), kvs=[key])
                try:
                    backend.qar(tid, key)
                except QuarantinedError:
                    rejected = True
                    break
                except CacheUnavailableError:
                    degraded.append(key)
                    if journal_timing == "pre":
                        backend.journal.add([key])
            if rejected:
                yield Op("{}:rollback".format(name), sql=True)
                connection.rollback()
                connection.close()
                yield Op("{}:abort".format(name), kvs=keys)
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit()
            connection.close()
            world.record_commit()
            world.flags["sql_committed:{}".format(name)] = True
            world.emit("session.sql_commit", tid=tid)
            if degraded and journal_timing == "post":
                yield Op("{}:journal".format(name), kvs=degraded)
                backend.journal.add(degraded)
            yield Op("{}:dar".format(name), kvs=keys)
            backend.dar(tid)
            world.emit("session.end", tid=tid)
            return "invalidated"
        return "gave-up"

    return MCProgram(name, factory)


def sharded_delta_writer(name, deltas, poison=True, attempts=3):
    """Delta across shards; a failed proposal poisons its key's leg.

    With ``poison=True`` (the reviewed PR 2 semantics) an ``iq_delta``
    that found its shard unreachable marks the key poisoned, so
    ``Commit(TID)`` aborts that shard leg -- deleting the key instead of
    applying a *partial* delta list.  ``poison=False`` reproduces the
    rejected behaviour: the leg commits whatever subset of deltas made
    it through, which the checker must flag as a stale final value.
    """
    keys = tuple(dict.fromkeys(key for key, _, _ in deltas))

    def factory(world):
        backend = world.backend
        assignments = {}
        for key, op, operand in deltas:
            expr = assignments.get(key, "val")
            assignments[key] = _delta_sql_expr(op, operand).replace(
                "val", expr, 1
            )
        for _ in range(attempts):
            yield Op("{}:sql-update".format(name), sql=True)
            tid = backend.gen_id()
            world.bind_tid(name, tid)
            world.emit("session.begin", tid=tid)
            connection = _sql_update(world, assignments)
            if connection is None:
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            rejected = False
            for key, op, operand in deltas:
                yield Op("{}:delta:{}".format(name, key), kvs=[key])
                try:
                    backend.iq_delta(tid, key, op, operand)
                except QuarantinedError:
                    rejected = True
                    break
                except CacheUnavailableError:
                    if poison:
                        backend.poison(tid, key)
            if rejected:
                yield Op("{}:rollback".format(name), sql=True)
                connection.rollback()
                connection.close()
                yield Op("{}:abort".format(name), kvs=keys)
                backend.abort(tid)
                world.emit("session.end", tid=tid)
                continue
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit()
            connection.close()
            world.record_commit()
            world.flags["sql_committed:{}".format(name)] = True
            world.emit("session.sql_commit", tid=tid)
            yield Op("{}:commit".format(name), kvs=keys)
            backend.commit(tid)
            world.emit("session.end", tid=tid)
            return "committed"
        return "gave-up"

    return MCProgram(name, factory)


def reconciler(name, rounds=1):
    """Drain the sharded router's local journal (one pass per step)."""

    def factory(world):
        backend = world.backend
        for _ in range(rounds):
            yield Op("{}:reconcile".format(name), kvs=world.keys)
            backend.reconcile_local()
        return "reconciled"

    return MCProgram(name, factory)


# ---------------------------------------------------------------------------
# topology migration as announced schedule steps
# ---------------------------------------------------------------------------

def migration_program(name, plan):
    """Drive a :class:`~repro.sharding.Rebalancer` step sequence.

    ``plan(world)`` binds the rebalancer to the world and returns
    ``(rebalancer, step_iterator)``, e.g.::

        def plan(world):
            reb = Rebalancer(world.backend, quarantine_attempts=2)
            return reb, reb.steps_add("shard2", world.spare_gates["shard2"])

    Every yielded :class:`~repro.sharding.MigrationStep` becomes one
    announced :class:`Op` whose footprint is the step's key list; a
    ``None`` footprint (begin / flip, which re-route *every* key) widens
    to the scenario's whole key universe.  Migration TIDs are aliased to
    this program per source shard, so lease fingerprints stay
    schedule-independent.  The rebalancer's own step functions absorb
    ``QuarantinedError`` / ``CacheUnavailableError`` (retry, drop,
    journal), so the program terminates in every interleaving.
    """

    def factory(world):
        rebalancer, steps = plan(world)
        rebalancer.tid_hook = (
            lambda shard, tid: world.bind_tid(name, tid, server=shard)
        )
        for step in steps:
            keys = world.keys if step.keys is None else tuple(step.keys)
            yield Op("{}:{}".format(name, step.label), kvs=keys)
            step.run()
        return "migrated" if rebalancer.report.completed else "incomplete"

    return MCProgram(name, factory)


# ---------------------------------------------------------------------------
# precise-clock sessions (repro.clock; lease-free)
# ---------------------------------------------------------------------------

def clock_reader(name, key, attempts=2, ticks=None):
    """Precise-clock read: promise a write horizon, then ``cget``.

    The promise is announced as a *SQL-side* step (it reads and mutates
    the commit clock under the transaction-manager mutex) and the
    ``cget`` as a KVS step, so the explorer interleaves a writer's
    commit in between -- exactly the window the commit's clock jump must
    cover.  A hit serves without ever touching the lease table; a miss
    fills with a ``cset`` stamped by the promise; an interval expiry
    (self-invalidation) retries, re-promising for the fresh value.
    """

    def factory(world):
        backend = world.backend
        commit_clock = world.db.commit_clock
        for _ in range(attempts):
            yield Op("{}:promise".format(name), sql=True)
            start, until = commit_clock.promise(key, ticks=ticks)
            yield Op("{}:cget".format(name), kvs=[key])
            try:
                result = backend.cget(key, start, extend=until)
            except CacheUnavailableError:
                yield Op("{}:db-read".format(name), sql=True)
                world.observe(name, "db", key, world.query_committed(key))
                return "degraded"
            if result.is_hit:
                world.observe(name, "cache", key, result.value)
                return "hit"
            if result.expired:
                continue  # self-invalidated: re-promise for the new value
            yield Op("{}:fill-query".format(name), sql=True)
            value = world.query_committed(key)
            world.observe(name, "query", key, value)
            yield Op("{}:cset".format(name), kvs=[key])
            try:
                stored = backend.cset(key, _encode(value), start, until)
            except CacheUnavailableError:
                return "degraded"
            if stored:
                world.observe(name, "fill", key, value)
            return "filled" if stored else "fill-ignored"
        return "gave-up"

    return MCProgram(name, factory)


def clock_writer(name, assignments, attempts=3):
    """Precise-clock write: the SQL body, then commit with ``clock_keys``.

    Zero cache steps -- the commit's clock jump past every promised
    horizon for the written keys is the invalidation: any cached
    interval covering those keys has expired by the time the new value
    is visible.  First-updater-wins aborts retry like every other
    writer.
    """
    keys = tuple(assignments)

    def factory(world):
        for _ in range(attempts):
            yield Op("{}:sql-update".format(name), sql=True)
            connection = _sql_update(world, assignments)
            if connection is None:
                continue
            yield Op("{}:sql-commit".format(name), sql=True)
            connection.commit(clock_keys=keys)
            connection.close()
            world.record_commit()
            world.flags["sql_committed:{}".format(name)] = True
            return "committed"
        return "gave-up"

    return MCProgram(name, factory)


def clock_abort_writer(name, assignments):
    """Figure 6's aborting writer under precise clocks.

    Rolls the RDBMS transaction back before commit.  There is nothing
    else to undo: no lease was taken, no cache value touched, and the
    clock never moved -- the uncommitted value simply never existed
    outside the aborted snapshot.
    """

    def factory(world):
        yield Op("{}:sql-update".format(name), sql=True)
        connection = _sql_update(world, assignments)
        yield Op("{}:rollback".format(name), sql=True)
        if connection is not None:
            connection.rollback()
            connection.close()
        return "aborted"

    return MCProgram(name, factory)


def naive_clock_reader(name, key, guess=8, attempts=2):
    """The rejected mis-sized variant: a guessed interval, no promise.

    Reads the key's clock and stamps ``[now, now + guess)`` without
    registering a write horizon, so a concurrent clock-keyed commit
    advances the key's clock by a single tick instead of jumping past
    the bound -- and a later read inside the guessed window is served
    the stale value.  ``tests/mc`` proves the checker finds that
    schedule (the precise-clock analogue of ``rebalance-unquarantined``).
    """

    def factory(world):
        backend = world.backend
        txmanager = world.db.txmanager
        for _ in range(attempts):
            yield Op("{}:clock-read".format(name), sql=True)
            start = txmanager.key_clock(key)
            until = start + guess
            yield Op("{}:cget".format(name), kvs=[key])
            result = backend.cget(key, start)
            if result.is_hit:
                world.observe(name, "cache", key, result.value)
                return "hit"
            if result.expired:
                continue
            yield Op("{}:fill-query".format(name), sql=True)
            value = world.query_committed(key)
            world.observe(name, "query", key, value)
            yield Op("{}:cset".format(name), kvs=[key])
            stored = backend.cset(key, _encode(value), start, until)
            if stored:
                world.observe(name, "fill", key, value)
            return "filled" if stored else "fill-ignored"
        return "gave-up"

    return MCProgram(name, factory)
