"""The database facade: connections, statement execution, DDL, vacuum.

Concurrency model (mirrors what the paper's races require and nothing
more): a single engine latch serializes individual *statements*, so each
statement is atomic, while *transactions* interleave freely between
statements -- exactly the granularity at which snapshot isolation races
manifest.  Commits and aborts also run under the latch so trigger-deferred
actions observe a consistent order.

Reclamation is amortised onto the commit path: once the rows written
since the last :meth:`Database.vacuum` pass outnumber the rows stored
(and :data:`VACUUM_FLOOR`), the committing connection runs the pass under
the latch it already holds.  Stored state therefore tracks live rows plus
open transactions, not the number of transactions ever run.
"""

import threading
import time

from repro.errors import (
    SchemaError,
    SQLError,
    TransactionAbortedError,
    TransactionStateError,
)
from repro.sql import ast
from repro.sql.indexes import HashIndex
from repro.sql.parser import parse
from repro.sql.plans import compile_statement
from repro.sql.rows import ResultSet
from repro.sql.schema import Column, TableSchema
from repro.sql.storage import TableStorage
from repro.sql.transactions import IsolationLevel, TransactionManager
from repro.sql.triggers import Trigger, TriggerRegistry, TriggerTiming
from repro.sql.types import type_by_name


#: Row writes below which a commit never starts a vacuum pass: a table of
#: a few rows keeps its dead versions until someone calls ``vacuum()``.
VACUUM_FLOOR = 1024


class Database:
    """An in-process multi-versioned relational database."""

    def __init__(self, name="db", isolation=IsolationLevel.SNAPSHOT,
                 wal_path=None):
        self.name = name
        self.default_isolation = isolation
        self.txmanager = TransactionManager()
        self.triggers = TriggerRegistry()
        self._tables = {}
        self._indexes = {}
        self._latch = threading.RLock()
        #: statement text -> parsed statement (never invalidated); read and
        #: filled without a lock: two threads parsing one text at once
        #: store equal statements, and either may win
        self._statement_cache = {}
        #: statement text -> compiled plan; read, filled and dropped (on
        #: DDL) under the latch, so a plan always matches the schema
        self._plans = {}
        # Which access path ran and what reclamation cost (see stats());
        # plain ints, bumped only under the latch.
        self.pk_probes = 0
        self.index_probes = 0
        self.full_scans = 0
        self.rows_examined = 0
        self.rows_written = 0
        self.plans_compiled = 0
        self.vacuum_runs = 0
        self.vacuum_max_pause_us = 0
        self._written_at_vacuum = 0
        #: Optional write-ahead log providing durability; see repro.sql.wal.
        self.wal = None
        if wal_path is not None:
            from repro.sql.wal import WriteAheadLog

            self.wal = WriteAheadLog(wal_path)

    # -- schema ------------------------------------------------------------

    def storage(self, table_name):
        try:
            return self._tables[table_name.lower()]
        except KeyError:
            raise SchemaError("no table named {!r}".format(table_name))

    def schema_of(self, table_name):
        return self.storage(table_name).schema

    def has_table(self, table_name):
        return table_name.lower() in self._tables

    def table_names(self):
        return sorted(t.schema.name for t in self._tables.values())

    def create_table(self, schema, if_not_exists=False):
        """Register a :class:`TableSchema` (programmatic DDL)."""
        with self._latch:
            if schema.name.lower() in self._tables:
                if if_not_exists:
                    return
                raise SchemaError(
                    "table {!r} already exists".format(schema.name)
                )
            self._tables[schema.name.lower()] = TableStorage(
                schema, self.txmanager
            )
            self._plans.clear()
            if self.wal is not None:
                from repro.sql.wal import ddl_for_schema

                self.wal.log_ddl(ddl_for_schema(schema))

    def drop_table(self, table_name, if_exists=False):
        with self._latch:
            if table_name.lower() not in self._tables:
                if if_exists:
                    return
                raise SchemaError("no table named {!r}".format(table_name))
            del self._tables[table_name.lower()]
            self._plans.clear()
            if self.wal is not None:
                self.wal.log_ddl("DROP TABLE {}".format(table_name))
            self._indexes = {
                name: index
                for name, index in self._indexes.items()
                if index.table_name.lower() != table_name.lower()
            }

    def create_index(self, name, table_name, column_names):
        """Create and backfill a hash index."""
        with self._latch:
            if name.lower() in self._indexes:
                raise SchemaError("index {!r} already exists".format(name))
            storage = self.storage(table_name)
            index = HashIndex(name, storage.schema, column_names)
            # Backfill from every existing version: supersets are safe.
            for logical_row in storage._rows.values():
                for version in logical_row.versions:
                    index.add(logical_row.rowid, version.values)
            storage.indexes.append(index)
            self._indexes[name.lower()] = index
            self._plans.clear()
            if self.wal is not None:
                from repro.sql.wal import ddl_for_index

                self.wal.log_ddl(ddl_for_index(index))
            return index

    def create_trigger(self, name, table_name, events, callback,
                       after_commit=False):
        """Attach a trigger; see :mod:`repro.sql.triggers`."""
        timing = TriggerTiming.AFTER_COMMIT if after_commit else TriggerTiming.DURING
        self.storage(table_name)  # validate the table exists
        trigger = Trigger(name, table_name, events, callback, timing)
        self.triggers.register(trigger)
        return trigger

    def drop_trigger(self, table_name, trigger_name):
        self.triggers.unregister(table_name, trigger_name)

    # -- connections -----------------------------------------------------------

    def connect(self, isolation=None):
        """Open a new connection (one concurrent transaction at most)."""
        return Connection(self, isolation or self.default_isolation)

    @property
    def commit_clock(self):
        """This database's :class:`~repro.sql.clock.CommitClock` facade."""
        clock = getattr(self, "_commit_clock", None)
        if clock is None:
            from repro.sql.clock import CommitClock

            clock = self._commit_clock = CommitClock(self)
        return clock

    # -- maintenance -------------------------------------------------------------

    def vacuum(self):
        """Reclaim dead versions across all tables; returns count removed.

        Afterwards the transaction manager forgets every finished
        transaction that no surviving version names.
        """
        with self._latch:
            started = time.perf_counter()
            horizon = self.txmanager.gc_horizon()
            named = set()
            reclaimed = sum(
                storage.vacuum(horizon, named)
                for storage in self._tables.values()
            )
            self.txmanager.forget_finished_except(named)
            self._written_at_vacuum = self.rows_written
            self.vacuum_runs += 1
            self.vacuum_max_pause_us = max(
                self.vacuum_max_pause_us,
                int((time.perf_counter() - started) * 1e6),
            )
            return reclaimed

    def _vacuum_if_due(self):
        """The amortised trigger; runs under the committer's latch."""
        written = self.rows_written - self._written_at_vacuum
        if written > VACUUM_FLOOR and written > sum(
            storage.row_count() for storage in self._tables.values()
        ):
            self.vacuum()

    def stats(self):
        """Access-path, reclamation and stored-state counters as ints."""
        with self._latch:
            return {
                "pk_probes": self.pk_probes,
                "index_probes": self.index_probes,
                "full_scans": self.full_scans,
                "rows_examined": self.rows_examined,
                "plans_compiled": self.plans_compiled,
                "vacuum_runs": self.vacuum_runs,
                "vacuum_max_pause_us": self.vacuum_max_pause_us,
                "versions": sum(
                    storage.version_count()
                    for storage in self._tables.values()
                ),
                "tx_records": self.txmanager.record_count(),
            }

    def _parse_cached(self, sql):
        statement = self._statement_cache.get(sql)
        if statement is None:
            statement = self._statement_cache[sql] = parse(sql)
        return statement

    def _plan(self, sql, statement):
        """The cached plan for ``sql``, compiled on first use (latched)."""
        plan = self._plans.get(sql)
        if plan is None:
            plan = self._plans[sql] = compile_statement(self, statement)
            self.plans_compiled += 1
        return plan


class Connection:
    """A session with the database.

    In autocommit mode (the default) every statement runs in its own
    transaction.  ``begin()`` (or executing ``BEGIN``) opens an explicit
    transaction spanning statements until ``commit()``/``rollback()``.
    The paper's "multiple RDBMS connections" pattern (Section 6.2) maps to
    multiple :class:`Connection` objects over one :class:`Database`.
    """

    def __init__(self, database, isolation):
        self.db = database
        self.isolation = isolation
        self._tx = None
        self._closed = False

    # -- transaction control ------------------------------------------------

    @property
    def in_transaction(self):
        return self._tx is not None and self._tx.is_active

    def begin(self, isolation=None):
        self._check_open()
        if self.in_transaction:
            raise TransactionStateError("transaction already in progress")
        self._tx = self.db.txmanager.begin(isolation or self.isolation)
        return self._tx

    def commit(self, clock_keys=None):
        """Commit the open transaction.

        ``clock_keys`` declares cache keys invalidated under the
        precise-clock technique: the commit clock jumps past their
        promised horizons (see :mod:`repro.sql.clock`), which is the
        whole write-side cache protocol -- no round trip.
        """
        self._check_open()
        if not self.in_transaction:
            raise TransactionStateError("no transaction in progress")
        with self.db._latch:
            if self.db.wal is not None:
                from repro.sql.wal import ops_from_transaction

                ops = ops_from_transaction(self._tx, self.db.schema_of)
                self.db.wal.log_commit(self._tx.txid, ops)
            self.db.txmanager.commit(self._tx, clock_keys=clock_keys)
            self.db._vacuum_if_due()
        self._tx = None

    def rollback(self):
        self._check_open()
        if self._tx is None:
            raise TransactionStateError("no transaction in progress")
        with self.db._latch:
            self.db.txmanager.abort(self._tx)
        self._tx = None

    def close(self):
        """Abort any open transaction and invalidate the connection."""
        if self._tx is not None and self._tx.is_active:
            self.db.txmanager.abort(self._tx)
        self._tx = None
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._tx is not None and self._tx.is_active:
            if exc_type is None:
                self.commit()
            else:
                self.rollback()
        self.close()
        return False

    def _check_open(self):
        if self._closed:
            raise TransactionStateError("connection is closed")

    def _current_tx(self):
        if self._tx is None:
            raise TransactionStateError("statement executed outside transaction")
        self._tx.ensure_active()
        return self._tx

    def snapshot_ts(self):
        """The commit-clock reading this connection's reads see.

        Inside a transaction: its snapshot (fixed at ``begin`` under
        snapshot isolation).  Outside one: the current commit seq, which
        is the snapshot the next autocommit statement would take.
        """
        if self.in_transaction:
            return self._tx.snapshot
        return self.db.txmanager.current_commit_seq()

    def on_commit(self, callback):
        """Run ``callback`` immediately after this transaction commits.

        Callbacks run under the engine latch in commit order, which makes
        them suitable for ground-truth recording (BG validation) and for
        modelling after-commit application work.
        """
        self._current_tx().on_commit.append(callback)

    # -- execution ---------------------------------------------------------------

    def execute(self, sql, params=()):
        """Parse (with caching) and run one statement.

        Returns a :class:`~repro.sql.rows.ResultSet`.  DML in autocommit
        mode commits before returning; inside an explicit transaction, a
        :class:`TransactionAbortedError` from a write-write conflict aborts
        the whole transaction.
        """
        self._check_open()
        db = self.db
        statement = db._parse_cached(sql)
        control = _CONTROL.get(type(statement))
        if control is not None:
            control(self, statement)
            return ResultSet()

        autocommit = not self.in_transaction
        if autocommit:
            self.begin()
        tx = self._tx
        try:
            with db._latch:
                if (
                    not autocommit
                    and tx.isolation == IsolationLevel.READ_COMMITTED
                ):
                    db.txmanager.refresh_snapshot(tx)
                plan = db._plan(sql, statement)
                # checked once here, so a plan indexes params unchecked
                params = tuple(params)
                if len(params) < statement.param_count:
                    raise SQLError(
                        "statement requires at least {} parameters, got {}"
                        .format(statement.param_count, len(params))
                    )
                result = plan(self, tx, params)
        except TransactionAbortedError:
            self.db.txmanager.abort(tx)
            self._tx = None
            raise
        except Exception:
            if autocommit:
                self.db.txmanager.abort(tx)
                self._tx = None
            raise
        if autocommit:
            self.commit()
        return result

    def query_one(self, sql, params=()):
        """Convenience: run a SELECT and return its first row or ``None``."""
        return self.execute(sql, params).first()

    def query_scalar(self, sql, params=()):
        """Convenience: run a SELECT and return the first row's first value."""
        return self.execute(sql, params).scalar()

    def _create_table(self, statement):
        columns = [
            Column(
                col.name,
                type_by_name(col.type_name),
                nullable=not col.not_null,
            )
            for col in statement.columns
        ]
        schema = TableSchema(statement.table, columns, statement.primary_key)
        self.db.create_table(schema, statement.if_not_exists)


#: statements that run outside any plan: transaction control and DDL
_CONTROL = {
    ast.Begin: lambda connection, statement: connection.begin(),
    ast.Commit: lambda connection, statement: connection.commit(),
    ast.Rollback: lambda connection, statement: connection.rollback(),
    ast.CreateTable: Connection._create_table,
    ast.DropTable: lambda connection, statement: connection.db.drop_table(
        statement.table, statement.if_exists
    ),
    ast.CreateIndex: lambda connection, statement: connection.db.create_index(
        statement.name, statement.table, statement.columns
    ),
}
