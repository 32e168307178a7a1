"""An in-process relational engine with snapshot isolation.

The paper's races are *semantic* consequences of running an application
against an RDBMS that offers snapshot isolation (SI): a transaction's reads
all observe the database as of its begin time, so a cache-miss query can
compute a value that is already stale by the time it is inserted into the
KVS (Figure 3).  This package provides exactly those semantics:

* multi-version row storage (:mod:`repro.sql.storage`);
* transactions with begin-time snapshots and first-committer-wins
  write-write conflict detection (:mod:`repro.sql.transactions`,
  :mod:`repro.sql.mvcc`);
* a small SQL dialect -- ``CREATE TABLE``, ``CREATE INDEX``, ``SELECT``
  (single table or equi-join, ``WHERE``, ``ORDER BY``, ``LIMIT``,
  aggregates), ``INSERT``, ``UPDATE``, ``DELETE`` -- with ``?`` parameter
  binding (:mod:`repro.sql.parser`), each statement text compiled once
  into a cached plan (:mod:`repro.sql.plans`);
* hash secondary indexes with visibility recheck (:mod:`repro.sql.indexes`);
* row-level triggers, used to reproduce the paper's trigger-based KVS
  invalidation (:mod:`repro.sql.triggers`).

Entry point: :class:`repro.sql.engine.Database`.
"""

from repro.sql.clock import CommitClock
from repro.sql.engine import Connection, Database
from repro.sql.schema import Column, TableSchema
from repro.sql.transactions import IsolationLevel, TransactionStatus
from repro.sql.triggers import TriggerEvent

__all__ = [
    "Column",
    "CommitClock",
    "Connection",
    "Database",
    "IsolationLevel",
    "TableSchema",
    "TransactionStatus",
    "TriggerEvent",
]
