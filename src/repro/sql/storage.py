"""Versioned row storage: the heap of a single table.

Every logical row is a chain of :class:`RowVersion` objects ordered oldest
to newest.  ``INSERT`` appends a first version; ``UPDATE`` marks the
current version deleted (``xmax``) and appends a successor; ``DELETE``
marks the current version deleted.  Aborted transactions leave their
versions in place -- visibility rules make them unreachable -- until
:meth:`TableStorage.vacuum` reclaims them.

Statement atomicity is provided by the engine latch; this module assumes
each public method runs latched and focuses on version-chain correctness.
"""

import itertools

from repro.errors import IntegrityError, TransactionAbortedError
from repro.sql.mvcc import Visibility


class RowVersion:
    """One version of a logical row."""

    __slots__ = ("values", "xmin", "xmax")

    def __init__(self, values, xmin):
        self.values = values
        self.xmin = xmin
        self.xmax = None

    def __repr__(self):
        return "RowVersion(xmin={}, xmax={}, values={!r})".format(
            self.xmin, self.xmax, self.values
        )


class LogicalRow:
    """A rowid plus its version chain (oldest first)."""

    __slots__ = ("rowid", "versions")

    def __init__(self, rowid, first_version):
        self.rowid = rowid
        self.versions = [first_version]

    def newest(self):
        return self.versions[-1]


class TableStorage:
    """Heap + version chains + primary-key enforcement for one table."""

    def __init__(self, schema, txmanager):
        self.schema = schema
        self._visibility = Visibility(txmanager)
        self._rows = {}
        self._rowid_counter = itertools.count(1)
        #: pk tuple -> set of rowids whose chains ever held that pk: like a
        #: secondary index, a superset that the uniqueness check and the
        #: plans' point lookups recheck, so stale entries are safe.
        self._pk_rowids = {}
        #: Secondary indexes attached by the engine (see indexes.py).
        self.indexes = []

    # -- reads ---------------------------------------------------------------

    def visible_version(self, tx, logical_row):
        """Return the version of ``logical_row`` visible to ``tx``/None."""
        # Newest-first: at most one version of a chain is visible to any
        # snapshot, and recent versions are the common case.
        for version in reversed(logical_row.versions):
            if self._visibility.version_visible(version, tx):
                return version
        return None

    def read(self, tx, rowid):
        """Visible values tuple for ``rowid`` or ``None``."""
        logical_row = self._rows.get(rowid)
        if logical_row is None:
            return None
        version = self.visible_version(tx, logical_row)
        return version.values if version is not None else None

    def scan(self, tx):
        """Yield ``(rowid, values)`` for every row visible to ``tx``."""
        for rowid, logical_row in list(self._rows.items()):
            version = self.visible_version(tx, logical_row)
            if version is not None:
                yield rowid, version.values

    def pk_probe(self, pk):
        """Candidate rowids for the exact primary-key tuple (superset)."""
        return self._pk_rowids.get(pk, ())

    def scan_rowids(self, tx, rowids):
        """Like :meth:`scan` but restricted to candidate ``rowids``."""
        for rowid in rowids:
            logical_row = self._rows.get(rowid)
            if logical_row is None:
                continue
            version = self.visible_version(tx, logical_row)
            if version is not None:
                yield rowid, version.values

    # -- conflict helpers ------------------------------------------------------

    def _version_potentially_live(self, version, tx):
        """Could ``version`` exist from the viewpoint of a future commit?

        Used for uniqueness: a version invisible to ``tx`` may still belong
        to an active transaction or have been committed after ``tx``'s
        snapshot; inserting a duplicate would then break uniqueness under
        first-committer-wins, so the inserter must abort.
        """
        if self._visibility.aborted(version.xmin):
            return False
        if version.xmax is None:
            return True
        # The delete might still abort; the version is then live again.
        return not self._visibility.committed(version.xmax)

    def _check_pk_unique(self, tx, pk, ignore_rowid=None):
        if pk is None:
            return
        for rowid in self._pk_rowids.get(pk, ()):
            if rowid == ignore_rowid:
                continue
            logical_row = self._rows.get(rowid)
            if logical_row is None:
                continue
            for version in logical_row.versions:
                if self.schema.pk_value(version.values) != pk:
                    continue
                if self._visibility.version_visible(version, tx):
                    raise IntegrityError(
                        "duplicate primary key {!r} in table {!r}".format(
                            pk, self.schema.name
                        )
                    )
                if self._version_potentially_live(version, tx):
                    raise TransactionAbortedError(
                        "primary key {!r} in table {!r} contended by a "
                        "concurrent transaction".format(pk, self.schema.name)
                    )

    # -- writes --------------------------------------------------------------

    def insert(self, tx, values):
        """Insert a new logical row; returns its rowid."""
        tx.ensure_active()
        pk = self.schema.pk_value(values)
        self._check_pk_unique(tx, pk)
        rowid = next(self._rowid_counter)
        version = RowVersion(values, tx.txid)
        self._rows[rowid] = LogicalRow(rowid, version)
        if pk is not None:
            self._pk_rowids.setdefault(pk, set()).add(rowid)
        tx.write_set.add((self.schema.name, rowid))
        tx.created_versions.append((self.schema.name, rowid, version))
        for index in self.indexes:
            index.add(rowid, values)
        return rowid

    def _writable_version(self, tx, rowid):
        """Locate the visible version of ``rowid`` and enforce W-W rules.

        Aborts ``tx`` (raises :class:`TransactionAbortedError`) when the row
        was updated or deleted by a concurrent transaction -- the
        first-updater-wins realization of snapshot isolation.
        """
        logical_row = self._rows.get(rowid)
        if logical_row is None:
            return None, None
        version = self.visible_version(tx, logical_row)
        if version is None:
            return logical_row, None
        if self._visibility.latest_committed_conflicts(version, tx):
            raise TransactionAbortedError(
                "write-write conflict on row {} of table {!r}".format(
                    rowid, self.schema.name
                )
            )
        if logical_row.newest() is not version:
            # A newer version exists that we cannot see: a concurrent
            # transaction already updated the row past our snapshot.
            newest = logical_row.newest()
            if not self._visibility.aborted(newest.xmin):
                raise TransactionAbortedError(
                    "row {} of table {!r} was updated by a concurrent "
                    "transaction".format(rowid, self.schema.name)
                )
        return logical_row, version

    def update(self, tx, rowid, new_values):
        """Replace the visible version of ``rowid`` with ``new_values``.

        Returns ``(old_values, new_values)`` or ``None`` when the row is
        not visible to ``tx``.
        """
        tx.ensure_active()
        logical_row, version = self._writable_version(tx, rowid)
        if version is None:
            return None
        new_pk = self.schema.pk_value(new_values)
        old_pk = self.schema.pk_value(version.values)
        if new_pk != old_pk:
            self._check_pk_unique(tx, new_pk, ignore_rowid=rowid)
        version.xmax = tx.txid
        successor = RowVersion(new_values, tx.txid)
        logical_row.versions.append(successor)
        if new_pk is not None and new_pk != old_pk:
            self._pk_rowids.setdefault(new_pk, set()).add(rowid)
        tx.write_set.add((self.schema.name, rowid))
        tx.deleted_versions.append((self.schema.name, rowid, version))
        tx.created_versions.append((self.schema.name, rowid, successor))
        for index in self.indexes:
            index.add(rowid, new_values)
        return version.values, new_values

    def delete(self, tx, rowid):
        """Mark the visible version of ``rowid`` deleted.

        Returns the deleted values tuple or ``None`` when invisible.
        """
        tx.ensure_active()
        logical_row, version = self._writable_version(tx, rowid)
        if version is None:
            return None
        version.xmax = tx.txid
        tx.write_set.add((self.schema.name, rowid))
        tx.deleted_versions.append((self.schema.name, rowid, version))
        return version.values

    # -- maintenance -----------------------------------------------------------

    def vacuum(self, horizon, named=None):
        """Physically drop versions no snapshot at/after ``horizon`` can see.

        Returns the number of versions reclaimed.  Empty chains are removed
        from the heap, the pk map and the indexes.  What the surviving
        versions carry as ``xmin``/``xmax`` (txids, and ``None`` for "not
        deleted") is added to the set ``named``.
        """
        reclaimed = 0
        dead_rowids = []
        for rowid, logical_row in self._rows.items():
            keep = [
                v
                for v in logical_row.versions
                if not self._visibility.version_dead_for_all(v, horizon)
            ]
            reclaimed += len(logical_row.versions) - len(keep)
            logical_row.versions = keep
            if not keep:
                dead_rowids.append(rowid)
            elif named is not None:
                for version in keep:
                    named.add(version.xmin)
                    named.add(version.xmax)
        for rowid in dead_rowids:
            del self._rows[rowid]
        if dead_rowids:
            dead = set(dead_rowids)
            for pk, rowids in list(self._pk_rowids.items()):
                rowids -= dead
                if not rowids:
                    del self._pk_rowids[pk]
            for index in self.indexes:
                index.drop_rowids(dead)
        return reclaimed

    def version_count(self):
        """Total stored versions (diagnostics for vacuum tests)."""
        return sum(len(r.versions) for r in self._rows.values())

    def row_count(self):
        """Number of logical rows in the heap (any visibility)."""
        return len(self._rows)
