"""MVCC visibility rules for snapshot isolation.

A row version carries ``xmin`` (creating txid) and ``xmax`` (deleting
txid, or ``None``).  Visibility of a version to a reading transaction
follows the classic PostgreSQL-style rules:

* the creator must be the reader itself, or committed with a commit
  timestamp at or before the reader's snapshot;
* the deleter (if any) must be neither the reader itself nor committed at
  or before the reader's snapshot.

Every question asked here is about a *finished* writer, and is answered
from the manager's ``commit_ts`` map and ``aborted`` set without its
mutex (see :class:`~repro.sql.transactions.TransactionManager`): a txid
in neither is still open.
"""


class Visibility:
    """Evaluates version visibility against a transaction manager."""

    def __init__(self, txmanager):
        self._commit_ts_of = txmanager.commit_ts.get
        self._aborted = txmanager.aborted

    def _committed_before(self, txid, snapshot):
        """True when ``txid`` committed with commit_ts <= snapshot."""
        commit_ts = self._commit_ts_of(txid)
        return commit_ts is not None and commit_ts <= snapshot

    def committed(self, txid):
        return self._commit_ts_of(txid) is not None

    def aborted(self, txid):
        return txid in self._aborted

    def version_visible(self, version, tx):
        """Is ``version`` visible to reading transaction ``tx``?"""
        created_by_me = version.xmin == tx.txid
        if not created_by_me and not self._committed_before(
            version.xmin, tx.snapshot
        ):
            return False
        if version.xmax is None:
            return True
        deleted_by_me = version.xmax == tx.txid
        if deleted_by_me:
            return False
        if self._committed_before(version.xmax, tx.snapshot):
            return False
        return True

    def version_dead_for_all(self, version, horizon):
        """True when no current or future snapshot can see ``version``.

        Used by vacuum: a version is dead when its creator aborted, or when
        it was deleted by a transaction that committed at or before the
        garbage-collection ``horizon``.
        """
        if version.xmin in self._aborted:
            return True
        if version.xmax is None:
            return False
        return self._committed_before(version.xmax, horizon)

    def latest_committed_conflicts(self, version, tx):
        """Write-write conflict test on the version a writer targets.

        First-updater-wins: the writer may modify a version only if

        * nobody has marked it deleted (``xmax is None``), or the marker
          aborted -- otherwise a concurrent/committed writer beat us;

        The caller additionally verifies the version it read is still the
        newest in its chain (a newer committed version means a concurrent
        transaction already updated the row past our snapshot).
        """
        if version.xmax is None:
            return False
        if version.xmax == tx.txid:
            return False
        return version.xmax not in self._aborted
