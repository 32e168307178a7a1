"""Stateful differentials for the SQL engine.

Two modes, both derandomized so a red run reproduces anywhere:

* **engine vs a plain-Python model** -- up to three connections begin,
  write, read through every access path, commit, roll back and vacuum in
  any order.  The model is committed states plus per-transaction
  overlays; it predicts every result set, every first-updater-wins abort
  and every primary-key refusal.  Reclamation (explicit and amortised --
  the floor is lowered so the commit path triggers it) may happen between
  any two steps and must change nothing a snapshot can observe.
* **engine vs stdlib sqlite3** -- one autocommit session runs the BG
  statement shapes against both and compares rows, counts and refusals.
"""

import itertools
import sqlite3

import hypothesis.strategies as st
from hypothesis import given, settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.bg.schema import create_bg_database
from repro.errors import IntegrityError, TransactionAbortedError
from repro.sql import engine
from repro.sql.engine import Database
from repro.sql.wal import ddl_for_index, ddl_for_schema

FIXED = settings(derandomize=True, database=None, deadline=None)

OK, DUPLICATE, ABORT = "ok", "duplicate", "abort"


class ModelTx:
    def __init__(self, snap_seq, snapshot):
        self.snap_seq = snap_seq
        #: uid -> (stamp, row) as committed when the transaction began
        self.snapshot = snapshot
        #: uid -> (stamp, row) written here, or None when deleted here
        self.overlay = {}
        #: (uid, stamp, pk) of every version this transaction created
        self.created = []


class Model:
    """Snapshot isolation over logical rows, without version chains."""

    def __init__(self):
        self.seq = 0
        self.committed = {}
        self.last_write = {}
        self.locks = {}
        self.active = []
        self._uids = itertools.count(1)
        self._stamps = itertools.count(1)

    def begin(self):
        tx = ModelTx(self.seq, dict(self.committed))
        self.active.append(tx)
        return tx

    def view(self, tx):
        """uid -> row as ``tx`` sees the table (``None``: latest commit)."""
        if tx is None:
            return {uid: row for uid, (_s, row) in self.committed.items()}
        rows = {uid: row for uid, (_s, row) in tx.snapshot.items()}
        for uid, version in tx.overlay.items():
            if version is None:
                rows.pop(uid, None)
            else:
                rows[uid] = version[1]
        return rows

    def conflicts(self, tx, uid):
        holder = self.locks.get(uid)
        return (holder is not None and holder is not tx) or (
            self.last_write.get(uid, 0) > tx.snap_seq
        )

    def pk_outcomes(self, tx, pk, ignore_uid=None):
        """What inserting ``pk`` (or moving a row onto it) may raise."""
        in_view = any(
            row[0] == pk
            for uid, row in self.view(tx).items() if uid != ignore_uid
        )
        contended = False
        for other in self.active:
            for uid, stamp, created_pk in other.created:
                if created_pk != pk or uid == ignore_uid:
                    continue
                current = other.overlay.get(uid)
                if other is tx and current is not None \
                        and current[0] == stamp:
                    continue  # tx's own live version: counted in_view
                contended = True
        for uid, (stamp, row) in self.committed.items():
            if row[0] != pk or uid == ignore_uid:
                continue
            seen = tx.snapshot.get(uid)
            if uid in tx.overlay or seen is None or seen[0] != stamp:
                contended = True
        outcomes = set()
        if in_view:
            outcomes.add(DUPLICATE)
        if contended:
            outcomes.add(ABORT)
        return outcomes or {OK}

    def write(self, tx, uid, row):
        """Install ``row`` (``None`` deletes) as tx's version of ``uid``."""
        if row is None:
            tx.overlay[uid] = None
        else:
            stamp = next(self._stamps)
            tx.overlay[uid] = (stamp, row)
            tx.created.append((uid, stamp, row[0]))
        if uid in self.committed:
            self.locks[uid] = tx

    def insert(self, tx, row):
        self.write(tx, next(self._uids), row)

    def finish(self, tx, commit):
        self.active.remove(tx)
        for uid in [u for u, holder in self.locks.items() if holder is tx]:
            del self.locks[uid]
        if not commit or not tx.overlay:
            return
        self.seq += 1
        for uid, version in tx.overlay.items():
            if version is None:
                self.committed.pop(uid, None)
            else:
                self.committed[uid] = version
            self.last_write[uid] = self.seq


CONNS = st.integers(0, 2)
IDS = st.integers(0, 3)
GROUPS = st.integers(0, 2)
VALS = st.integers(0, 3)
SELECT = "SELECT id, grp, val FROM t"


class EngineVsModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self._floor = engine.VACUUM_FLOOR
        engine.VACUUM_FLOOR = 8
        self.db = Database()
        setup = self.db.connect()
        setup.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, val INTEGER)"
        )
        setup.execute("CREATE INDEX t_by_grp ON t (grp)")
        setup.execute("CREATE INDEX t_by_grp_val ON t (grp, val)")
        setup.close()
        self.storage = self.db.storage("t")
        self.conns = [self.db.connect() for _ in range(3)]
        self.txs = [None, None, None]
        self.model = Model()

    def teardown(self):
        engine.VACUUM_FLOOR = self._floor
        for c, tx in enumerate(self.txs):
            if tx is not None:
                self.conns[c].rollback()
                self.model.finish(tx, commit=False)
        self.db.vacuum()
        # With nobody looking, exactly the committed rows are stored.
        assert self.storage.version_count() == len(self.model.committed)
        assert self._engine_rows(self.conns[0], SELECT) == sorted(
            self.model.view(None).values()
        )
        # ... each naming its creator and at most one rolled-back deleter.
        assert self.db.txmanager.record_count() <= 2 * len(
            self.model.committed
        )

    # -- transaction control -------------------------------------------------

    @rule(c=CONNS)
    def begin(self, c):
        if self.txs[c] is None:
            self.conns[c].begin()
            self.txs[c] = self.model.begin()

    @rule(c=CONNS, commit=st.booleans())
    def finish(self, c, commit):
        tx = self.txs[c]
        if tx is None:
            return
        if commit:
            self.conns[c].commit()
        else:
            self.conns[c].rollback()
        self.model.finish(tx, commit)
        self.txs[c] = None

    @rule()
    def vacuum(self):
        self.db.vacuum()

    # -- writes ------------------------------------------------------------------

    def _dml(self, c, sql, params, plan):
        """Run one DML statement on both sides.

        ``plan(tx)`` inspects the model and returns ``(outcomes, apply)``:
        the outcomes the engine may show and the mutation to make when it
        shows ``OK`` (returning the expected rowcount).
        """
        explicit = self.txs[c] is not None
        tx = self.txs[c] if explicit else self.model.begin()
        outcomes, apply = plan(tx)
        try:
            got, rowcount = OK, self.conns[c].execute(sql, params).rowcount
        except IntegrityError:
            got = DUPLICATE
        except TransactionAbortedError:
            got = ABORT
        assert got in outcomes, (sql, params, got, outcomes)
        if got == OK:
            assert rowcount == apply()
        if got == ABORT or (got == DUPLICATE and not explicit):
            self.model.finish(tx, commit=False)
            self.txs[c] = None
        elif not explicit:
            self.model.finish(tx, commit=True)
        assert self.conns[c].in_transaction == (self.txs[c] is not None)

    def _targets(self, tx, column, value):
        return [
            uid for uid, row in self.model.view(tx).items()
            if row[column] == value
        ]

    @rule(c=CONNS, row=st.tuples(IDS, GROUPS, VALS))
    def insert(self, c, row):
        def plan(tx):
            def apply():
                self.model.insert(tx, row)
                return 1
            return self.model.pk_outcomes(tx, row[0]), apply

        self._dml(c, "INSERT INTO t (id, grp, val) VALUES (?, ?, ?)", row,
                  plan)

    @rule(c=CONNS, pk=IDS, new=st.tuples(IDS, GROUPS, VALS),
          move=st.booleans())
    def update_by_pk(self, c, pk, new, move):
        new = new if move else (pk,) + new[1:]

        def plan(tx):
            targets = self._targets(tx, 0, pk)
            outcomes = {OK}
            if targets and self.model.conflicts(tx, targets[0]):
                outcomes = {ABORT}
            elif targets and new[0] != pk:
                outcomes = self.model.pk_outcomes(tx, new[0], targets[0])

            def apply():
                for uid in targets:
                    self.model.write(tx, uid, new)
                return len(targets)
            return outcomes, apply

        self._dml(c, "UPDATE t SET id = ?, grp = ?, val = ? WHERE id = ?",
                  new + (pk,), plan)

    @rule(c=CONNS, grp=GROUPS)
    def update_by_index(self, c, grp):
        def plan(tx):
            targets = self._targets(tx, 1, grp)
            blocked = any(self.model.conflicts(tx, u) for u in targets)
            view = self.model.view(tx)

            def apply():
                for uid in targets:
                    row = view[uid]
                    self.model.write(tx, uid, row[:2] + (row[2] + 1,))
                return len(targets)
            return ({ABORT} if blocked else {OK}), apply

        self._dml(c, "UPDATE t SET val = val + 1 WHERE grp = ?", (grp,), plan)

    @rule(c=CONNS, pk=IDS)
    def delete_by_pk(self, c, pk):
        def plan(tx):
            targets = self._targets(tx, 0, pk)
            blocked = any(self.model.conflicts(tx, u) for u in targets)

            def apply():
                for uid in targets:
                    self.model.write(tx, uid, None)
                return len(targets)
            return ({ABORT} if blocked else {OK}), apply

        self._dml(c, "DELETE FROM t WHERE id = ?", (pk,), plan)

    # -- reads: every access path against a full scan and the model ------------

    @staticmethod
    def _engine_rows(connection, sql, params=()):
        return sorted(tuple(row) for row in connection.execute(sql, params))

    def _read(self, c, where, params, predicate, path):
        connection = self.conns[c]
        before = self.db.stats()
        got = self._engine_rows(connection, SELECT + " WHERE " + where, params)
        after = self.db.stats()
        assert after[path] == before[path] + 1, (where, path)
        scanned = [
            row for row in self._engine_rows(connection, SELECT)
            if predicate(row)
        ]
        expected = sorted(
            row for row in self.model.view(self.txs[c]).values()
            if predicate(row)
        )
        assert got == scanned == expected, (where, params)

    @rule(c=CONNS, pk=IDS)
    def select_by_pk(self, c, pk):
        self._read(c, "id = ?", (pk,), lambda r: r[0] == pk, "pk_probes")

    @rule(c=CONNS, pk=IDS, val=VALS)
    def select_by_pk_and_more(self, c, pk, val):
        self._read(c, "val = ? AND id = ?", (val, pk),
                   lambda r: r[0] == pk and r[2] == val, "pk_probes")

    @rule(c=CONNS, grp=GROUPS)
    def select_by_index(self, c, grp):
        self._read(c, "grp = ?", (grp,), lambda r: r[1] == grp,
                   "index_probes")

    @rule(c=CONNS, grp=GROUPS, val=VALS)
    def select_by_widest_index(self, c, grp, val):
        bucket = len(self.storage.indexes[1].probe((grp, val)))
        before = self.db.stats()["rows_examined"]
        self._read(c, "grp = ? AND val = ?", (grp, val),
                   lambda r: r[1] == grp and r[2] == val, "index_probes")
        # _read's comparison scan examines row_count() rows; the probe
        # itself may only have touched the (grp, val) bucket.
        examined = self.db.stats()["rows_examined"] - before
        assert examined == bucket + self.storage.row_count()

    @rule(c=CONNS, val=VALS)
    def select_without_access_path(self, c, val):
        self._read(c, "val >= ?", (val,), lambda r: r[2] >= val, "full_scans")

    # -- what must hold between any two steps ----------------------------------------

    @invariant()
    def stored_versions_name_only_remembered_transactions(self):
        txm = self.db.txmanager
        known = set(txm._active) | set(txm.commit_ts) | txm.aborted
        for logical_row in self.storage._rows.values():
            for version in logical_row.versions:
                assert version.xmin in known
                assert version.xmax is None or version.xmax in known

    @invariant()
    def pk_map_and_indexes_cover_every_stored_version(self):
        schema = self.storage.schema
        for rowid, logical_row in self.storage._rows.items():
            for version in logical_row.versions:
                pk = schema.pk_value(version.values)
                assert rowid in self.storage.pk_probe(pk)
                for index in self.storage.indexes:
                    assert rowid in index.probe(index.key_for(version.values))


TestEngineVsModel = EngineVsModel.TestCase
TestEngineVsModel.settings = settings(
    FIXED, max_examples=300, stateful_step_count=50
)


# -- mode 2: the BG statement shapes against sqlite3 ---------------------------------

MEMBERS = st.integers(0, 3)
RIDS = st.integers(0, 2)
MIDS = st.integers(0, 5)
STATUS = st.integers(1, 2)

#: every statement shape repro.bg.actions issues, with its operand domains
BG_SHAPES = [
    ("SELECT rid, mid FROM manipulations", ()),
    ("SELECT MAX(mid) FROM manipulations", ()),
    ("SELECT * FROM users WHERE userid = ?", (MEMBERS,)),
    ("SELECT pendingcount FROM users WHERE userid = ?", (MEMBERS,)),
    ("SELECT friendcount FROM users WHERE userid = ?", (MEMBERS,)),
    ("SELECT inviteeid FROM friendship WHERE inviterid = ? AND status = ?",
     (MEMBERS, STATUS)),
    ("SELECT inviterid FROM friendship WHERE inviteeid = ? AND status = ?",
     (MEMBERS, STATUS)),
    ("SELECT rid, creatorid, walluserid, type, body FROM resources"
     " WHERE walluserid = ? ORDER BY rid DESC LIMIT ?",
     (MEMBERS, st.integers(0, 3))),
    ("SELECT mid, creatorid, modifierid, timestamp, content"
     " FROM manipulations WHERE rid = ? ORDER BY mid", (RIDS,)),
    ("SELECT mid FROM manipulations WHERE rid = ?", (RIDS,)),
    ("SELECT MAX(mid) FROM manipulations WHERE rid = ?", (RIDS,)),
    ("INSERT INTO friendship (inviterid, inviteeid, status)"
     " VALUES (?, ?, ?)", (MEMBERS, MEMBERS, STATUS)),
    ("UPDATE friendship SET status = ?"
     " WHERE inviterid = ? AND inviteeid = ? AND status = ?",
     (STATUS, MEMBERS, MEMBERS, STATUS)),
    ("DELETE FROM friendship"
     " WHERE inviterid = ? AND inviteeid = ? AND status = ?",
     (MEMBERS, MEMBERS, STATUS)),
    ("UPDATE users SET pendingcount = pendingcount + 1 WHERE userid = ?",
     (MEMBERS,)),
    ("UPDATE users SET pendingcount = pendingcount - 1,"
     " friendcount = friendcount + 1 WHERE userid = ?", (MEMBERS,)),
    ("UPDATE users SET friendcount = friendcount - 1 WHERE userid = ?",
     (MEMBERS,)),
    ("INSERT INTO manipulations (mid, creatorid, rid, modifierid,"
     " timestamp, type, content) VALUES (?, ?, ?, ?, ?, ?, ?)",
     (MIDS, MEMBERS, RIDS, MEMBERS, st.just("2014-06-15"),
      st.just("comment"), st.just("..."))),
    ("UPDATE resources SET commentcount = commentcount + 1 WHERE rid = ?",
     (RIDS,)),
    ("UPDATE resources SET commentcount = commentcount - 1 WHERE rid = ?",
     (RIDS,)),
    ("DELETE FROM manipulations WHERE mid = ?", (MIDS,)),
]

BG_STATEMENTS = st.one_of([
    st.tuples(st.just(sql), st.tuples(*domains))
    for sql, domains in BG_SHAPES
])

BG_SEED_ROWS = [
    ("INSERT INTO users (userid, username, pendingcount, friendcount,"
     " resourcecount) VALUES (?, ?, 0, 0, 1)",
     [(member, "m{}".format(member)) for member in range(4)]),
    ("INSERT INTO resources (rid, creatorid, walluserid, type, body,"
     " commentcount) VALUES (?, ?, ?, 'image', 'b', 0)",
     [(rid, rid, rid % 2) for rid in range(3)]),
]


def _bg_pair():
    ours = create_bg_database()
    theirs = sqlite3.connect(":memory:", isolation_level=None)
    for name in ours.table_names():
        storage = ours.storage(name)
        theirs.execute(ddl_for_schema(storage.schema))
        for index in storage.indexes:
            theirs.execute(ddl_for_index(index))
    connection = ours.connect()
    for sql, rows in BG_SEED_ROWS:
        for params in rows:
            connection.execute(sql, params)
            theirs.execute(sql, params)
    return connection, theirs


def _run(execute, sql, params, refusal):
    try:
        result = execute(sql, params)
    except refusal:
        return "refused"
    rows = [tuple(row) for row in result]
    # Only ORDER BY fixes an order; every ordered shape sorts on a key.
    return result.rowcount, rows if "ORDER BY" in sql else sorted(rows)


@given(statements=st.lists(BG_STATEMENTS, max_size=40))
@settings(FIXED, max_examples=100)
def test_bg_statement_shapes_match_sqlite(statements):
    ours, theirs = _bg_pair()
    try:
        for sql, params in statements:
            mine = _run(ours.execute, sql, params, IntegrityError)
            reference = _run(theirs.execute, sql, params,
                             sqlite3.IntegrityError)
            if sql.startswith("SELECT") and mine != "refused":
                # sqlite3 reports rowcount -1 for a SELECT
                mine, reference = mine[1], reference[1]
            assert mine == reference, (sql, params)
    finally:
        theirs.close()
        ours.close()
