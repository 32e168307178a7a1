"""Stateful differentials for the SQL engine.

Three modes, all derandomized so a red run reproduces anywhere:

* **engine vs a plain-Python model** -- up to three connections begin,
  write, read through every access path, commit, roll back and vacuum in
  any order.  The model is committed states plus per-transaction
  overlays; it predicts every result set, every first-updater-wins abort
  and every primary-key refusal.  Reclamation (explicit and amortised --
  the floor is lowered so the commit path triggers it) may happen between
  any two steps and must change nothing a snapshot can observe.
* **engine vs stdlib sqlite3** -- one autocommit session runs the BG
  statement shapes against both and compares rows, counts and refusals.
* **the dialect vs stdlib sqlite3** -- generated statements over two
  tables with NULL-bearing data: joins (hash and nested loop), GROUP BY /
  HAVING, aggregates, DISTINCT, ORDER BY / LIMIT, LIKE, BETWEEN, IN,
  IS NULL, arithmetic, multi-row INSERT, UPDATE and DELETE.  Where the
  dialects differ by design the statement is rendered twice or kept to
  common ground; the list is beside the generator.
"""

import itertools
import re
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


# -- mode 3: generated statements over the whole dialect against sqlite3 -------------
#
# Where the two dialects differ by design, each statement is rendered
# once per side or kept to their common ground:
#
# * NULL ordering: NULLs sort last ascending and first descending here;
#   sqlite3's text says NULLS LAST / NULLS FIRST.
# * ``/`` is true division here; sqlite3's text casts the dividend to
#   REAL.  Divisors are non-zero literals (x / 0 is an SQLError here and
#   NULL there), and ``%`` takes a column that is never negative
#   (Python and C disagree on the sign of a negative remainder).
# * LIKE is case-sensitive here; sqlite3 runs with
#   ``PRAGMA case_sensitive_like = ON``.
# * Mixed-type comparison is an SQLError here and compares storage
#   classes there: integer expressions meet integer expressions, text
#   meets text.
# * Typed columns refuse what sqlite3's affinity stores (2.5 in an
#   INTEGER column), so SET assigns integer expressions without ``/``.
# * ``x IN (1, NULL)`` is FALSE here for x = 2 and NULL there: IN lists
#   hold no NULL.
# * A WHERE keeps a row only for a genuine TRUE here (``WHERE x`` never
#   passes an integer): predicates are comparisons and their
#   combinations, never bare values.
# * A constant integer in ORDER BY names a result column in sqlite3:
#   every sort key reads a column.
# * Ties are unordered in sqlite3: every ORDER BY ends in a unique key,
#   LIMIT comes only with an ORDER BY, other results compare sorted.
# * A grouped select list names only its group key and aggregates, and
#   plain columns never sit beside an aggregate without GROUP BY.

DIALECT_DDL = (
    "CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER, y INTEGER, s TEXT)",
    "CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, z INTEGER, s TEXT)",
    "CREATE INDEX a_by_x ON a (x)",
    "CREATE INDEX b_by_aid ON b (aid)",
    "CREATE INDEX b_by_aid_z ON b (aid, z)",
)

DIALECT_SEED = (
    ("INSERT INTO a (id, x, y, s) VALUES (?, ?, ?, ?)", [
        (0, 0, 3, "ab"), (1, 1, None, "Ab"), (2, None, 1, None),
        (3, 1, 4, "b_c"), (4, 2, 2, "x%y"),
    ]),
    ("INSERT INTO b (id, aid, z, s) VALUES (?, ?, ?, ?)", [
        (0, 0, 1, "a"), (1, 1, None, "ab"), (2, 1, 2, None),
        (3, None, 0, ""), (4, 3, 2, "Ab"),
    ]),
)

SMALL = st.integers(0, 4)
TEXTS = st.sampled_from(["ab", "Ab", "b_c", "x%y", "a", ""])
PATTERNS = st.sampled_from(["a%", "A%", "%b%", "_b", "%y", "%", "ab", "b_c"])
COMPARE = st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="])


def piece(ours, theirs=None, params=()):
    """A fragment of a statement: our text, sqlite3's, its parameters."""
    return ours, ours if theirs is None else theirs, tuple(params)


def splice(template, *parts, theirs=None):
    """Fill the ``{}`` slots of ``template`` (sqlite3: ``theirs``)."""
    return (
        template.format(*(part[0] for part in parts)),
        (theirs or template).format(*(part[1] for part in parts)),
        sum((part[2] for part in parts), ()),
    )


def quoted(text):
    return piece("'{}'".format(text.replace("'", "''")))


def bound(value):
    return piece("?", params=(value,))


def int_exprs(columns, never_negative, divide=True):
    leaves = st.one_of(
        st.sampled_from(columns).map(piece),
        SMALL.map(lambda value: piece(str(value))),
        (st.none() | SMALL).map(bound),
        st.just(piece("NULL")),
        st.tuples(st.sampled_from(never_negative), st.integers(1, 3)).map(
            lambda t: piece("({} % {})".format(*t))
        ),
    )

    def grow(inner):
        options = [
            st.tuples(inner, st.sampled_from("+-*"), inner).map(
                lambda t: splice("({} " + t[1] + " {})", t[0], t[2])
            ),
            inner.map(lambda e: splice("(-{})", e)),
        ]
        if divide:
            options.append(st.tuples(inner, st.integers(1, 3)).map(
                lambda t: splice(
                    "({} / %d)" % t[1], t[0],
                    theirs="(CAST({} AS REAL) / %d)" % t[1],
                )
            ))
        return st.one_of(options)
    return st.recursive(leaves, grow, max_leaves=4)


def text_exprs(columns):
    return st.one_of(
        st.sampled_from(columns).map(piece),
        TEXTS.map(quoted),
        (st.none() | TEXTS).map(bound),
        st.just(piece("NULL")),
    )


def predicates(ints, texts, text_columns):
    def negatable(template, negated):
        return lambda t: splice(negated if t[-1] else template, *t[:-1])

    leaves = st.one_of(
        st.tuples(ints, COMPARE, ints).map(
            lambda t: splice("({} " + t[1] + " {})", t[0], t[2])
        ),
        st.tuples(texts, COMPARE, texts).map(
            lambda t: splice("({} " + t[1] + " {})", t[0], t[2])
        ),
        st.tuples(ints | texts, st.booleans()).map(
            negatable("({} IS NULL)", "({} IS NOT NULL)")
        ),
        st.tuples(
            st.sampled_from(text_columns).map(piece),
            PATTERNS.map(quoted) | (st.none() | PATTERNS).map(bound),
            st.booleans(),
        ).map(negatable("({} LIKE {})", "({} NOT LIKE {})")),
        st.tuples(ints, ints, ints, st.booleans()).map(
            negatable("({} BETWEEN {} AND {})", "({} NOT BETWEEN {} AND {})")
        ),
        st.tuples(
            ints,
            st.lists(SMALL, min_size=1, max_size=3).map(
                lambda values: piece(", ".join(map(str, values)))
            ),
            st.booleans(),
        ).map(negatable("({} IN ({}))", "({} NOT IN ({}))")),
        st.sampled_from(["TRUE", "FALSE", "NULL"]).map(piece),
    )

    def grow(inner):
        return st.one_of(
            inner.map(lambda p: splice("(NOT {})", p)),
            st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
                lambda t: splice("({} " + t[1] + " {})", t[0], t[2])
            ),
        )
    return st.recursive(leaves, grow, max_leaves=4)


def order_by(keys, tiebreak):
    """``ORDER BY`` over ``(expr, descending)`` pairs then the unique
    ``tiebreak`` columns, NULL placement spelled out for sqlite3."""
    parts = []
    for key, descending in list(keys) + [(piece(c), False) for c in tiebreak]:
        if descending:
            parts.append(splice("{} DESC", key, theirs="{} DESC NULLS FIRST"))
        else:
            parts.append(splice("{} ASC", key, theirs="{} ASC NULLS LAST"))
    return splice(" ORDER BY " + ", ".join(["{}"] * len(parts)), *parts)


def optional(clause_strategy, template):
    return st.none() | clause_strategy.map(lambda p: splice(template, p))


def glue(*parts):
    """Concatenate fragments, skipping absent (``None``) clauses."""
    parts = [part for part in parts if part is not None]
    return splice("{}" * len(parts), *parts)


A_INTS = int_exprs(["id", "x", "y"], ["id", "x"])
A_TEXTS = text_exprs(["s"])
A_WHERE = predicates(A_INTS, A_TEXTS, ["s"])
SORT_KEYS = (A_INTS | A_TEXTS).filter(
    lambda e: re.search(r"\b(id|x|y|s)\b", re.sub(r"'[^']*'", "", e[0]))
)


@st.composite
def single_table_selects(draw):
    items = draw(st.just([piece("*")]) | st.lists(A_INTS | A_TEXTS,
                                                  min_size=1, max_size=3))
    head = splice("SELECT " + ", ".join(["{}"] * len(items)) + " FROM a",
                  *items)
    where = draw(optional(A_WHERE, " WHERE {}"))
    keys = draw(st.lists(st.tuples(SORT_KEYS, st.booleans()), max_size=2))
    limit = draw(st.none() | st.integers(0, 4))
    ordered = bool(keys) or limit is not None
    tail = []
    if ordered:
        tail.append(order_by(keys, ["id"]))
    if limit is not None:
        tail.append(piece(" LIMIT {}".format(limit)))
    return glue(head, where, *tail) + (ordered,)


JOIN_CONDITIONS = st.sampled_from([
    "a.id = b.aid", "b.aid = a.id", "a.x = b.z", "a.x = (b.z + 1)",
    "a.x < b.z", "((a.x = b.z) OR (a.id = b.aid))",
])
JOIN_INTS = int_exprs(
    ["a.id", "a.x", "a.y", "b.id", "b.aid", "b.z", "z", "aid"],
    ["a.id", "a.x", "b.id"],
)
JOIN_TEXTS = text_exprs(["a.s", "b.s"])


@st.composite
def join_selects(draw):
    third = draw(st.booleans())
    items = draw(st.just([piece("*")]) | st.lists(JOIN_INTS | JOIN_TEXTS,
                                                  min_size=1, max_size=3))
    source = " FROM a JOIN b ON " + draw(JOIN_CONDITIONS)
    tiebreak = ["a.id", "b.id"]
    if third:
        source += " INNER JOIN a c ON c.x = b.aid"
        tiebreak.append("c.id")
    head = splice("SELECT " + ", ".join(["{}"] * len(items)) + source,
                  *items)
    where = draw(optional(
        predicates(JOIN_INTS, JOIN_TEXTS, ["a.s", "b.s"]), " WHERE {}"
    ))
    ordered = draw(st.booleans())
    tail = [order_by([], tiebreak)] if ordered else []
    return glue(head, where, *tail) + (ordered,)


AGGREGATES = st.sampled_from([
    "COUNT(*)", "COUNT(y)", "SUM(x)", "SUM((y + 1))", "MIN(y)", "MAX(s)",
    "MIN(s)", "AVG(x)", "AVG(y)",
])


@st.composite
def aggregate_selects(draw):
    items = draw(st.lists(AGGREGATES, min_size=1, max_size=4))
    where = draw(optional(A_WHERE, " WHERE {}"))
    return glue(piece("SELECT " + ", ".join(items) + " FROM a"), where) \
        + (False,)


@st.composite
def grouped_selects(draw):
    key = draw(st.sampled_from(["x", "y", "s"]))
    head = piece(
        "SELECT {0}, COUNT(*) AS n, SUM(y) AS total, MAX(s) AS top FROM a"
        .format(key)
    )
    where = draw(optional(A_WHERE, " WHERE {}"))
    having = draw(st.none() | st.sampled_from([
        " HAVING n > 1", " HAVING total IS NULL", " HAVING top = 'ab'",
        " HAVING (n >= 1 AND total > 2)",
    ]).map(lambda clause: None if clause is None else piece(clause)))
    limit = draw(st.none() | st.integers(0, 3))
    tail = [order_by([], [key])]
    if limit is not None:
        tail.append(piece(" LIMIT {}".format(limit)))
    return glue(head, where, piece(" GROUP BY " + key), having, *tail) \
        + (True,)


@st.composite
def distinct_selects(draw):
    columns = draw(st.lists(st.sampled_from(["x", "y", "s"]), min_size=1,
                            max_size=3, unique=True))
    head = piece("SELECT DISTINCT " + ", ".join(columns) + " FROM a")
    where = draw(optional(A_WHERE, " WHERE {}"))
    ordered = draw(st.booleans())
    tail = []
    if ordered:
        keys = [(piece(c), draw(st.booleans())) for c in columns]
        tail.append(order_by(keys, []))
        limit = draw(st.none() | st.integers(0, 3))
        if limit is not None:
            tail.append(piece(" LIMIT {}".format(limit)))
    return glue(head, where, *tail) + (ordered,)


def literal(value):
    if value is None:
        return "NULL"
    if isinstance(value, str):
        return quoted(value)[0]
    return str(value)


A_ROWS = st.tuples(st.integers(0, 7), st.none() | SMALL, st.none() | SMALL,
                   st.none() | TEXTS)
B_ROWS = st.tuples(st.integers(0, 7), st.none() | st.integers(0, 7),
                   st.none() | SMALL, st.none() | TEXTS)
SET_INTS = int_exprs(["id", "x", "y"], ["id", "x"], divide=False)


@st.composite
def dml(draw):
    kind = draw(st.sampled_from(
        ["insert", "insert-b", "insert-many", "update", "update-b", "delete"]
    ))
    if kind == "insert":
        return piece("INSERT INTO a (id, x, y, s) VALUES (?, ?, ?, ?)",
                     params=draw(A_ROWS)) + (False,)
    if kind == "insert-b":
        return piece("INSERT INTO b (id, aid, z, s) VALUES (?, ?, ?, ?)",
                     params=draw(B_ROWS)) + (False,)
    if kind == "insert-many":
        rows = draw(st.lists(A_ROWS, min_size=1, max_size=3))
        values = ", ".join(
            "({})".format(", ".join(literal(v) for v in row)) for row in rows
        )
        return piece("INSERT INTO a (id, x, y, s) VALUES " + values) \
            + (False,)
    where = draw(optional(A_WHERE, " WHERE {}"))
    if kind == "delete":
        return glue(piece("DELETE FROM a"), where) + (False,)
    if kind == "update-b":
        value = draw(int_exprs(["id", "aid", "z"], ["id"], divide=False))
        return glue(splice("UPDATE b SET z = {}", value)) + (False,)
    assigned = [splice("y = {}", draw(SET_INTS))]
    if draw(st.booleans()):
        assigned.append(splice("s = {}", draw(A_TEXTS)))
    head = splice("UPDATE a SET " + ", ".join(["{}"] * len(assigned)),
                  *assigned)
    return glue(head, where) + (False,)


DIALECT_STATEMENTS = st.one_of(
    single_table_selects(), join_selects(), aggregate_selects(),
    grouped_selects(), distinct_selects(), dml(),
)


def _dialect_pair():
    ours = Database().connect()
    theirs = sqlite3.connect(":memory:", isolation_level=None)
    theirs.execute("PRAGMA case_sensitive_like = ON")
    for ddl in DIALECT_DDL:
        ours.execute(ddl)
        theirs.execute(ddl)
    for sql, rows in DIALECT_SEED:
        for params in rows:
            ours.execute(sql, params)
            theirs.execute(sql, params)
    return ours, theirs


def _comparable(row):
    return tuple(round(v, 9) if isinstance(v, float) else v for v in row)


def _null_safe(row):
    return tuple(part for value in row for part in (value is None, value))


def _dialect_run(execute, sql, params, ordered, refusal):
    try:
        result = execute(sql, params)
    except refusal:
        return "refused"
    rows = [_comparable(row) for row in result]
    if not ordered:
        rows.sort(key=_null_safe)
    if sql.startswith("SELECT"):
        return rows  # sqlite3 reports rowcount -1 for a SELECT
    return result.rowcount, rows


@given(statements=st.lists(DIALECT_STATEMENTS, min_size=1, max_size=25))
@settings(FIXED, max_examples=150)
def test_generated_statements_match_sqlite(statements):
    ours, theirs = _dialect_pair()
    try:
        for mine_sql, their_sql, params, ordered in statements:
            mine = _dialect_run(ours.execute, mine_sql, params, ordered,
                                IntegrityError)
            reference = _dialect_run(theirs.execute, their_sql, params,
                                     ordered, sqlite3.IntegrityError)
            assert mine == reference, (mine_sql, params)
        for table in ("a", "b"):
            everything = "SELECT * FROM {} ORDER BY id".format(table)
            assert _dialect_run(ours.execute, everything, (), True, ()) \
                == _dialect_run(theirs.execute, everything, (), True, ())
    finally:
        theirs.close()
        ours.close()
