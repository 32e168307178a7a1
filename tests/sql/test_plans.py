"""Statement plans: compiled once per text, dropped on DDL, eager about
names, typed about errors, and on the access paths the engine chose
before plans existed."""

import types

import pytest

from repro.bg.harness import build_bg_system
from repro.bg.workload import EXTENDED_MIX, HIGH_WRITE_MIX
from repro.errors import SchemaError, SQLError
from repro.sql.parser import parse
from repro.sql.plans import compile_statement


@pytest.fixture
def t_db(db):
    connection = db.connect()
    connection.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, name TEXT)"
    )
    connection.close()
    return db


@pytest.fixture
def one_row_db(t_db):
    connection = t_db.connect()
    connection.execute("INSERT INTO t (id, n, name) VALUES (1, 10, 'ten')")
    connection.close()
    return t_db


# -- a wrong operand type is an SQLError, handled like any other ---------------

TYPE_ERRORS = {
    "comparison": ("SELECT id FROM t WHERE name < ?", (5,)),
    "arithmetic": ("UPDATE t SET n = n + ?", ("x",)),
    "division": ("SELECT n / ? AS q FROM t", (0,)),
    "between": ("SELECT id FROM t WHERE n BETWEEN ? AND ?", ("a", "b")),
    "like": ("SELECT id FROM t WHERE name LIKE ?", (5,)),
    "limit": ("SELECT id FROM t LIMIT ?", ("x",)),
}


@pytest.mark.parametrize("family", sorted(TYPE_ERRORS))
def test_type_error_in_autocommit_is_sql_error(one_row_db, family):
    sql, params = TYPE_ERRORS[family]
    connection = one_row_db.connect()
    with pytest.raises(SQLError):
        connection.execute(sql, params)
    # the statement's own transaction is gone, nothing it did stays
    assert not connection.in_transaction
    assert connection.query_scalar("SELECT n FROM t WHERE id = 1") == 10


@pytest.mark.parametrize("family", sorted(TYPE_ERRORS))
def test_type_error_in_transaction_is_sql_error(one_row_db, family):
    sql, params = TYPE_ERRORS[family]
    connection = one_row_db.connect()
    connection.begin()
    connection.execute("UPDATE t SET n = 11 WHERE id = 1")
    with pytest.raises(SQLError):
        connection.execute(sql, params)
    # as for a SchemaError: the transaction stays open and may commit
    assert connection.in_transaction
    connection.commit()
    assert connection.query_scalar("SELECT n FROM t WHERE id = 1") == 11


# -- names and parameter counts are checked before any row is read -------------

EAGER = {
    "unknown column": ("SELECT nosuch FROM t WHERE id = ?", (1,)),
    "unknown alias": ("SELECT zz.id FROM t WHERE id = ?", (1,)),
    "unknown SET column": ("UPDATE t SET nosuch = 1 WHERE id = ?", (1,)),
    # the second ? was never read: OR stopped at the first, and an
    # empty table reads neither
    "too few parameters": ("SELECT id FROM t WHERE id = ? OR n = ?", (1,)),
}


@pytest.mark.parametrize("populated", [False, True], ids=["empty", "matching"])
@pytest.mark.parametrize("case", sorted(EAGER))
def test_statement_is_checked_whatever_the_data(t_db, case, populated):
    sql, params = EAGER[case]
    connection = t_db.connect()
    if populated:
        connection.execute("INSERT INTO t (id, n, name) VALUES (1, 1, 'a')")
    with pytest.raises(SchemaError if "unknown" in case else SQLError):
        connection.execute(sql, params)
    assert not connection.in_transaction


# -- the plan cache ----------------------------------------------------------------


def test_steady_state_compiles_no_plans():
    system = build_bg_system(
        members=40, friends_per_member=4, resources_per_member=2,
        mix=EXTENDED_MIX, seed=5,
    )
    system.runner.run(threads=1, ops_per_thread=2000)
    warmed = system.db.stats()["plans_compiled"]
    system.runner.run(threads=1, ops_per_thread=2000)
    assert 0 < warmed == system.db.stats()["plans_compiled"]


def test_one_compile_per_statement_text(one_row_db):
    connection = one_row_db.connect()
    before = one_row_db.stats()["plans_compiled"]
    for row_id in range(5):
        connection.execute("SELECT name FROM t WHERE id = ?", (row_id,))
    connection.execute("SELECT name FROM t WHERE id = 1")
    assert one_row_db.stats()["plans_compiled"] == before + 2


def test_rows_of_a_plan_share_one_column_map(one_row_db):
    connection = one_row_db.connect()
    connection.execute("INSERT INTO t (id, n, name) VALUES (2, 20, 'x')")
    sql = "SELECT id, name FROM t ORDER BY id"
    first, second = connection.execute(sql).rows
    again = connection.execute(sql).rows[0]
    assert first._columns is second._columns is again._columns
    assert second == {"id": 2, "name": "x"} and second.NAME == "x"


@pytest.mark.parametrize("ddl", ["statement", "method"])
def test_create_index_replans_a_heap_scan(one_row_db, ddl):
    connection = one_row_db.connect()
    sql = "SELECT id FROM t WHERE n = ?"
    before = one_row_db.stats()
    assert connection.execute(sql, (10,)).rows == [(1,)]
    planned = one_row_db.stats()
    assert planned["full_scans"] == before["full_scans"] + 1
    if ddl == "statement":
        connection.execute("CREATE INDEX t_by_n ON t (n)")
    else:
        one_row_db.create_index("t_by_n", "t", ["n"])
    assert connection.execute(sql, (10,)).rows == [(1,)]
    after = one_row_db.stats()
    assert after["full_scans"] == planned["full_scans"]
    assert after["index_probes"] == planned["index_probes"] + 1


def test_recreated_table_never_reaches_the_dropped_storage(one_row_db):
    connection = one_row_db.connect()
    statements = {
        "select": "SELECT name FROM t WHERE id = ?",
        "scan": "SELECT name FROM t",
        "update": "UPDATE t SET n = n + 1 WHERE id = ?",
        "delete": "DELETE FROM t WHERE id = ?",
        "insert": "INSERT INTO t (id, n, name) VALUES (?, 0, 'x')",
    }
    connection.execute(statements["select"], (1,))
    connection.execute(statements["scan"])
    connection.execute(statements["update"], (1,))
    connection.execute(statements["insert"], (7,))
    connection.execute(statements["delete"], (7,))
    dropped = one_row_db.storage("t")
    connection.execute("DROP TABLE t")
    with pytest.raises(SchemaError):
        connection.execute(statements["select"], (1,))

    def untouchable(*args, **kwargs):
        raise AssertionError("a plan reached the dropped table")

    for method in ("scan", "scan_rowids", "pk_probe", "row_count", "insert",
                   "update", "delete"):
        setattr(dropped, method, untouchable)
    connection.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, n INTEGER, name TEXT)"
    )
    connection.execute(statements["insert"], (1,))
    assert connection.query_scalar(statements["select"], (1,)) == "x"
    assert connection.execute(statements["scan"]).rows == [("x",)]
    assert connection.execute(statements["update"], (1,)).rowcount == 1
    assert connection.execute(statements["delete"], (1,)).rowcount == 1


def closures_reachable(plan):
    """Functions reachable from ``plan`` through closure cells and the
    tuples and lists they hold."""
    seen, stack, count = set(), [plan], 0
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, types.FunctionType):
            count += 1
            stack.extend(cell.cell_contents for cell in item.__closure__ or ())
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return count


def test_insert_plan_size_follows_width_not_rows(t_db):
    def plan_for(rows):
        sql = "INSERT INTO t (id, n, name) VALUES " + ", ".join(
            ["(?, ?, 'x')"] * rows
        )
        return compile_statement(t_db, parse(sql))

    assert closures_reachable(plan_for(2)) == closures_reachable(plan_for(500))


def test_multi_row_insert_mixes_literals_params_and_computed_values(t_db):
    connection = t_db.connect()
    result = connection.execute(
        "INSERT INTO t (id, name, n) VALUES (?, 'a', 5), (2, ?, ? * 2),"
        " (?, ?, ?)",
        (1, "b", 7, 3, "c", None),
    )
    assert result.rowcount == 3
    rows = connection.execute("SELECT id, n, name FROM t ORDER BY id").rows
    assert [tuple(r) for r in rows] == [(1, 5, "a"), (2, 14, "b"),
                                         (3, None, "c")]


# -- access paths are the interpreter's, counter for counter ----------------------

#: ``Database.stats()`` access-path counters after 4000 single-threaded
#: actions of each mix (40 members, 4 friends, 2 resources, seed 11),
#: recorded on the tree-walking interpreter the plans replaced
PINNED_PATHS = {
    HIGH_WRITE_MIX.name: {
        "pk_probes": 2088, "index_probes": 987, "full_scans": 1,
        "rows_examined": 7102,
    },
    EXTENDED_MIX.name: {
        "pk_probes": 2352, "index_probes": 1442, "full_scans": 2,
        "rows_examined": 10266,
    },
}


@pytest.mark.parametrize("mix", [HIGH_WRITE_MIX, EXTENDED_MIX],
                         ids=lambda mix: mix.name)
def test_seeded_stream_takes_the_pinned_access_paths(mix):
    system = build_bg_system(
        members=40, friends_per_member=4, resources_per_member=2,
        mix=mix, seed=11,
    )
    system.runner.run(threads=1, ops_per_thread=4000)
    stats = system.db.stats()
    assert {key: stats[key] for key in PINNED_PATHS[mix.name]} \
        == PINNED_PATHS[mix.name]
    assert system.log.unpredictable_reads() == 0
