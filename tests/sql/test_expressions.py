"""Compiled expressions against the SQL truth tables.

Each expression is compiled once against a :class:`Scope` and the closure
is run on a storage tuple, the way statement plans use it.  The expected
values are the interpreter's: they did not change when evaluation moved
to plan time.
"""

import pytest

from repro.errors import SchemaError, SQLError
from repro.sql import expressions as ex
from repro.sql.engine import Database


def run(expr, row=None, params=()):
    """Compile ``expr`` over a table ``t`` holding ``row`` (a dict) and
    evaluate it on that row."""
    row = row or {}
    scope = ex.Scope([("t", list(row))])
    return expr.compile(scope)(tuple(row.values()), params)


def passes(where_sql):
    """Does a one-row table survive ``WHERE <where_sql>``?"""
    db = Database()
    connection = db.connect()
    connection.execute("CREATE TABLE t (id INTEGER)")
    connection.execute("INSERT INTO t (id) VALUES (1)")
    return bool(connection.execute("SELECT id FROM t WHERE " + where_sql).rows)


class TestLiteralAndParams:
    def test_literal(self):
        assert run(ex.Literal(42)) == 42

    def test_param_binding(self):
        assert run(ex.Param(1), params=("a", "b")) == "b"

    def test_missing_param_raises(self):
        # The count is checked when the plan runs, before any row is
        # read, so the empty table raises too.
        db = Database()
        connection = db.connect()
        connection.execute("CREATE TABLE t (id INTEGER)")
        with pytest.raises(SQLError):
            connection.execute(
                "SELECT id FROM t WHERE id = ? OR id = ? OR id = ?", ("only",)
            )


class TestColumnRef:
    def test_unqualified_lookup(self):
        assert run(ex.ColumnRef("x"), {"x": 5}) == 5

    def test_case_insensitive(self):
        assert run(ex.ColumnRef("NAME"), {"name": "n"}) == "n"

    def test_qualified_lookup(self):
        scope = ex.Scope([("a", ["x"]), ("b", ["x"])])
        assert ex.ColumnRef("x", qualifier="b").compile(scope)((1, 2), ()) == 2

    def test_unknown_column_raises(self):
        with pytest.raises(SchemaError):
            run(ex.ColumnRef("nope"), {"x": 1})

    def test_unknown_alias_raises(self):
        with pytest.raises(SchemaError):
            run(ex.ColumnRef("x", qualifier="zz"), {"x": 1})


class TestThreeValuedLogic:
    def test_comparison_with_null_is_null(self):
        expr = ex.Comparison("=", ex.Literal(None), ex.Literal(1))
        assert run(expr) is None

    def test_null_filtered_by_where(self):
        assert not passes("NULL")
        assert not passes("FALSE")
        assert passes("TRUE")

    def test_and_short_circuit_false(self):
        expr = ex.And(ex.Literal(False), ex.Literal(None))
        assert run(expr) is False

    def test_and_with_null(self):
        expr = ex.And(ex.Literal(True), ex.Literal(None))
        assert run(expr) is None

    def test_or_short_circuit_true(self):
        expr = ex.Or(ex.Literal(True), ex.Literal(None))
        assert run(expr) is True

    def test_or_with_null(self):
        expr = ex.Or(ex.Literal(False), ex.Literal(None))
        assert run(expr) is None

    def test_not_null_is_null(self):
        assert run(ex.Not(ex.Literal(None))) is None

    def test_is_null(self):
        assert run(ex.IsNull(ex.Literal(None))) is True
        assert run(ex.IsNull(ex.Literal(1), negate=True)) is True

    def test_in_list(self):
        expr = ex.InList(ex.Literal(2), [ex.Literal(1), ex.Literal(2)])
        assert run(expr) is True
        expr = ex.InList(ex.Literal(None), [ex.Literal(1)])
        assert run(expr) is None


class TestArithmetic:
    def test_operations(self):
        pairs = {
            "+": 7, "-": 3, "*": 10, "%": 1,
        }
        for op, expected in pairs.items():
            expr = ex.Arithmetic(op, ex.Literal(5), ex.Literal(2))
            assert run(expr) == expected
        assert run(ex.Arithmetic("/", ex.Literal(5), ex.Literal(2))) == 2.5

    def test_null_propagates(self):
        expr = ex.Arithmetic("+", ex.Literal(None), ex.Literal(1))
        assert run(expr) is None

    def test_unknown_operator_rejected(self):
        with pytest.raises(SQLError):
            ex.Arithmetic("**", ex.Literal(1), ex.Literal(2))


class TestPlanningHelpers:
    def test_conjuncts_flatten(self):
        expr = ex.And(
            ex.And(ex.Literal(True), ex.Literal(True)), ex.Literal(False)
        )
        assert len(ex.conjuncts(expr)) == 3
        assert ex.conjuncts(None) == []

    def test_equality_bindings_extracts_constant_equalities(self):
        where = ex.And(
            ex.Comparison("=", ex.ColumnRef("a"), ex.Param(0)),
            ex.Comparison("=", ex.Literal(5), ex.ColumnRef("b", "t")),
        )
        bindings = ex.equality_bindings(where)
        names = sorted(((q or "", c) for q, c, _ in bindings))
        assert names == [("", "a"), ("t", "b")]

    def test_column_to_column_equality_not_extracted(self):
        where = ex.Comparison("=", ex.ColumnRef("a"), ex.ColumnRef("b"))
        assert ex.equality_bindings(where) == []

    def test_non_equality_not_extracted(self):
        where = ex.Comparison("<", ex.ColumnRef("a"), ex.Literal(5))
        assert ex.equality_bindings(where) == []
