import pytest

from repro.errors import ParseError
from repro.sql import ast
from repro.sql import expressions as ex
from repro.sql.parser import parse, tokenize


def constant(expr):
    """The value of an expression that reads no column or parameter."""
    return expr.compile(ex.Scope([]))(None, ())


class TestTokenizer:
    def test_keywords_are_case_insensitive(self):
        tokens = tokenize("SeLeCt * FrOm t")
        assert tokens[0].kind == "keyword" and tokens[0].value == "select"

    def test_string_escapes(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_numbers(self):
        tokens = tokenize("42 3.14 1e3")
        assert [t.value for t in tokens] == [42, 3.14, 1000.0]

    def test_junk_raises(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @ FROM t")


class TestCreateTable:
    def test_inline_primary_key(self):
        stmt = parse("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT)")
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.primary_key == ("id",)
        assert [c.name for c in stmt.columns] == ["id", "name"]

    def test_table_level_composite_key(self):
        stmt = parse(
            "CREATE TABLE f (a INTEGER, b INTEGER, PRIMARY KEY (a, b))"
        )
        assert stmt.primary_key == ("a", "b")

    def test_not_null(self):
        stmt = parse("CREATE TABLE t (id INTEGER NOT NULL)")
        assert stmt.columns[0].not_null

    def test_if_not_exists(self):
        stmt = parse("CREATE TABLE IF NOT EXISTS t (id INTEGER)")
        assert stmt.if_not_exists

    def test_both_pk_styles_rejected(self):
        with pytest.raises(ParseError):
            parse(
                "CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER,"
                " PRIMARY KEY (b))"
            )


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert isinstance(stmt.items[0], ast.Star)
        assert stmt.table_ref.table == "t"

    def test_qualified_star(self):
        stmt = parse("SELECT a.* FROM t a")
        assert stmt.items[0].qualifier == "a"

    def test_columns_and_aliases(self):
        stmt = parse("SELECT name, score AS s FROM t")
        assert stmt.items[0].alias == "name"
        assert stmt.items[1].alias == "s"

    def test_where_with_params(self):
        stmt = parse("SELECT * FROM t WHERE id = ? AND score > ?")
        assert isinstance(stmt.where, ex.And)

    def test_order_and_limit(self):
        stmt = parse("SELECT * FROM t ORDER BY a DESC, b LIMIT 5")
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].ascending is True
        assert stmt.limit.value == 5

    def test_join(self):
        stmt = parse(
            "SELECT u.name FROM orders o INNER JOIN users u"
            " ON o.uid = u.id WHERE o.total > 10"
        )
        assert len(stmt.joins) == 1
        assert stmt.joins[0].table_ref.alias == "u"

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(x), MAX(y) AS biggest FROM t")
        assert stmt.items[0].aggregate == "count"
        assert stmt.items[0].expr is None
        assert stmt.items[1].aggregate == "sum"
        assert stmt.items[2].alias == "biggest"

    def test_in_list_and_is_null(self):
        stmt = parse(
            "SELECT * FROM t WHERE a IN (1, 2, 3) AND b IS NOT NULL"
        )
        assert isinstance(stmt.where, ex.And)
        assert isinstance(stmt.where.left, ex.InList)
        right = stmt.where.right
        assert isinstance(right, ex.IsNull) and right.negate

    def test_arithmetic_precedence(self):
        stmt = parse("SELECT 1 + 2 * 3 FROM t")
        assert constant(stmt.items[0].expr) == 7

    def test_parenthesized_expression(self):
        stmt = parse("SELECT (1 + 2) * 3 FROM t")
        assert constant(stmt.items[0].expr) == 9

    def test_unary_minus(self):
        stmt = parse("SELECT -5 FROM t")
        assert constant(stmt.items[0].expr) == -5


class TestDML:
    def test_insert_multi_row(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)")
        assert len(stmt.rows) == 2
        assert stmt.columns == ("a", "b")

    def test_insert_width_mismatch(self):
        with pytest.raises(ParseError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_update(self):
        stmt = parse("UPDATE t SET a = a + 1, b = ? WHERE id = 3")
        assert len(stmt.assignments) == 2
        assert stmt.assignments[0][0] == "a"

    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE id = 1")
        assert isinstance(stmt, ast.Delete)

    def test_delete_without_where(self):
        stmt = parse("DELETE FROM t")
        assert stmt.where is None


class TestTransactionsAndMisc:
    def test_begin_commit_rollback(self):
        assert isinstance(parse("BEGIN"), ast.Begin)
        assert isinstance(parse("BEGIN TRANSACTION"), ast.Begin)
        assert isinstance(parse("COMMIT"), ast.Commit)
        assert isinstance(parse("ROLLBACK"), ast.Rollback)

    def test_create_index(self):
        stmt = parse("CREATE INDEX idx ON t (a, b)")
        assert stmt.columns == ("a", "b")

    def test_drop_table(self):
        stmt = parse("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_trailing_semicolon_ok(self):
        parse("SELECT * FROM t;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t garbage extra")

    def test_empty_statement_rejected(self):
        with pytest.raises(ParseError):
            parse("")

    def test_param_indices_are_positional(self):
        stmt = parse("SELECT * FROM t WHERE a = ? AND b = ? LIMIT ?")
        params = []

        def collect(expr):
            if isinstance(expr, ex.Param):
                params.append(expr.index)
            for attr in ("left", "right", "operand"):
                child = getattr(expr, attr, None)
                if child is not None:
                    collect(child)

        collect(stmt.where)
        collect(stmt.limit)
        assert sorted(params) == [0, 1, 2]
