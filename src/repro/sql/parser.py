"""Tokenizer and recursive-descent parser for the engine's SQL dialect.

Supported grammar (case-insensitive keywords)::

    CREATE TABLE [IF NOT EXISTS] t (col TYPE [NOT NULL] [PRIMARY KEY], ...,
                                    [PRIMARY KEY (a, b, ...)])
    DROP TABLE [IF EXISTS] t
    CREATE INDEX name ON t (a, b, ...)
    SELECT select_list FROM t [alias] [INNER JOIN u [alias] ON expr]*
        [WHERE expr] [ORDER BY expr [ASC|DESC], ...] [LIMIT n]
    INSERT INTO t (a, b, ...) VALUES (expr, ...)[, (expr, ...)]*
    UPDATE t SET a = expr, ... [WHERE expr]
    DELETE FROM t [WHERE expr]
    BEGIN | COMMIT | ROLLBACK

``select_list`` items: ``*``, ``alias.*``, expressions with optional
``AS alias``, and aggregates ``COUNT(*) | COUNT(expr) | SUM/MIN/MAX/AVG
(expr)``.  Expressions support ``? `` parameters, literals (integers,
floats, single-quoted strings with '' escapes, NULL, TRUE, FALSE),
(qualified) column references, arithmetic, comparisons, ``IS [NOT] NULL``,
``[NOT] IN (...)``, ``AND``, ``OR``, ``NOT`` and parentheses.
"""

import re

from repro.errors import ParseError
from repro.sql import ast
from repro.sql import expressions as ex

_TOKEN_RE = re.compile(
    r"""
    (?P<space>\s+)
  | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op><=|>=|<>|!=|=|<|>|\+|-|\*|/|%|\(|\)|,|\.|\?|;)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "select", "from", "where", "insert", "into", "values", "update", "set",
    "delete", "create", "drop", "table", "index", "on", "primary", "key",
    "not", "null", "and", "or", "in", "is", "as", "order", "by", "asc",
    "desc", "limit", "join", "inner", "begin", "commit", "rollback", "if",
    "exists", "true", "false", "count", "sum", "min", "max", "avg",
    "transaction", "distinct", "group", "having", "like", "between",
}

_AGGREGATES = {"count", "sum", "min", "max", "avg"}

#: Keywords that may also serve as identifiers (column/table names).
_NONRESERVED = {"count", "sum", "min", "max", "avg", "key", "index"}


class Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind, value, pos):
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self):
        return "Token({}, {!r})".format(self.kind, self.value)


def tokenize(sql):
    """Split SQL text into tokens, raising :class:`ParseError` on junk."""
    tokens = []
    pos = 0
    while pos < len(sql):
        match = _TOKEN_RE.match(sql, pos)
        if match is None:
            raise ParseError(
                "unexpected character {!r} at position {}".format(sql[pos], pos)
            )
        kind = match.lastgroup
        text = match.group()
        if kind == "space":
            pos = match.end()
            continue
        if kind == "name":
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, pos))
            else:
                tokens.append(Token("name", text, pos))
        elif kind == "string":
            tokens.append(Token("string", text[1:-1].replace("''", "'"), pos))
        elif kind == "int":
            tokens.append(Token("int", int(text), pos))
        elif kind == "float":
            tokens.append(Token("float", float(text), pos))
        else:
            tokens.append(Token("op", text, pos))
        pos = match.end()
    return tokens


class Parser:
    """One-shot recursive-descent parser over a token list."""

    def __init__(self, sql):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0
        self._param_count = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self):
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input in {!r}".format(self.sql))
        self.index += 1
        return token

    def _error(self, message):
        token = self._peek()
        at = "end of input" if token is None else "{!r}".format(token.value)
        raise ParseError("{} (found {}) in {!r}".format(message, at, self.sql))

    def _accept_keyword(self, *keywords):
        token = self._peek()
        if token is not None and token.kind == "keyword" and token.value in keywords:
            self.index += 1
            return token.value
        return None

    def _expect_keyword(self, *keywords):
        value = self._accept_keyword(*keywords)
        if value is None:
            self._error("expected {}".format("/".join(k.upper() for k in keywords)))
        return value

    def _accept_op(self, *ops):
        token = self._peek()
        if token is not None and token.kind == "op" and token.value in ops:
            self.index += 1
            return token.value
        return None

    def _expect_op(self, op):
        if self._accept_op(op) is None:
            self._error("expected {!r}".format(op))

    def _expect_name(self):
        token = self._peek()
        if token is None or token.kind != "name":
            # Allow non-reserved keywords as identifiers where unambiguous.
            if (
                token is not None
                and token.kind == "keyword"
                and token.value in _NONRESERVED
            ):
                self.index += 1
                return token.value
            self._error("expected identifier")
        self.index += 1
        return token.value

    # -- entry point -----------------------------------------------------------

    def parse(self):
        """Parse exactly one statement; trailing ``;`` is permitted."""
        statement = self._statement()
        self._accept_op(";")
        if self._peek() is not None:
            self._error("unexpected trailing input")
        statement.param_count = self._param_count
        return statement

    def _statement(self):
        token = self._peek()
        if token is None:
            raise ParseError("empty statement")
        if token.kind != "keyword":
            self._error("expected a statement keyword")
        if token.value == "select":
            return self._select()
        if token.value == "insert":
            return self._insert()
        if token.value == "update":
            return self._update()
        if token.value == "delete":
            return self._delete()
        if token.value == "create":
            return self._create()
        if token.value == "drop":
            return self._drop()
        if token.value == "begin":
            self._next()
            self._accept_keyword("transaction")
            return ast.Begin()
        if token.value == "commit":
            self._next()
            return ast.Commit()
        if token.value == "rollback":
            self._next()
            return ast.Rollback()
        self._error("unsupported statement")

    # -- DDL ---------------------------------------------------------------

    def _create(self):
        self._expect_keyword("create")
        kind = self._expect_keyword("table", "index")
        if kind == "table":
            return self._create_table()
        return self._create_index()

    def _create_table(self):
        if_not_exists = False
        if self._accept_keyword("if"):
            self._expect_keyword("not")
            self._expect_keyword("exists")
            if_not_exists = True
        table = self._expect_name()
        self._expect_op("(")
        columns = []
        table_pk = []
        while True:
            if self._accept_keyword("primary"):
                self._expect_keyword("key")
                self._expect_op("(")
                while True:
                    table_pk.append(self._expect_name())
                    if not self._accept_op(","):
                        break
                self._expect_op(")")
            else:
                name = self._expect_name()
                token = self._peek()
                if token is None or token.kind not in ("name", "keyword"):
                    self._error("expected a column type")
                self.index += 1
                type_name = token.value
                not_null = False
                primary_key = False
                while True:
                    if self._accept_keyword("not"):
                        self._expect_keyword("null")
                        not_null = True
                    elif self._accept_keyword("primary"):
                        self._expect_keyword("key")
                        primary_key = True
                    else:
                        break
                columns.append(
                    ast.ColumnDef(name, type_name, not_null, primary_key)
                )
            if not self._accept_op(","):
                break
        self._expect_op(")")
        inline_pk = [c.name for c in columns if c.primary_key]
        if inline_pk and table_pk:
            raise ParseError("both inline and table-level PRIMARY KEY given")
        return ast.CreateTable(table, columns, table_pk or inline_pk,
                               if_not_exists)

    def _create_index(self):
        name = self._expect_name()
        self._expect_keyword("on")
        table = self._expect_name()
        self._expect_op("(")
        columns = [self._expect_name()]
        while self._accept_op(","):
            columns.append(self._expect_name())
        self._expect_op(")")
        return ast.CreateIndex(name, table, columns)

    def _drop(self):
        self._expect_keyword("drop")
        self._expect_keyword("table")
        if_exists = False
        if self._accept_keyword("if"):
            self._expect_keyword("exists")
            if_exists = True
        table = self._expect_name()
        return ast.DropTable(table, if_exists)

    # -- SELECT ----------------------------------------------------------------

    def _select(self):
        self._expect_keyword("select")
        distinct = bool(self._accept_keyword("distinct"))
        items = [self._select_item()]
        while self._accept_op(","):
            items.append(self._select_item())
        self._expect_keyword("from")
        table_ref = self._table_ref()
        joins = []
        while True:
            if self._accept_keyword("inner"):
                self._expect_keyword("join")
            elif not self._accept_keyword("join"):
                break
            joined = self._table_ref()
            self._expect_keyword("on")
            condition = self._expression()
            joins.append(ast.Join(joined, condition))
        where = None
        if self._accept_keyword("where"):
            where = self._expression()
        group_by = []
        having = None
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._expression())
            while self._accept_op(","):
                group_by.append(self._expression())
            if self._accept_keyword("having"):
                having = self._expression()
        order_by = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            while True:
                expr = self._expression()
                ascending = True
                if self._accept_keyword("desc"):
                    ascending = False
                else:
                    self._accept_keyword("asc")
                order_by.append(ast.OrderItem(expr, ascending))
                if not self._accept_op(","):
                    break
        limit = None
        if self._accept_keyword("limit"):
            token = self._next()
            if token.kind == "int":
                limit = ex.Literal(token.value)
            elif token.kind == "op" and token.value == "?":
                limit = ex.Param(self._param_count)
                self._param_count += 1
            else:
                self._error("expected LIMIT count")
        return ast.Select(items, table_ref, joins, where, order_by, limit,
                          group_by=group_by, having=having,
                          distinct=distinct)

    def _table_ref(self):
        table = self._expect_name()
        alias = None
        token = self._peek()
        if token is not None and token.kind == "name":
            alias = self._expect_name()
        elif self._accept_keyword("as"):
            alias = self._expect_name()
        return ast.TableRef(table, alias)

    def _select_item(self):
        token = self._peek()
        if token is not None and token.kind == "op" and token.value == "*":
            self.index += 1
            return ast.Star()
        # alias.* form
        if (
            token is not None
            and token.kind == "name"
            and self.index + 2 < len(self.tokens)
            and self.tokens[self.index + 1].kind == "op"
            and self.tokens[self.index + 1].value == "."
            and self.tokens[self.index + 2].kind == "op"
            and self.tokens[self.index + 2].value == "*"
        ):
            qualifier = token.value
            self.index += 3
            return ast.Star(qualifier)
        # aggregate?
        if (
            token is not None
            and token.kind == "keyword"
            and token.value in _AGGREGATES
            and self.index + 1 < len(self.tokens)
            and self.tokens[self.index + 1].kind == "op"
            and self.tokens[self.index + 1].value == "("
        ):
            func = token.value
            self.index += 2
            if func == "count" and self._accept_op("*"):
                arg = None
            else:
                arg = self._expression()
            self._expect_op(")")
            alias = self._alias_opt() or func
            return ast.SelectItem(arg, alias, aggregate=func)
        expr = self._expression()
        alias = self._alias_opt()
        if alias is None and isinstance(expr, ex.ColumnRef):
            alias = expr.name
        return ast.SelectItem(expr, alias)

    def _alias_opt(self):
        if self._accept_keyword("as"):
            return self._expect_name()
        token = self._peek()
        if token is not None and token.kind == "name":
            self.index += 1
            return token.value
        return None

    # -- DML -----------------------------------------------------------------

    def _insert(self):
        self._expect_keyword("insert")
        self._expect_keyword("into")
        table = self._expect_name()
        self._expect_op("(")
        columns = [self._expect_name()]
        while self._accept_op(","):
            columns.append(self._expect_name())
        self._expect_op(")")
        self._expect_keyword("values")
        rows = []
        while True:
            self._expect_op("(")
            row = [self._expression()]
            while self._accept_op(","):
                row.append(self._expression())
            self._expect_op(")")
            if len(row) != len(columns):
                raise ParseError(
                    "INSERT has {} columns but {} values".format(
                        len(columns), len(row)
                    )
                )
            rows.append(row)
            if not self._accept_op(","):
                break
        return ast.Insert(table, columns, rows)

    def _update(self):
        self._expect_keyword("update")
        table = self._expect_name()
        self._expect_keyword("set")
        assignments = []
        while True:
            column = self._expect_name()
            self._expect_op("=")
            assignments.append((column, self._expression()))
            if not self._accept_op(","):
                break
        where = None
        if self._accept_keyword("where"):
            where = self._expression()
        return ast.Update(table, assignments, where)

    def _delete(self):
        self._expect_keyword("delete")
        self._expect_keyword("from")
        table = self._expect_name()
        where = None
        if self._accept_keyword("where"):
            where = self._expression()
        return ast.Delete(table, where)

    # -- expressions ------------------------------------------------------------

    def _expression(self):
        return self._or_expr()

    def _or_expr(self):
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = ex.Or(left, self._and_expr())
        return left

    def _and_expr(self):
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = ex.And(left, self._not_expr())
        return left

    def _not_expr(self):
        if self._accept_keyword("not"):
            return ex.Not(self._not_expr())
        return self._predicate()

    def _predicate(self):
        left = self._additive()
        token = self._peek()
        if token is not None and token.kind == "op" and token.value in (
            "=", "!=", "<>", "<", "<=", ">", ">=",
        ):
            self.index += 1
            right = self._additive()
            return ex.Comparison(token.value, left, right)
        if self._accept_keyword("is"):
            negate = bool(self._accept_keyword("not"))
            self._expect_keyword("null")
            return ex.IsNull(left, negate)
        negate = False
        if self._accept_keyword("not"):
            negate = True
            follower = self._peek()
            if not (
                follower is not None
                and follower.kind == "keyword"
                and follower.value in ("in", "like", "between")
            ):
                self._error("expected IN/LIKE/BETWEEN after NOT")
        if self._accept_keyword("like"):
            pattern = self._additive()
            return ex.Like(left, pattern, negate)
        if self._accept_keyword("between"):
            low = self._additive()
            self._expect_keyword("and")
            high = self._additive()
            return ex.Between(left, low, high, negate)
        if self._accept_keyword("in"):
            self._expect_op("(")
            options = [self._expression()]
            while self._accept_op(","):
                options.append(self._expression())
            self._expect_op(")")
            return ex.InList(left, options, negate)
        return left

    def _additive(self):
        left = self._multiplicative()
        while True:
            op = self._accept_op("+", "-")
            if op is None:
                return left
            left = ex.Arithmetic(op, left, self._multiplicative())

    def _multiplicative(self):
        left = self._unary()
        while True:
            op = self._accept_op("*", "/", "%")
            if op is None:
                return left
            left = ex.Arithmetic(op, left, self._unary())

    def _unary(self):
        if self._accept_op("-"):
            return ex.Arithmetic("-", ex.Literal(0), self._unary())
        return self._primary()

    def _primary(self):
        token = self._peek()
        if token is None:
            self._error("expected an expression")
        if token.kind == "int" or token.kind == "float":
            self.index += 1
            return ex.Literal(token.value)
        if token.kind == "string":
            self.index += 1
            return ex.Literal(token.value)
        if token.kind == "op" and token.value == "?":
            self.index += 1
            param = ex.Param(self._param_count)
            self._param_count += 1
            return param
        if token.kind == "op" and token.value == "(":
            self.index += 1
            inner = self._expression()
            self._expect_op(")")
            return inner
        if token.kind == "keyword":
            if token.value == "null":
                self.index += 1
                return ex.Literal(None)
            if token.value == "true":
                self.index += 1
                return ex.Literal(True)
            if token.value == "false":
                self.index += 1
                return ex.Literal(False)
            # Non-reserved keywords double as identifiers when they are
            # not followed by "(" (LinkBench has a column named "count").
            next_token = (
                self.tokens[self.index + 1]
                if self.index + 1 < len(self.tokens) else None
            )
            followed_by_paren = (
                next_token is not None
                and next_token.kind == "op"
                and next_token.value == "("
            )
            if token.value in _NONRESERVED and not followed_by_paren:
                self.index += 1
                return ex.ColumnRef(token.value)
            self._error("unexpected keyword in expression")
        if token.kind == "name":
            self.index += 1
            if (
                self._peek() is not None
                and self._peek().kind == "op"
                and self._peek().value == "."
            ):
                self.index += 1
                column = self._expect_name()
                return ex.ColumnRef(column, qualifier=token.value)
            return ex.ColumnRef(token.value)
        self._error("unexpected token in expression")


def parse(sql):
    """Parse one SQL statement into its AST node."""
    return Parser(sql).parse()
