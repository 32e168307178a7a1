"""Expression trees for WHERE clauses, SET assignments, and select items.

The parser builds the nodes.  A statement plan (:mod:`repro.sql.plans`)
compiles each tree once, against a :class:`Scope` that fixes where every
column reference points, into a closure ``fn(row, params)``: ``row`` is
a storage tuple (the concatenation of several for a join, the output
values for HAVING or ORDER BY over output names) and ``params`` the
tuple bound to the ``?`` placeholders.  Nothing walks a tree per row.

SQL's three-valued logic holds: a NULL operand makes a comparison or an
arithmetic result NULL (``None``), AND/OR follow the truth tables, and a
WHERE keeps a row only for a genuine ``True``.  An operand of the wrong
type for its operator raises :class:`~repro.errors.SQLError`.
"""

import functools
import operator
import re

from repro.errors import SQLError, SchemaError


class Scope:
    """Where a statement's column references resolve, fixed at plan time.

    ``tables`` lists ``(alias, column_names)`` in FROM/JOIN order; the
    row a compiled expression reads is the concatenation of their tuples.
    A name resolves as written first, then case-insensitively; an
    unqualified name resolves to the first table that has it; an alias
    given twice names the later table.
    """

    def __init__(self, tables):
        #: name -> position in the row, one dict per table, in order
        self._tables = []
        self._aliases = {}
        offset = 0
        for alias, names in tables:
            columns = dict(zip(names, range(offset, offset + len(names))))
            self._tables.append(columns)
            self._aliases[alias] = columns
            offset += len(names)

    def position(self, qualifier, name):
        """Row position of column ``name`` (of table ``qualifier``)."""
        if qualifier is None:
            tables = self._tables
        else:
            columns = self._aliases.get(qualifier)
            if columns is None:
                raise SchemaError("unknown table alias {!r}".format(qualifier))
            tables = (columns,)
        for columns in tables:
            position = columns.get(name)
            if position is None:
                lowered = name.lower()
                for column, candidate in columns.items():
                    if column.lower() == lowered:
                        position = candidate
                        break
            if position is not None:
                return position
        raise SchemaError("unknown column {!r}".format(name))

    def star(self, qualifier=None):
        """``(name, position)`` of each column ``*`` / ``alias.*`` yields."""
        if qualifier is None:
            tables = self._aliases.values()
        else:
            columns = self._aliases.get(qualifier)
            if columns is None:
                raise SchemaError("unknown alias {!r}".format(qualifier))
            tables = (columns,)
        return [item for columns in tables for item in columns.items()]


def _type_error(op, left, right):
    return SQLError("cannot apply {} to {!r} and {!r}".format(op, left, right))


class Expr:
    """Base class of all expression nodes."""

    def compile(self, scope):
        """The closure ``fn(row, params)`` computing this node."""
        raise NotImplementedError

    def inline(self, scope):
        """``(kind, payload)`` for operators that read their operands
        inline: ``("col", position)``, ``("param", index)``,
        ``("const", value)``, or ``("fn", closure)``."""
        return "fn", self.compile(scope)

    def references(self):
        """Yield ``(qualifier, column)`` pairs this expression reads."""
        return
        yield  # pragma: no cover


def reader(kind, payload):
    """A closure for an :meth:`Expr.inline` descriptor."""
    if kind == "col":
        def column(row, params):
            return row[payload]
        return column
    if kind == "param":
        def param(row, params):
            return params[payload]
        return param
    if kind == "const":
        def literal(row, params):
            return payload
        return literal
    return payload


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def compile(self, scope):
        return reader("const", self.value)

    def inline(self, scope):
        return "const", self.value

    def __repr__(self):
        return "Literal({!r})".format(self.value)


class Param(Expr):
    """A ``?`` placeholder, bound positionally at execution time.

    The engine checks the parameter count before a plan runs, so the
    closure indexes ``params`` without a bounds check.
    """

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def compile(self, scope):
        return reader("param", self.index)

    def inline(self, scope):
        return "param", self.index

    def __repr__(self):
        return "Param({})".format(self.index)


class ColumnRef(Expr):
    __slots__ = ("qualifier", "name")

    def __init__(self, name, qualifier=None):
        self.qualifier = qualifier.lower() if qualifier else None
        self.name = name

    def compile(self, scope):
        return reader(*self.inline(scope))

    def inline(self, scope):
        return "col", scope.position(self.qualifier, self.name)

    def references(self):
        yield (self.qualifier, self.name)

    def __repr__(self):
        if self.qualifier:
            return "ColumnRef({}.{})".format(self.qualifier, self.name)
        return "ColumnRef({})".format(self.name)


_COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "%": operator.mod,
}


def _binary(symbol, apply, left, right, scope, errors):
    """Compile ``left <symbol> right`` with NULL propagation; ``errors``
    are the exceptions ``apply`` may raise on a bad operand."""
    left_kind, left = left.inline(scope)
    right_kind, right = right.inline(scope)
    if left_kind == "col" and right_kind == "param":
        # column <op> ?: every WHERE in BG, read without helper calls
        position, index = left, right

        def with_param(row, params):
            value = row[position]
            bound = params[index]
            if value is None or bound is None:
                return None
            try:
                return apply(value, bound)
            except errors as exc:
                raise _failure(symbol, value, bound, exc)
        return with_param
    read_left = reader(left_kind, left)
    read_right = reader(right_kind, right)

    def binary(row, params):
        lhs = read_left(row, params)
        rhs = read_right(row, params)
        if lhs is None or rhs is None:
            return None
        try:
            return apply(lhs, rhs)
        except errors as exc:
            raise _failure(symbol, lhs, rhs, exc)
    return binary


def _failure(symbol, left, right, exc):
    if isinstance(exc, ZeroDivisionError):
        return SQLError("division by zero: {!r} {} {!r}".format(
            left, symbol, right
        ))
    return _type_error(symbol, left, right)


class Comparison(Expr):
    """SQL three-valued comparison: any NULL operand yields NULL (None)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _COMPARATORS:
            raise SQLError("unknown comparison operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def compile(self, scope):
        return _binary(self.op, _COMPARATORS[self.op], self.left,
                       self.right, scope, TypeError)

    def references(self):
        yield from self.left.references()
        yield from self.right.references()

    def __repr__(self):
        return "({!r} {} {!r})".format(self.left, self.op, self.right)


class Arithmetic(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _ARITHMETIC:
            raise SQLError("unknown arithmetic operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def compile(self, scope):
        return _binary(self.op, _ARITHMETIC[self.op], self.left,
                       self.right, scope, (TypeError, ZeroDivisionError))

    def references(self):
        yield from self.left.references()
        yield from self.right.references()


def _chain(expr, cls):
    """The operands of a run of nested ``cls`` nodes, left to right."""
    if isinstance(expr, cls):
        return _chain(expr.left, cls) + _chain(expr.right, cls)
    return [expr]


class And(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def compile(self, scope):
        # AND is associative under three-valued logic, so a chain
        # compiles to one closure: stop at the first False, else NULL if
        # any operand was NULL.
        parts = [part.compile(scope) for part in _chain(self, And)]

        def every(row, params):
            unknown = False
            for part in parts:
                value = part(row, params)
                if value is False:
                    return False
                if value is None:
                    unknown = True
            return None if unknown else True
        return every

    def references(self):
        yield from self.left.references()
        yield from self.right.references()


class Or(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def compile(self, scope):
        parts = [part.compile(scope) for part in _chain(self, Or)]

        def some(row, params):
            unknown = False
            for part in parts:
                value = part(row, params)
                if value is True:
                    return True
                if value is None:
                    unknown = True
            return None if unknown else False
        return some

    def references(self):
        yield from self.left.references()
        yield from self.right.references()


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def compile(self, scope):
        inner = self.operand.compile(scope)

        def negation(row, params):
            value = inner(row, params)
            if value is None:
                return None
            return not value
        return negation

    def references(self):
        yield from self.operand.references()


class IsNull(Expr):
    __slots__ = ("operand", "negate")

    def __init__(self, operand, negate=False):
        self.operand = operand
        self.negate = negate

    def compile(self, scope):
        inner = self.operand.compile(scope)
        if self.negate:
            def is_not_null(row, params):
                return inner(row, params) is not None
            return is_not_null

        def is_null(row, params):
            return inner(row, params) is None
        return is_null

    def references(self):
        yield from self.operand.references()


@functools.lru_cache(maxsize=256)
def _like_regex(pattern_text):
    """The anchored regex for a LIKE pattern (``%`` any run, ``_`` one)."""
    pieces = ["^"]
    for ch in pattern_text:
        if ch == "%":
            pieces.append(".*")
        elif ch == "_":
            pieces.append(".")
        else:
            pieces.append(re.escape(ch))
    pieces.append("$")
    return re.compile("".join(pieces), re.DOTALL)


class Like(Expr):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one char) wildcards.

    Matching is case-sensitive (SQLite semantics would be insensitive for
    ASCII; MySQL's depends on collation -- we pick the simpler rule and
    document it).  NULL operands yield NULL.
    """

    __slots__ = ("operand", "pattern", "negate")

    def __init__(self, operand, pattern, negate=False):
        self.operand = operand
        self.pattern = pattern
        self.negate = negate

    def compile(self, scope):
        value_of = self.operand.compile(scope)
        pattern_of = self.pattern.compile(scope)
        negate = self.negate

        def like(row, params):
            value = value_of(row, params)
            pattern_text = pattern_of(row, params)
            if value is None or pattern_text is None:
                return None
            try:
                regex = _like_regex(pattern_text)
            except TypeError:
                raise _type_error("LIKE", value, pattern_text)
            result = regex.match(str(value)) is not None
            return not result if negate else result
        return like

    def references(self):
        yield from self.operand.references()
        yield from self.pattern.references()


class Between(Expr):
    """``expr [NOT] BETWEEN low AND high`` (inclusive bounds).

    It means ``expr >= low AND expr <= high`` under three-valued logic,
    so a NULL bound still gives FALSE when the other bound excludes the
    value.
    """

    __slots__ = ("operand", "low", "high", "negate")

    def __init__(self, operand, low, high, negate=False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negate = negate

    def compile(self, scope):
        value_of = self.operand.compile(scope)
        low_of = self.low.compile(scope)
        high_of = self.high.compile(scope)
        negate = self.negate

        def between(row, params):
            value = value_of(row, params)
            low = low_of(row, params)
            high = high_of(row, params)
            try:
                above = None if value is None or low is None else low <= value
                below = None
                if above is not False and value is not None \
                        and high is not None:
                    below = value <= high
            except TypeError:
                raise SQLError("cannot compare {!r} BETWEEN {!r} AND {!r}"
                               .format(value, low, high))
            if above is False or below is False:
                result = False
            elif above is None or below is None:
                return None
            else:
                result = True
            return not result if negate else result
        return between

    def references(self):
        yield from self.operand.references()
        yield from self.low.references()
        yield from self.high.references()


class InList(Expr):
    __slots__ = ("operand", "options", "negate")

    def __init__(self, operand, options, negate=False):
        self.operand = operand
        self.options = list(options)
        self.negate = negate

    def compile(self, scope):
        value_of = self.operand.compile(scope)
        options = [option.compile(scope) for option in self.options]
        negate = self.negate

        def in_list(row, params):
            value = value_of(row, params)
            if value is None:
                return None
            result = value in [option(row, params) for option in options]
            return not result if negate else result
        return in_list

    def references(self):
        yield from self.operand.references()
        for option in self.options:
            yield from option.references()


def conjuncts(expr):
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    return _chain(expr, And)


def equality_bindings(expr):
    """Extract ``column = constant-expr`` conjuncts for index planning.

    Returns a list of ``(qualifier, column_name, value_expr)`` where the
    value side contains no column references (it may contain parameters,
    which are resolvable before the scan starts).
    """
    bindings = []
    for conjunct in conjuncts(expr):
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        for column_side, value_side in (
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ):
            if isinstance(column_side, ColumnRef) and not list(
                value_side.references()
            ):
                bindings.append(
                    (column_side.qualifier, column_side.name, value_side)
                )
                break
    return bindings
