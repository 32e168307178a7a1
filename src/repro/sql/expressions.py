"""Expression trees for WHERE clauses, SET assignments, and select items."""

from repro.errors import SQLError, SchemaError


class EvalContext:
    """Runtime environment for expression evaluation.

    ``rows`` maps a table alias (lower-cased) to the current row dict for
    that alias.  ``default_rows`` is the search order for unqualified
    column references.  ``params`` is the positional parameter tuple bound
    to ``?`` placeholders.
    """

    __slots__ = ("rows", "default_rows", "params")

    def __init__(self, rows=None, default_rows=None, params=()):
        self.rows = rows or {}
        self.default_rows = default_rows if default_rows is not None else list(
            self.rows.values()
        )
        self.params = params


class Expr:
    """Base class of all expression nodes."""

    def evaluate(self, ctx):
        raise NotImplementedError

    def references(self):
        """Yield ``(qualifier, column)`` pairs this expression reads."""
        return
        yield  # pragma: no cover


class Literal(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def evaluate(self, ctx):
        return self.value

    def __repr__(self):
        return "Literal({!r})".format(self.value)


class Param(Expr):
    """A ``?`` placeholder, bound positionally at execution time."""

    __slots__ = ("index",)

    def __init__(self, index):
        self.index = index

    def evaluate(self, ctx):
        try:
            return ctx.params[self.index]
        except IndexError:
            raise SQLError(
                "statement requires at least {} parameters, got {}".format(
                    self.index + 1, len(ctx.params)
                )
            )

    def __repr__(self):
        return "Param({})".format(self.index)


class ColumnRef(Expr):
    __slots__ = ("qualifier", "name")

    def __init__(self, name, qualifier=None):
        self.qualifier = qualifier.lower() if qualifier else None
        self.name = name

    def evaluate(self, ctx):
        if self.qualifier is not None:
            row = ctx.rows.get(self.qualifier)
            if row is None:
                raise SchemaError("unknown table alias {!r}".format(self.qualifier))
            return _row_get(row, self.name, self)
        for row in ctx.default_rows:
            value = _row_get(row, self.name, None)
            if value is not _MISSING:
                return value
        raise SchemaError("unknown column {!r}".format(self.name))

    def references(self):
        yield (self.qualifier, self.name)

    def __repr__(self):
        if self.qualifier:
            return "ColumnRef({}.{})".format(self.qualifier, self.name)
        return "ColumnRef({})".format(self.name)


_MISSING = object()


def _row_get(row, name, ref):
    """``row[name]``: the name as written first, then case-insensitively."""
    value = row.get(name, _MISSING)
    if value is not _MISSING:
        return value
    lowered_name = name.lower()
    for key, value in row.items():
        if key.lower() == lowered_name:
            return value
    if ref is None:
        return _MISSING
    raise SchemaError("unknown column {!r}".format(ref.name))


_COMPARATORS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "%": lambda a, b: a % b,
}


class Comparison(Expr):
    """SQL three-valued comparison: any NULL operand yields NULL (None)."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in _COMPARATORS:
            raise SQLError("unknown comparison operator {!r}".format(op))
        self.op = op
        self.left = left
        self.right = right

    def evaluate(self, ctx):
        lhs = self.left.evaluate(ctx)
        rhs = self.right.evaluate(ctx)
        if lhs is None or rhs is None:
            return None
        return _COMPARATORS[self.op](lhs, rhs)

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

    def evaluate(self, ctx):
        lhs = self.left.evaluate(ctx)
        rhs = self.right.evaluate(ctx)
        if lhs is None or rhs is None:
            return None
        return _ARITHMETIC[self.op](lhs, rhs)

    def references(self):
        yield from self.left.references()
        yield from self.right.references()


class And(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, ctx):
        lhs = self.left.evaluate(ctx)
        if lhs is False:
            return False
        rhs = self.right.evaluate(ctx)
        if rhs is False:
            return False
        if lhs is None or rhs is None:
            return None
        return True

    def references(self):
        yield from self.left.references()
        yield from self.right.references()


class Or(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, ctx):
        lhs = self.left.evaluate(ctx)
        if lhs is True:
            return True
        rhs = self.right.evaluate(ctx)
        if rhs is True:
            return True
        if lhs is None or rhs is None:
            return None
        return False

    def references(self):
        yield from self.left.references()
        yield from self.right.references()


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand):
        self.operand = operand

    def evaluate(self, ctx):
        value = self.operand.evaluate(ctx)
        if value is None:
            return None
        return not value

    def references(self):
        yield from self.operand.references()


class IsNull(Expr):
    __slots__ = ("operand", "negate")

    def __init__(self, operand, negate=False):
        self.operand = operand
        self.negate = negate

    def evaluate(self, ctx):
        value = self.operand.evaluate(ctx)
        result = value is None
        return not result if self.negate else result

    def references(self):
        yield from self.operand.references()


class Like(Expr):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one char) wildcards.

    Matching is case-sensitive (SQLite semantics would be insensitive for
    ASCII; MySQL's depends on collation -- we pick the simpler rule and
    document it).  NULL operands yield NULL.
    """

    __slots__ = ("operand", "pattern", "negate", "_compiled", "_literal")

    def __init__(self, operand, pattern, negate=False):
        self.operand = operand
        self.pattern = pattern
        self.negate = negate
        self._compiled = None
        self._literal = None

    def _matcher(self, pattern_text):
        import re

        if self._compiled is not None and self._literal == pattern_text:
            return self._compiled
        pieces = ["^"]
        for ch in pattern_text:
            if ch == "%":
                pieces.append(".*")
            elif ch == "_":
                pieces.append(".")
            else:
                pieces.append(re.escape(ch))
        pieces.append("$")
        self._compiled = re.compile("".join(pieces), re.DOTALL)
        self._literal = pattern_text
        return self._compiled

    def evaluate(self, ctx):
        value = self.operand.evaluate(ctx)
        pattern_text = self.pattern.evaluate(ctx)
        if value is None or pattern_text is None:
            return None
        result = bool(self._matcher(pattern_text).match(str(value)))
        return not result if self.negate else result

    def references(self):
        yield from self.operand.references()
        yield from self.pattern.references()


class Between(Expr):
    """``expr [NOT] BETWEEN low AND high`` (inclusive bounds)."""

    __slots__ = ("operand", "low", "high", "negate")

    def __init__(self, operand, low, high, negate=False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negate = negate

    def evaluate(self, ctx):
        value = self.operand.evaluate(ctx)
        low = self.low.evaluate(ctx)
        high = self.high.evaluate(ctx)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return not result if self.negate else result

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

    def evaluate(self, ctx):
        value = self.operand.evaluate(ctx)
        if value is None:
            return None
        members = [option.evaluate(ctx) for option in self.options]
        result = value in members
        return not result if self.negate else result

    def references(self):
        yield from self.operand.references()
        for option in self.options:
            yield from option.references()


def is_true(value):
    """SQL WHERE acceptance: only a genuine True passes (NULL filters out)."""
    return value is True


def conjuncts(expr):
    """Flatten a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


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
