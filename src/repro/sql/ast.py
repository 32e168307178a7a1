"""Parsed statement nodes produced by :mod:`repro.sql.parser`."""


class Statement:
    """Base class of all statements."""

    #: how many ``?`` placeholders the text holds (set by the parser)
    param_count = 0


class ColumnDef:
    """Column clause of CREATE TABLE."""

    __slots__ = ("name", "type_name", "not_null", "primary_key")

    def __init__(self, name, type_name, not_null=False, primary_key=False):
        self.name = name
        self.type_name = type_name
        self.not_null = not_null
        self.primary_key = primary_key


class CreateTable(Statement):
    __slots__ = ("table", "columns", "primary_key", "if_not_exists")

    def __init__(self, table, columns, primary_key, if_not_exists=False):
        self.table = table
        self.columns = columns
        self.primary_key = tuple(primary_key)
        self.if_not_exists = if_not_exists


class DropTable(Statement):
    __slots__ = ("table", "if_exists")

    def __init__(self, table, if_exists=False):
        self.table = table
        self.if_exists = if_exists


class CreateIndex(Statement):
    __slots__ = ("name", "table", "columns")

    def __init__(self, name, table, columns):
        self.name = name
        self.table = table
        self.columns = tuple(columns)


class TableRef:
    """A table in FROM, with an optional alias."""

    __slots__ = ("table", "alias")

    def __init__(self, table, alias=None):
        self.table = table
        self.alias = (alias or table).lower()


class Join:
    """INNER JOIN <table_ref> ON <condition>."""

    __slots__ = ("table_ref", "condition")

    def __init__(self, table_ref, condition):
        self.table_ref = table_ref
        self.condition = condition


class SelectItem:
    """One output column: expression or aggregate, with optional alias."""

    __slots__ = ("expr", "alias", "aggregate")

    def __init__(self, expr, alias=None, aggregate=None):
        self.expr = expr
        self.alias = alias
        #: one of None, "count", "sum", "min", "max", "avg"
        self.aggregate = aggregate


class Star:
    """``*`` or ``alias.*`` in a select list."""

    __slots__ = ("qualifier",)

    def __init__(self, qualifier=None):
        self.qualifier = qualifier.lower() if qualifier else None


class OrderItem:
    __slots__ = ("expr", "ascending")

    def __init__(self, expr, ascending=True):
        self.expr = expr
        self.ascending = ascending


class Select(Statement):
    __slots__ = ("items", "table_ref", "joins", "where", "order_by", "limit",
                 "group_by", "having", "distinct")

    def __init__(self, items, table_ref, joins=(), where=None, order_by=(),
                 limit=None, group_by=(), having=None, distinct=False):
        self.items = list(items)
        self.table_ref = table_ref
        self.joins = list(joins)
        self.where = where
        self.order_by = list(order_by)
        self.limit = limit
        self.group_by = list(group_by)
        #: evaluated against the projected output row (alias references)
        self.having = having
        self.distinct = distinct


class Insert(Statement):
    __slots__ = ("table", "columns", "rows")

    def __init__(self, table, columns, rows):
        self.table = table
        self.columns = tuple(columns)
        #: list of rows, each a list of value expressions
        self.rows = rows


class Update(Statement):
    __slots__ = ("table", "assignments", "where")

    def __init__(self, table, assignments, where=None):
        self.table = table
        #: list of (column_name, value_expr)
        self.assignments = assignments
        self.where = where


class Delete(Statement):
    __slots__ = ("table", "where")

    def __init__(self, table, where=None):
        self.table = table
        self.where = where


class Begin(Statement):
    __slots__ = ("isolation",)

    def __init__(self, isolation=None):
        self.isolation = isolation


class Commit(Statement):
    __slots__ = ()


class Rollback(Statement):
    __slots__ = ()
