"""Table schemas: columns, primary keys, not-null constraints."""

from repro.errors import IntegrityError, SchemaError
from repro.sql.types import SQLType


class Column:
    """A column definition."""

    def __init__(self, name, sql_type, nullable=True):
        if not isinstance(sql_type, SQLType):
            raise SchemaError("column {!r} needs a SQLType".format(name))
        self.name = name
        self.sql_type = sql_type
        self.nullable = nullable

    def __repr__(self):
        null = "" if self.nullable else " NOT NULL"
        return "{} {}{}".format(self.name, self.sql_type.name, null)


class TableSchema:
    """A table definition: ordered columns plus an optional primary key.

    The primary key may span several columns (BG's ``Friendship`` table is
    keyed on ``(inviter_id, invitee_id)``).  Primary-key columns are
    implicitly NOT NULL.
    """

    def __init__(self, name, columns, primary_key=()):
        if not columns:
            raise SchemaError("table {!r} needs at least one column".format(name))
        seen = set()
        for column in columns:
            lowered = column.name.lower()
            if lowered in seen:
                raise SchemaError(
                    "duplicate column {!r} in table {!r}".format(column.name, name)
                )
            seen.add(lowered)
        self.name = name
        self.columns = list(columns)
        self._by_name = {c.name.lower(): i for i, c in enumerate(self.columns)}
        self.primary_key = tuple(primary_key)
        for pk_col in self.primary_key:
            if pk_col.lower() not in self._by_name:
                raise SchemaError(
                    "primary key column {!r} not in table {!r}".format(pk_col, name)
                )
            self.columns[self._by_name[pk_col.lower()]].nullable = False
        self._pk_positions = tuple(
            self._by_name[c.lower()] for c in self.primary_key
        )
        self._pk_lowered = frozenset(c.lower() for c in self.primary_key)

    def column_index(self, name):
        """Position of column ``name`` (case-insensitive)."""
        try:
            return self._by_name[name.lower()]
        except KeyError:
            raise SchemaError(
                "no column {!r} in table {!r}".format(name, self.name)
            )

    def has_column(self, name):
        return name.lower() in self._by_name

    def column(self, name):
        return self.columns[self.column_index(name)]

    def column_names(self):
        return [c.name for c in self.columns]

    def coerce_row(self, values_by_name):
        """Build a storage tuple from a ``{column: value}`` mapping.

        Missing columns default to ``None``; unknown columns raise; NOT NULL
        violations raise :class:`IntegrityError`.
        """
        build = self.insert_builder(list(values_by_name))
        return build(tuple(values_by_name.values()))

    def insert_builder(self, column_names):
        """``build(values) -> storage tuple`` for values given in
        ``column_names`` order (a repeated name: its last value wins).

        Names resolve now, so an unknown one raises here; each call
        coerces the given values and checks every NOT NULL column.
        """
        slots = [
            (self.column_index(name), index)
            for name, index in dict(
                zip(column_names, range(len(column_names)))
            ).items()
        ]
        required = [
            idx for idx, column in enumerate(self.columns)
            if not column.nullable
        ]
        return self._builder(slots, required)

    def update_builder(self, column_names):
        """``build(values, old) -> storage tuple``: ``old`` with the
        columns ``column_names`` set to ``values`` (last one wins).

        Only the assigned columns are coerced and NOT NULL-checked; the
        others hold what a builder already accepted.
        """
        last = {}
        for index, name in enumerate(column_names):
            last[self.column_index(name)] = index
        slots = sorted(last.items())
        required = [idx for idx, _ in slots if not self.columns[idx].nullable]
        return self._builder(slots, required)

    def _builder(self, slots, required):
        coercions = [
            (idx, index, self.columns[idx].sql_type.coerce)
            for idx, index in slots
        ]
        width = len(self.columns)

        def build(values, old=None):
            row = [None] * width if old is None else list(old)
            for idx, index, coerce in coercions:
                try:
                    row[idx] = coerce(values[index])
                except (TypeError, ValueError) as exc:
                    raise IntegrityError(
                        "bad value for column {}.{}: {}".format(
                            self.name, self.columns[idx].name, exc
                        )
                    )
            for idx in required:
                if row[idx] is None:
                    raise IntegrityError(
                        "column {}.{} may not be NULL".format(
                            self.name, self.columns[idx].name
                        )
                    )
            return tuple(row)
        return build

    def pk_value(self, row):
        """Extract the primary-key tuple from a storage tuple, or ``None``."""
        if not self.primary_key:
            return None
        return tuple(row[i] for i in self._pk_positions)

    def pk_bound_by(self, lowered_names):
        """True when the table has a primary key and an equality probe
        binding the (lower-cased) columns ``lowered_names`` fixes all of it."""
        return bool(self._pk_lowered) and self._pk_lowered.issubset(
            lowered_names
        )

    def row_dict(self, row):
        """Convert a storage tuple to a ``{column: value}`` dict."""
        return {c.name: row[i] for i, c in enumerate(self.columns)}

    def __repr__(self):
        return "TableSchema({!r}, {} columns, pk={})".format(
            self.name, len(self.columns), self.primary_key
        )
