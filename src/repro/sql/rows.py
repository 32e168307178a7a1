"""Result row and result-set containers returned by ``execute``."""


class Columns:
    """A plan's output column names and their case-insensitive positions.

    Built once per plan and shared by every :class:`Row` it returns (a
    later name wins a case-insensitive clash).
    """

    __slots__ = ("names", "positions")

    def __init__(self, names):
        self.names = tuple(names)
        self.positions = {n.lower(): i for i, n in enumerate(self.names)}


class Row:
    """A single result row with case-insensitive column access.

    Supports ``row["name"]``, ``row.name``, iteration over values in
    select-list order, and comparison against plain dicts in tests.
    ``values`` is a tuple in the order of ``columns.names``.
    """

    __slots__ = ("_columns", "_values")

    def __init__(self, columns, values):
        self._columns = columns
        self._values = values

    def __getitem__(self, key):
        if isinstance(key, int):
            return self._values[key]
        return self._values[self._columns.positions[key.lower()]]

    def __getattr__(self, name):
        try:
            return self._values[self._columns.positions[name.lower()]]
        except KeyError:
            raise AttributeError(name)

    def get(self, key, default=None):
        index = self._columns.positions.get(key.lower())
        return self._values[index] if index is not None else default

    def keys(self):
        return list(self._columns.names)

    def values(self):
        return list(self._values)

    def items(self):
        return list(zip(self._columns.names, self._values))

    def as_dict(self):
        return dict(zip(self._columns.names, self._values))

    def __iter__(self):
        return iter(self._values)

    def __len__(self):
        return len(self._values)

    def __eq__(self, other):
        if isinstance(other, Row):
            return self.items() == other.items()
        if isinstance(other, dict):
            return self.as_dict() == other
        if isinstance(other, (tuple, list)):
            return list(self._values) == list(other)
        return NotImplemented

    def __hash__(self):
        return hash((self._columns.names, self._values))

    def __repr__(self):
        return "Row({})".format(
            ", ".join("{}={!r}".format(n, v) for n, v in self.items())
        )


class ResultSet:
    """Rows plus the affected-row count of a statement."""

    def __init__(self, rows=(), rowcount=0):
        self.rows = list(rows)
        self.rowcount = rowcount

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)

    def __getitem__(self, index):
        return self.rows[index]

    def first(self):
        """The first row, or ``None`` when the result is empty."""
        return self.rows[0] if self.rows else None

    def scalar(self):
        """The single value of a single-row, single-column result."""
        first = self.first()
        if first is None:
            return None
        return first[0]

    def __repr__(self):
        return "ResultSet({} rows, rowcount={})".format(
            len(self.rows), self.rowcount
        )
