"""Secondary hash indexes.

An index maps a tuple of column values to the set of rowids whose version
chains *ever* contained that value.  Entries are inserted eagerly and only
removed by vacuum, so an index probe is a superset of the true result; the
statement plan rechecks both visibility and the predicate against the visible
version.  This "index as accelerator with recheck" design keeps the index
trivially correct under MVCC.
"""

from repro.errors import SchemaError


class HashIndex:
    """Equality index over one or more columns of a table."""

    def __init__(self, name, schema, column_names):
        if not column_names:
            raise SchemaError("index {!r} needs at least one column".format(name))
        self.name = name
        self.table_name = schema.name
        self.column_names = tuple(column_names)
        self._positions = tuple(schema.column_index(c) for c in column_names)
        self._lowered = frozenset(c.lower() for c in column_names)
        self._buckets = {}

    def key_for(self, values):
        """Extract the indexed value tuple from a storage tuple."""
        return tuple(values[i] for i in self._positions)

    def add(self, rowid, values):
        """Register ``rowid`` as possibly holding ``values``."""
        self._buckets.setdefault(self.key_for(values), set()).add(rowid)

    def probe(self, key):
        """Candidate rowids for the exact ``key`` tuple (superset)."""
        return self._buckets.get(tuple(key), set())

    def drop_rowids(self, rowids):
        """Remove vacuumed rowids from every bucket."""
        empty = []
        for key, bucket in self._buckets.items():
            bucket -= rowids
            if not bucket:
                empty.append(key)
        for key in empty:
            del self._buckets[key]

    def covers(self, lowered_names):
        """True when an equality probe binding the (lower-cased) columns
        ``lowered_names`` can use this index.

        The probe must bind *all* indexed columns (hash index -- no prefix
        scans).
        """
        return self._lowered.issubset(lowered_names)

    def __len__(self):
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self):
        return "HashIndex({!r} ON {}({}))".format(
            self.name, self.table_name, ", ".join(self.column_names)
        )
