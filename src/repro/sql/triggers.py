"""Row-level triggers.

The paper's Figure 3 race arises when KVS invalidation runs from an RDBMS
trigger ("One may implement these techniques using triggers in the RDBMS,
reducing a session to an RDBMS operation that performs the KVS operation as
a part of its execution").  This module provides exactly that hook: a
callable fired synchronously during DML execution, inside the transaction,
with the old and new row images.

Triggers can also be registered to fire *after commit*, which the baseline
clients use to model application-side invalidation ordered after the
transaction.
"""

import enum

from repro.errors import SchemaError


class TriggerEvent(enum.Enum):
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"


class TriggerTiming(enum.Enum):
    #: Fire synchronously as part of the DML statement (paper Figure 3).
    DURING = "during"
    #: Fire after the enclosing transaction commits.
    AFTER_COMMIT = "after commit"


class Trigger:
    """A registered trigger.

    ``callback(context, event, old_row, new_row)`` where rows are column
    dicts (``None`` for the absent side of insert/delete) and ``context``
    is the :class:`~repro.sql.engine.Connection` running the statement.
    """

    def __init__(self, name, table_name, events, callback,
                 timing=TriggerTiming.DURING):
        self.name = name
        self.table_name = table_name
        self.events = frozenset(events)
        self.callback = callback
        self.timing = timing

    def __repr__(self):
        return "Trigger({!r} ON {} {})".format(
            self.name,
            self.table_name,
            "/".join(sorted(e.value for e in self.events)),
        )


class TriggerRegistry:
    """Per-database registry of triggers, keyed by table and event."""

    def __init__(self):
        self._triggers = {}

    def register(self, trigger):
        table_triggers = self._triggers.setdefault(trigger.table_name.lower(), [])
        if any(t.name == trigger.name for t in table_triggers):
            raise SchemaError(
                "duplicate trigger {!r} on table {!r}".format(
                    trigger.name, trigger.table_name
                )
            )
        table_triggers.append(trigger)

    def unregister(self, table_name, trigger_name):
        table_triggers = self._triggers.get(table_name.lower(), [])
        remaining = [t for t in table_triggers if t.name != trigger_name]
        if len(remaining) == len(table_triggers):
            raise SchemaError(
                "no trigger {!r} on table {!r}".format(trigger_name, table_name)
            )
        self._triggers[table_name.lower()] = remaining

    def watches(self, table_key):
        """True when a trigger is attached to the (lower-cased) table:
        only then does a statement build row dicts for :meth:`fire`."""
        return bool(self._triggers.get(table_key))

    def fire(self, connection, table_name, event, old_row, new_row, tx):
        """Invoke matching triggers for one affected row."""
        for trigger in self._triggers.get(table_name.lower(), ()):
            if event not in trigger.events:
                continue
            if trigger.timing == TriggerTiming.DURING:
                trigger.callback(connection, event, old_row, new_row)
            else:
                callback = trigger.callback
                tx.on_commit.append(
                    lambda cb=callback, o=old_row, n=new_row: cb(
                        connection, event, o, n
                    )
                )

    def for_table(self, table_name):
        return list(self._triggers.get(table_name.lower(), ()))
