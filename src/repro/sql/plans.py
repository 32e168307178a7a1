"""Statement plans: every cached statement compiled once into a closure.

:func:`compile_statement` resolves what does not depend on the data --
column positions, the access path, the probe-key builder, the output
names -- and returns ``plan(connection, tx, params)``, which runs the
statement and returns a :class:`~repro.sql.rows.ResultSet`.  The engine
checks ``params`` against the parser's placeholder count first, so no
closure bounds-checks a ``?``.
Predicates, assignments, projections and sort keys are closures over
storage tuples (:mod:`repro.sql.expressions`).  Rows come from
:meth:`~repro.sql.storage.TableStorage.scan` and
:meth:`~repro.sql.storage.TableStorage.scan_rowids`, which apply the one
visibility rule.  The engine runs plans under its latch and drops them
all on DDL, so a plan never outlives the tables and indexes it chose.

Access paths: the columns the WHERE clause binds by equality choose the
primary-key map when they cover the key, else the covering index that
binds the most columns (the first created wins a tie), else the heap.
The pk map and the indexes are supersets, so every plan rechecks the
full predicate on what they return (see :mod:`repro.sql.indexes`).

Joins: ``INNER JOIN ... ON a.x = b.y`` hashes the joined table, any other
condition runs a nested loop; a joined row is the concatenation of its
tables' tuples.  A NULL join key matches nothing.
"""

from operator import itemgetter

from repro.errors import SQLError
from repro.sql import ast
from repro.sql import expressions as ex
from repro.sql.rows import Columns, ResultSet, Row
from repro.sql.triggers import TriggerEvent


def compile_statement(db, statement):
    """The plan for a parsed SELECT, INSERT, UPDATE or DELETE."""
    compiler = _COMPILERS.get(type(statement))
    if compiler is None:
        raise SQLError("cannot plan {}".format(type(statement).__name__))
    return compiler(db, statement)


# -- access paths -------------------------------------------------------------


def _heap(db, storage):
    """``source(tx, params)``: every visible ``(rowid, values)``."""
    def heap(tx, params):
        db.full_scans += 1
        db.rows_examined += storage.row_count()
        return storage.scan(tx)
    return heap


def _key_builder(exprs, scope):
    """``key_of(params)``: the probe tuple (``exprs`` read no columns)."""
    if all(isinstance(expr, ex.Param) for expr in exprs):
        if len(exprs) == 1:
            index = exprs[0].index

            def one_param(params):
                return (params[index],)
            return one_param
        return itemgetter(*[expr.index for expr in exprs])
    parts = [expr.compile(scope) for expr in exprs]

    def computed(params):
        return tuple([part(None, params) for part in parts])
    return computed


def _access_path(db, storage, alias, where, scope):
    """``source(tx, params)``: the visible ``(rowid, values)`` that may
    satisfy ``where``, through the path its equality bindings allow."""
    schema = storage.schema
    bound = {}
    for qualifier, column, value_expr in ex.equality_bindings(where):
        if qualifier is not None and qualifier != alias:
            continue
        if schema.has_column(column):
            bound.setdefault(column.lower(), value_expr)
    by_pk = schema.pk_bound_by(bound)
    if by_pk:
        columns, probe = schema.primary_key, storage.pk_probe
    else:
        covering = [index for index in storage.indexes if index.covers(bound)]
        if not covering:
            return _heap(db, storage)
        index = max(covering, key=lambda i: len(i.column_names))
        columns, probe = index.column_names, index.probe
    key_of = _key_builder([bound[c.lower()] for c in columns], scope)
    scan_rowids = storage.scan_rowids

    def probed(tx, params):
        if by_pk:
            db.pk_probes += 1
        else:
            db.index_probes += 1
        rowids = probe(key_of(params))
        db.rows_examined += len(rowids)
        return scan_rowids(tx, rowids)
    return probed


def _matching(db, storage, alias, where, scope):
    """``matching(tx, params)``: the ``(rowid, values)`` a single-table
    UPDATE/DELETE targets, collected before anything changes."""
    source = _access_path(db, storage, alias, where, scope)
    test = None if where is None else where.compile(scope)

    def matching(tx, params):
        return [
            (rowid, values) for rowid, values in source(tx, params)
            if test is None or test(values, params) is True
        ]
    return matching


# -- SELECT -------------------------------------------------------------------


def _compile_select(db, statement):
    refs = [statement.table_ref] + [join.table_ref for join in statement.joins]
    storages = [db.storage(ref.table) for ref in refs]
    layout = [
        (ref.alias, storage.schema.column_names())
        for ref, storage in zip(refs, storages)
    ]
    scope = ex.Scope(layout)
    fetch = _fetch(db, statement, storages, layout, scope)
    aggregated = any(
        isinstance(item, ast.SelectItem) and item.aggregate
        for item in statement.items
    )
    width = sum(len(names) for _, names in layout)
    if statement.group_by or aggregated:
        names, shape = _grouped(statement, scope)
    elif statement.distinct:
        names, shape = _distinct(statement, scope, width)
    else:
        names, shape = _plain(statement, scope, width)
    columns = Columns(names)

    def select(connection, tx, params):
        out = shape(fetch(tx, params), params)
        return ResultSet([Row(columns, values) for values in out], len(out))
    return select


def _fetch(db, statement, storages, layout, scope):
    """``fetch(tx, params)``: the joined rows that pass WHERE."""
    source = _access_path(
        db, storages[0], statement.table_ref.alias, statement.where, scope
    )
    test = None if statement.where is None else statement.where.compile(scope)
    if not statement.joins:
        def table(tx, params):
            return [
                values for _rowid, values in source(tx, params)
                if test is None or test(values, params) is True
            ]
        return table
    steps = [
        _join(db, storages[i], join, layout, i)
        for i, join in enumerate(statement.joins, 1)
    ]

    def joined(tx, params):
        rows = [values for _rowid, values in source(tx, params)]
        for step in steps:
            rows = step(rows, tx, params)
        if test is None:
            return rows
        return [row for row in rows if test(row, params) is True]
    return joined


def _join(db, storage, join, layout, i):
    """``step(rows, tx, params)``: ``rows`` (tables ``layout[:i]``) joined
    with ``layout[i]``'s table under ``join.condition``.

    ``ON x = y`` hashes when one side reads only the joined table and the
    other none of it (names resolve as everywhere else: an unqualified
    column belongs to the first table that has it).
    """
    heap = _heap(db, storage)
    condition = join.condition
    scope = ex.Scope(layout[:i + 1])
    first_new = sum(len(names) for _, names in layout[:i])

    def reads_new(expr):
        return [
            scope.position(q, c) >= first_new for q, c in expr.references()
        ]

    if isinstance(condition, ex.Comparison) and condition.op == "=":
        sides = (condition.right, condition.left)
        for build, probe in (sides, sides[::-1]):
            build_reads = reads_new(build)
            if build_reads and all(build_reads) and not any(reads_new(probe)):
                build_of = build.compile(ex.Scope(layout[i:i + 1]))
                probe_of = probe.compile(ex.Scope(layout[:i]))
                return _hash_join(heap, build_of, probe_of)
    test = condition.compile(scope)

    def nested_loop(rows, tx, params):
        joined = [values for _rowid, values in heap(tx, params)]
        out = []
        for row in rows:
            for values in joined:
                combined = row + values
                if test(combined, params) is True:
                    out.append(combined)
        return out
    return nested_loop


def _hash_join(heap, build_of, probe_of):
    """Bucket the joined table by ``build_of``; each row meets the bucket
    its ``probe_of`` value names (a NULL key is in no bucket)."""
    def hash_join(rows, tx, params):
        buckets = {}
        for _rowid, values in heap(tx, params):
            key = build_of(values, params)
            if key is not None:
                buckets.setdefault(key, []).append(values)
        return [
            row + values for row in rows
            for values in buckets.get(probe_of(row, params), ())
        ]
    return hash_join


def _projection(items, scope, width):
    """``(names, project)``: ``project(rows, params)`` evaluates the select
    list over each row; ``width`` is the row's length."""
    names = []
    parts = []
    for item in items:
        if isinstance(item, ast.Star):
            for name, position in scope.star(item.qualifier):
                names.append(name)
                parts.append(("col", position))
        else:
            names.append(item.alias or "expr")
            parts.append(item.expr.inline(scope))
    if all(kind == "col" for kind, _ in parts):
        positions = [position for _, position in parts]
        if positions == list(range(width)):
            def whole(rows, params):
                return rows
            return names, whole
        if len(positions) == 1:
            position = positions[0]

            def one_column(rows, params):
                return [(row[position],) for row in rows]
            return names, one_column
        getter = itemgetter(*positions)

        def columns(rows, params):
            return list(map(getter, rows))
        return names, columns
    readers = [ex.reader(kind, payload) for kind, payload in parts]

    def computed(rows, params):
        return [
            tuple([read(row, params) for read in readers]) for row in rows
        ]
    return names, computed


def _sort_key(read, params):
    def key(row):
        value = read(row, params)
        return (value is None, value)
    return key


def _sorter(order_by, scope):
    """``sort(rows, params)`` in place by the ORDER BY keys, or ``None``.

    Python's sort is stable, so sorting by the last key first composes
    the keys' directions.  NULLs sort last ascending (first descending),
    as in PostgreSQL.
    """
    if not order_by:
        return None
    keys = [
        (item.expr.compile(scope), not item.ascending)
        for item in reversed(order_by)
    ]

    def sort(rows, params):
        try:
            for read, descending in keys:
                rows.sort(key=_sort_key(read, params), reverse=descending)
        except TypeError as exc:
            raise SQLError("cannot order rows: {}".format(exc))
    return sort


def _limiter(limit, scope):
    """``limit_of(params)``: the LIMIT count, or ``None`` without one."""
    if limit is None:
        return None
    count_of = limit.compile(scope)

    def limit_of(params):
        count = count_of(None, params)
        try:
            return max(0, int(count))
        except (TypeError, ValueError):
            raise SQLError("LIMIT needs a number, got {!r}".format(count))
    return limit_of


def _plain(statement, scope, width):
    """Sort (over whole rows, so keys may name unselected columns),
    limit, then project."""
    names, project = _projection(statement.items, scope, width)
    sort = _sorter(statement.order_by, scope)
    limit_of = _limiter(statement.limit, scope)

    def shape(rows, params):
        if sort is not None:
            sort(rows, params)
        if limit_of is not None:
            rows = rows[:limit_of(params)]
        return project(rows, params)
    return names, shape


def _distinct(statement, scope, width):
    """SELECT DISTINCT: project, dedupe, then order over the output.

    Per the standard, ORDER BY under DISTINCT may only reference
    select-list columns, so sorting happens on the projected rows.
    """
    names, project = _projection(statement.items, scope, width)
    sort = _sorter(statement.order_by, ex.Scope([("", names)]))
    limit_of = _limiter(statement.limit, scope)

    def shape(rows, params):
        out = list(dict.fromkeys(project(rows, params)))
        if sort is not None:
            sort(out, params)
        if limit_of is not None:
            out = out[:limit_of(params)]
        return out
    return names, shape


def _grouped(statement, scope):
    """GROUP BY (or whole-result) aggregation with HAVING.

    Non-aggregate select items are evaluated on the group's first row
    (they must be functionally dependent on the grouping keys, as in
    MySQL's traditional mode).  ``HAVING`` and ``ORDER BY`` read the
    projected output row, so they reference select-list aliases, e.g.
    ``SELECT cid, COUNT(*) AS n FROM t GROUP BY cid HAVING n > 1``.
    """
    if not statement.group_by:
        for item in statement.items:
            if isinstance(item, ast.Star) or not item.aggregate:
                raise SQLError(
                    "cannot mix aggregates with plain columns without "
                    "GROUP BY"
                )
    names = []
    for item in statement.items:
        if isinstance(item, ast.Star):
            raise SQLError("SELECT * is not valid with GROUP BY")
        names.append(item.alias or (item.aggregate or "expr"))
    keys = [expr.compile(scope) for expr in statement.group_by]
    items = [
        (item.aggregate,
         None if item.expr is None else item.expr.compile(scope))
        for item in statement.items
    ]
    output = ex.Scope([("", names)])
    having = None if statement.having is None else statement.having.compile(
        output
    )
    sort = _sorter(statement.order_by, output)
    limit_of = _limiter(statement.limit, scope)
    whole_result = not statement.group_by

    def shape(rows, params):
        groups = {}
        for row in rows:
            key = tuple([key_of(row, params) for key_of in keys])
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
            bucket.append(row)
        if whole_result and not groups:
            groups[()] = []
        out = [
            tuple([
                _aggregate(func, value_of, bucket, params) if func
                else value_of(bucket[0], params)
                for func, value_of in items
            ])
            for bucket in groups.values()
        ]
        if having is not None:
            out = [values for values in out if having(values, params) is True]
        if sort is not None:
            sort(out, params)
        if limit_of is not None:
            out = out[:limit_of(params)]
        return out
    return names, shape


def _aggregate(func, value_of, rows, params):
    """One aggregate over a group; NULLs are skipped, SUM/AVG add the
    numbers, an empty input gives 0 for COUNT and NULL otherwise."""
    if value_of is None:  # COUNT(*)
        return len(rows)
    count = 0
    total = 0
    low = high = None
    try:
        for row in rows:
            value = value_of(row, params)
            if value is None:
                continue
            count += 1
            if isinstance(value, (int, float)):
                total += value
            if low is None or value < low:
                low = value
            if high is None or value > high:
                high = value
    except TypeError as exc:
        raise SQLError("cannot aggregate {}: {}".format(func.upper(), exc))
    if func == "count":
        return count
    if func == "sum":
        return total if count else None
    if func == "min":
        return low
    if func == "max":
        return high
    if func == "avg":
        return total / count if count else None
    raise SQLError("unknown aggregate {!r}".format(func))


# -- DML ----------------------------------------------------------------------


def _values_of(exprs, scope):
    """``values_of(row, params)``: the tuple of ``exprs`` over ``row``."""
    readers = [expr.compile(scope) for expr in exprs]

    def values_of(row, params):
        return tuple([read(row, params) for read in readers])
    return values_of


def _compile_insert(db, statement):
    """Each VALUES row of placeholders and literals becomes one
    ``itemgetter`` over ``params + literals``, so a plan's size follows
    the statement's width, not one closure per value; only a computed
    value (``? + 1``) compiles to a closure."""
    storage = db.storage(statement.table)
    schema = storage.schema
    build = schema.insert_builder(statement.columns)
    scope = ex.Scope([])
    needed = statement.param_count
    consts = []
    rows = []
    for exprs in statement.rows:
        parts = [expr.inline(scope) for expr in exprs]
        if any(kind not in ("param", "const") for kind, _ in parts):
            rows.append((None, _values_of(exprs, scope)))
            continue
        slots = []
        for kind, payload in parts:
            if kind == "const":
                slots.append(needed + len(consts))
                consts.append(payload)
            else:
                slots.append(payload)
        rows.append((itemgetter(*slots), None))
    consts = tuple(consts)
    single = len(statement.columns) == 1
    table = statement.table
    table_key = table.lower()
    triggers = db.triggers

    def insert(connection, tx, params):
        bound = params[:needed] + consts if consts else params
        for getter, values_of in rows:
            if getter is None:
                values = build(values_of(None, params))
            elif single:
                values = build((getter(bound),))
            else:
                values = build(getter(bound))
            storage.insert(tx, values)
            db.rows_written += 1
            if triggers.watches(table_key):
                triggers.fire(
                    connection, table, TriggerEvent.INSERT,
                    None, schema.row_dict(values), tx,
                )
        return ResultSet(rowcount=len(rows))
    return insert


def _compile_update(db, statement):
    storage = db.storage(statement.table)
    schema = storage.schema
    alias = statement.table.lower()
    scope = ex.Scope([(alias, schema.column_names())])
    columns = [column for column, _ in statement.assignments]
    build = schema.update_builder(columns)
    assigned = _values_of([expr for _, expr in statement.assignments], scope)
    matching = _matching(db, storage, alias, statement.where, scope)
    table = statement.table
    triggers = db.triggers

    def update(connection, tx, params):
        updated = 0
        for rowid, values in matching(tx, params):
            new_values = build(assigned(values, params), values)
            if storage.update(tx, rowid, new_values) is None:
                continue
            updated += 1
            db.rows_written += 1
            if triggers.watches(alias):
                triggers.fire(
                    connection, table, TriggerEvent.UPDATE,
                    schema.row_dict(values), schema.row_dict(new_values), tx,
                )
        return ResultSet(rowcount=updated)
    return update


def _compile_delete(db, statement):
    storage = db.storage(statement.table)
    schema = storage.schema
    alias = statement.table.lower()
    scope = ex.Scope([(alias, schema.column_names())])
    matching = _matching(db, storage, alias, statement.where, scope)
    table = statement.table
    triggers = db.triggers

    def delete(connection, tx, params):
        deleted = 0
        for rowid, values in matching(tx, params):
            if storage.delete(tx, rowid) is None:
                continue
            deleted += 1
            db.rows_written += 1
            if triggers.watches(alias):
                triggers.fire(
                    connection, table, TriggerEvent.DELETE,
                    schema.row_dict(values), None, tx,
                )
        return ResultSet(rowcount=deleted)
    return delete


_COMPILERS = {
    ast.Select: _compile_select,
    ast.Insert: _compile_insert,
    ast.Update: _compile_update,
    ast.Delete: _compile_delete,
}
