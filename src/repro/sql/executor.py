"""Statement execution against the versioned storage.

The executor is deliberately simple: single-table access through the
primary-key map or a hash index when the WHERE clause binds all of its
columns by equality, a heap scan otherwise, and hash joins for ``INNER
JOIN ... ON`` equality conditions.  Every access path rechecks visibility
and the full predicate, so the pk map and the indexes may be stale
supersets (see :mod:`repro.sql.indexes`).
"""

from repro.errors import SchemaError, SQLError
from repro.sql import ast
from repro.sql import expressions as ex
from repro.sql.rows import ResultSet, Row
from repro.sql.triggers import TriggerEvent


class Executor:
    """Executes parsed statements for one :class:`~repro.sql.engine.Database`."""

    def __init__(self, database):
        self.db = database

    # -- dispatch ------------------------------------------------------------

    def execute(self, connection, statement, params):
        tx = connection._current_tx()
        if isinstance(statement, ast.Select):
            return self._select(connection, tx, statement, params)
        if isinstance(statement, ast.Insert):
            return self._insert(connection, tx, statement, params)
        if isinstance(statement, ast.Update):
            return self._update(connection, tx, statement, params)
        if isinstance(statement, ast.Delete):
            return self._delete(connection, tx, statement, params)
        raise SQLError("executor cannot run {}".format(type(statement).__name__))

    # -- access paths ----------------------------------------------------------

    def _candidate_rows(self, tx, storage, alias, where, params):
        """Yield ``(rowid, values)`` of visible rows that may satisfy ``where``.

        The columns ``where`` binds by equality choose the access path: the
        primary-key map when they cover the key, else the covering index
        that binds the most columns, else the whole heap.  The first two
        are supersets probed and rechecked the same way; every caller
        applies the full predicate to what comes back.
        """
        db = self.db
        schema = storage.schema
        bound = {}
        for qualifier, column, value_expr in ex.equality_bindings(where):
            if qualifier is not None and qualifier != alias:
                continue
            if not schema.has_column(column):
                continue
            bound.setdefault(column.lower(), value_expr)
        columns = probe = None
        if schema.pk_bound_by(bound.keys()):
            columns, probe = schema.primary_key, storage.pk_probe
            db.pk_probes += 1
        else:
            covering = [i for i in storage.indexes if i.covers(bound.keys())]
            if covering:
                index = max(covering, key=lambda i: len(i.column_names))
                columns, probe = index.column_names, index.probe
                db.index_probes += 1
        if probe is None:
            return self._full_scan(tx, storage)
        ctx = ex.EvalContext(params=params)
        rowids = probe(
            tuple(bound[c.lower()].evaluate(ctx) for c in columns)
        )
        db.rows_examined += len(rowids)
        return storage.scan_rowids(tx, rowids)

    def _full_scan(self, tx, storage):
        self.db.full_scans += 1
        self.db.rows_examined += storage.row_count()
        return storage.scan(tx)

    def _filter(self, rows_env_iter, where, params):
        for rows_by_alias, default_rows in rows_env_iter:
            ctx = ex.EvalContext(rows_by_alias, default_rows, params)
            if where is None or ex.is_true(where.evaluate(ctx)):
                yield ctx

    # -- SELECT -----------------------------------------------------------------

    def _select(self, connection, tx, statement, params):
        base_storage = self.db.storage(statement.table_ref.table)
        base_alias = statement.table_ref.alias

        def base_envs():
            for _rowid, values in self._candidate_rows(
                tx, base_storage, base_alias, statement.where, params
            ):
                row = base_storage.schema.row_dict(values)
                yield {base_alias: row}, [row]

        envs = base_envs()
        for join in statement.joins:
            envs = self._hash_join(tx, envs, join, params)

        matched = self._filter(envs, statement.where, params)

        has_aggregates = any(
            isinstance(i, ast.SelectItem) and i.aggregate
            for i in statement.items
        )
        if statement.group_by or has_aggregates:
            return self._grouped(statement, matched, params)

        contexts = list(matched)
        if statement.distinct:
            return self._distinct(statement, contexts, params)
        if statement.order_by:
            contexts = self._sort_contexts(contexts, statement.order_by)
        if statement.limit is not None:
            limit = statement.limit.evaluate(ex.EvalContext(params=params))
            contexts = contexts[: max(0, int(limit))]

        out_names, out_rows = self._project(statement, contexts)
        rows = [Row(out_names, values) for values in out_rows]
        return ResultSet(rows, rowcount=len(rows))

    def _distinct(self, statement, contexts, params):
        """SELECT DISTINCT: project, dedupe, then order over the output.

        Per the standard, ORDER BY under DISTINCT may only reference
        select-list columns, so sorting happens on the projected rows.
        """
        out_names, out_rows = self._project(statement, contexts)
        seen = set()
        deduped = []
        for values in out_rows:
            if values not in seen:
                seen.add(values)
                deduped.append(values)
        deduped = self._order_output(statement, out_names, deduped, params)
        if statement.limit is not None:
            limit = statement.limit.evaluate(ex.EvalContext(params=params))
            deduped = deduped[: max(0, int(limit))]
        rows = [Row(out_names, values) for values in deduped]
        return ResultSet(rows, rowcount=len(rows))

    def _grouped(self, statement, contexts, params):
        """GROUP BY (or whole-result) aggregation with HAVING.

        Non-aggregate select items are evaluated on the group's first row
        (they must be functionally dependent on the grouping keys, as in
        MySQL's traditional mode).  ``HAVING`` is evaluated against the
        projected output row, so it references select-list aliases, e.g.
        ``SELECT cid, COUNT(*) AS n FROM t GROUP BY cid HAVING n > 1``.
        """
        if not statement.group_by:
            for item in statement.items:
                if isinstance(item, ast.Star) or not item.aggregate:
                    raise SQLError(
                        "cannot mix aggregates with plain columns without "
                        "GROUP BY"
                    )
        groups = {}
        order = []
        for ctx in contexts:
            if statement.group_by:
                key = tuple(expr.evaluate(ctx) for expr in statement.group_by)
            else:
                key = ()
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = bucket = []
                order.append(key)
            bucket.append(ctx)
        if not statement.group_by and not groups:
            groups[()] = []
            order.append(())

        names = []
        for item in statement.items:
            if isinstance(item, ast.Star):
                raise SQLError("SELECT * is not valid with GROUP BY")
            names.append(item.alias or (item.aggregate or "expr"))

        out_rows = []
        for key in order:
            bucket = groups[key]
            values = []
            for item in statement.items:
                if item.aggregate:
                    accumulator = _Aggregate(item.aggregate, item.expr)
                    for ctx in bucket:
                        accumulator.feed(ctx)
                    values.append(accumulator.result())
                else:
                    if not bucket:
                        values.append(None)
                    else:
                        values.append(item.expr.evaluate(bucket[0]))
            out_rows.append(tuple(values))

        if statement.having is not None:
            kept = []
            for values in out_rows:
                row = dict(zip(names, values))
                ctx = ex.EvalContext({"": row}, [row], params)
                if ex.is_true(statement.having.evaluate(ctx)):
                    kept.append(values)
            out_rows = kept

        out_rows = self._order_output(statement, names, out_rows, params)
        if statement.limit is not None:
            limit = statement.limit.evaluate(ex.EvalContext(params=params))
            out_rows = out_rows[: max(0, int(limit))]
        rows = [Row(names, values) for values in out_rows]
        return ResultSet(rows, rowcount=len(rows))

    def _order_output(self, statement, names, out_rows, params):
        """ORDER BY evaluated over projected output rows."""
        if not statement.order_by:
            return out_rows
        result = list(out_rows)
        for item in reversed(statement.order_by):
            def sort_key(values, expr=item.expr):
                row = dict(zip(names, values))
                ctx = ex.EvalContext({"": row}, [row], params)
                value = expr.evaluate(ctx)
                return (value is None, value)

            result.sort(key=sort_key, reverse=not item.ascending)
        return result

    def _hash_join(self, tx, envs, join, params):
        """Join the accumulated environments with one INNER JOIN clause.

        Equality joins (``ON a.x = b.y``) build a hash table over the joined
        table; non-equality conditions fall back to a nested loop.
        """
        storage = self.db.storage(join.table_ref.table)
        alias = join.table_ref.alias
        schema = storage.schema
        condition = join.condition

        probe_expr = build_expr = None
        if isinstance(condition, ex.Comparison) and condition.op == "=":
            left_refs = list(condition.left.references())
            right_refs = list(condition.right.references())
            def _binds_only_new(refs):
                return refs and all(
                    (q is None and schema.has_column(c)) or q == alias
                    for q, c in refs
                )
            if _binds_only_new(right_refs) and not _binds_only_new(left_refs):
                probe_expr, build_expr = condition.left, condition.right
            elif _binds_only_new(left_refs) and not _binds_only_new(right_refs):
                probe_expr, build_expr = condition.right, condition.left

        joined_rows = [
            schema.row_dict(values)
            for _rowid, values in self._full_scan(tx, storage)
        ]

        if build_expr is not None:
            buckets = {}
            for row in joined_rows:
                ctx = ex.EvalContext({alias: row}, [row], params)
                buckets.setdefault(build_expr.evaluate(ctx), []).append(row)

            def generator():
                for rows_by_alias, default_rows in envs:
                    ctx = ex.EvalContext(rows_by_alias, default_rows, params)
                    key = probe_expr.evaluate(ctx)
                    for row in buckets.get(key, ()):
                        merged = dict(rows_by_alias)
                        merged[alias] = row
                        yield merged, default_rows + [row]

            return generator()

        def nested_loop():
            for rows_by_alias, default_rows in envs:
                for row in joined_rows:
                    merged = dict(rows_by_alias)
                    merged[alias] = row
                    ctx = ex.EvalContext(merged, default_rows + [row], params)
                    if ex.is_true(condition.evaluate(ctx)):
                        yield merged, default_rows + [row]

        return nested_loop()

    def _project(self, statement, contexts):
        """Evaluate the select list; returns (names, list-of-value-tuples)."""
        names = None
        out_rows = []
        for ctx in contexts:
            values = []
            row_names = []
            for item in statement.items:
                if isinstance(item, ast.Star):
                    if item.qualifier is not None:
                        rows = [
                            (item.qualifier, ctx.rows.get(item.qualifier))
                        ]
                        if rows[0][1] is None:
                            raise SchemaError(
                                "unknown alias {!r}".format(item.qualifier)
                            )
                    else:
                        rows = list(ctx.rows.items())
                    for _alias, row in rows:
                        for column, value in row.items():
                            row_names.append(column)
                            values.append(value)
                else:
                    row_names.append(item.alias or "expr")
                    values.append(item.expr.evaluate(ctx))
            if names is None:
                names = row_names
            out_rows.append(tuple(values))
        if names is None:
            names = self._static_names(statement)
        return names, out_rows

    def _static_names(self, statement):
        """Column names for an empty result (no context to expand ``*``)."""
        names = []
        for item in statement.items:
            if isinstance(item, ast.Star):
                table = (
                    self.db.schema_of(statement.table_ref.table)
                    if item.qualifier in (None, statement.table_ref.alias)
                    else None
                )
                if item.qualifier is None:
                    names.extend(
                        self.db.schema_of(statement.table_ref.table).column_names()
                    )
                    for join in statement.joins:
                        names.extend(
                            self.db.schema_of(join.table_ref.table).column_names()
                        )
                elif table is not None:
                    names.extend(table.column_names())
                else:
                    for join in statement.joins:
                        if join.table_ref.alias == item.qualifier:
                            names.extend(
                                self.db.schema_of(
                                    join.table_ref.table
                                ).column_names()
                            )
            else:
                names.append(item.alias or "expr")
        return names

    def _sort_contexts(self, contexts, order_by):
        """Sort row contexts by the ORDER BY expressions.

        Sorting happens *before* projection, so expressions may reference
        columns that are not in the select list.  Python's sort is stable,
        so sorting from the last key to the first composes per-key
        directions.  NULLs sort last ascending (first descending), as in
        PostgreSQL.
        """
        result = list(contexts)
        for item in reversed(order_by):
            def sort_key(ctx, expr=item.expr):
                value = expr.evaluate(ctx)
                return (value is None, value)

            result.sort(key=sort_key, reverse=not item.ascending)
        return result

    # -- DML ------------------------------------------------------------------

    def _insert(self, connection, tx, statement, params):
        storage = self.db.storage(statement.table)
        schema = storage.schema
        inserted = 0
        ctx = ex.EvalContext(params=params)
        for row_exprs in statement.rows:
            values_by_name = {
                column: expr.evaluate(ctx)
                for column, expr in zip(statement.columns, row_exprs)
            }
            values = schema.coerce_row(values_by_name)
            storage.insert(tx, values)
            inserted += 1
            self.db.rows_written += 1
            self.db.triggers.fire(
                connection, statement.table, TriggerEvent.INSERT,
                None, schema.row_dict(values), tx,
            )
        return ResultSet(rowcount=inserted)

    def _match_rowids(self, tx, storage, alias, where, params):
        """Materialize matching (rowid, values) pairs before mutating."""
        matches = []
        for rowid, values in self._candidate_rows(
            tx, storage, alias, where, params
        ):
            row = storage.schema.row_dict(values)
            ctx = ex.EvalContext({alias: row}, [row], params)
            if where is None or ex.is_true(where.evaluate(ctx)):
                matches.append((rowid, values))
        return matches

    def _update(self, connection, tx, statement, params):
        storage = self.db.storage(statement.table)
        schema = storage.schema
        alias = statement.table.lower()
        updated = 0
        for rowid, values in self._match_rowids(
            tx, storage, alias, statement.where, params
        ):
            old_row = schema.row_dict(values)
            ctx = ex.EvalContext({alias: old_row}, [old_row], params)
            new_row = dict(old_row)
            for column, expr in statement.assignments:
                new_row[schema.column(column).name] = expr.evaluate(ctx)
            new_values = schema.coerce_row(new_row)
            result = storage.update(tx, rowid, new_values)
            if result is None:
                continue
            updated += 1
            self.db.rows_written += 1
            self.db.triggers.fire(
                connection, statement.table, TriggerEvent.UPDATE,
                old_row, schema.row_dict(new_values), tx,
            )
        return ResultSet(rowcount=updated)

    def _delete(self, connection, tx, statement, params):
        storage = self.db.storage(statement.table)
        schema = storage.schema
        alias = statement.table.lower()
        deleted = 0
        for rowid, values in self._match_rowids(
            tx, storage, alias, statement.where, params
        ):
            result = storage.delete(tx, rowid)
            if result is None:
                continue
            deleted += 1
            self.db.rows_written += 1
            self.db.triggers.fire(
                connection, statement.table, TriggerEvent.DELETE,
                schema.row_dict(values), None, tx,
            )
        return ResultSet(rowcount=deleted)


class _Aggregate:
    """Streaming accumulator for one aggregate select item."""

    def __init__(self, func, expr):
        self.func = func
        self.expr = expr
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None

    def feed(self, ctx):
        if self.expr is None:
            self.count += 1
            return
        value = self.expr.evaluate(ctx)
        if value is None:
            return
        self.count += 1
        self.total += value if isinstance(value, (int, float)) else 0
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def result(self):
        if self.func == "count":
            return self.count
        if self.func == "sum":
            return self.total if self.count else None
        if self.func == "min":
            return self.minimum
        if self.func == "max":
            return self.maximum
        if self.func == "avg":
            return self.total / self.count if self.count else None
        raise SQLError("unknown aggregate {!r}".format(self.func))
