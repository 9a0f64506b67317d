"""The row-at-a-time executor interpreter, kept as the oracle for the planned one.

This is ``repro.storage.executor.Executor`` as it was before executions
were planned: every predicate is interpreted per row, column names are
looked up per cell, subqueries re-run for every row that reaches them and
temporal cells are re-parsed on every execution.  The differential tests
assert the planned executor returns exactly what this one does: the same
columns, rows, row order, cell types and error text.  Result caching is
not part of the oracle; ``execute`` always runs the query.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.grammar.ast_nodes import (
    Attribute,
    Between,
    Comparison,
    Group,
    InSubquery,
    Like,
    LogicalPredicate,
    Predicate,
    QueryCore,
    SetQuery,
    SQLQuery,
    SubqueryComparison,
    VisQuery,
)
from repro.storage.executor import ExecutionError, ResultTable
from repro.storage.schema import Database, SchemaError
from repro.storage.temporal import bin_temporal, weekday_sort_key


def execute(database: Database, query: Union[SQLQuery, VisQuery]) -> ResultTable:
    """Run *query* over *database* with the interpreter."""
    return Executor(database).execute(query)


@dataclass
class _Frame:
    """A working relation: cell access by qualified column name."""

    columns: Dict[str, int] = field(default_factory=dict)
    rows: List[tuple] = field(default_factory=list)

    def value(self, row: tuple, qualified: str) -> object:
        try:
            return row[self.columns[qualified]]
        except KeyError:
            raise ExecutionError(f"unknown column {qualified!r}") from None


_MISSING_BIN = object()


class Executor:
    """Interprets AST queries against one :class:`Database`, row by row."""

    def __init__(self, database: Database):
        self.database = database

    def execute(self, query: Union[SQLQuery, VisQuery]) -> ResultTable:
        """Run *query* and return its result table."""
        return self._execute(query)

    def _execute(self, query: Union[SQLQuery, VisQuery]) -> ResultTable:
        body = query.body
        if isinstance(body, SetQuery):
            left = self.execute_core(body.left)
            right = self.execute_core(body.right)
            return _apply_set_op(body.op, left, right)
        return self.execute_core(body)

    def execute_core(self, core: QueryCore) -> ResultTable:
        """Run one query core: join, filter, group, order, project."""
        frame = self._build_frame(core)
        rows = frame.rows
        where_pred, having_pred = _split_filter(core)
        if where_pred is not None:
            rows = [
                row for row in rows if self._eval_predicate(where_pred, frame, row)
            ]
        sort_orders: Dict[str, Dict[str, float]] = {}
        if core.groups or any(attr.is_aggregated for attr in core.select):
            out_rows = self._aggregate(core, frame, rows, sort_orders, having_pred)
        else:
            if having_pred is not None:
                raise ExecutionError(
                    "aggregated filter requires grouping or aggregated select"
                )
            out_rows = [
                tuple(frame.value(row, attr.qualified_name) for attr in core.select)
                for row in rows
            ]
        columns = [str(attr) for attr in core.select]
        out_rows = self._order_rows(core, columns, out_rows, sort_orders)
        return ResultTable(columns=columns, rows=out_rows)

    # ----- join stage -------------------------------------------------

    def _build_frame(self, core: QueryCore) -> _Frame:
        tables = list(core.tables)
        if not tables:
            raise ExecutionError("query references no tables")
        try:
            fk_path = self.database.join_path(tables)
        except SchemaError as exc:
            raise ExecutionError(str(exc)) from exc
        join_tables = list(
            dict.fromkeys(
                tables + [fk.table for fk in fk_path] + [fk.ref_table for fk in fk_path]
            )
        )
        frame = self._table_frame(join_tables[0])
        joined = {join_tables[0]}
        pending = list(fk_path)
        while pending:
            progressed = False
            for fk in list(pending):
                if fk.table in joined and fk.ref_table not in joined:
                    frame = self._hash_join(
                        frame,
                        self._table_frame(fk.ref_table),
                        f"{fk.table}.{fk.column}",
                        f"{fk.ref_table}.{fk.ref_column}",
                    )
                    joined.add(fk.ref_table)
                elif fk.ref_table in joined and fk.table not in joined:
                    frame = self._hash_join(
                        frame,
                        self._table_frame(fk.table),
                        f"{fk.ref_table}.{fk.ref_column}",
                        f"{fk.table}.{fk.column}",
                    )
                    joined.add(fk.table)
                else:
                    continue
                pending.remove(fk)
                progressed = True
            if not progressed:
                raise ExecutionError(
                    f"could not order join path over tables {join_tables}"
                )
        return frame

    def _table_frame(self, table_name: str) -> _Frame:
        table = self.database.table(table_name)
        columns = {
            f"{table_name}.{name}": index
            for index, name in enumerate(table.column_names)
        }
        return _Frame(columns=columns, rows=list(table.rows))

    @staticmethod
    def _hash_join(left: _Frame, right: _Frame, left_key: str, right_key: str) -> _Frame:
        bucket: Dict[object, List[tuple]] = {}
        right_index = right.columns[right_key]
        for row in right.rows:
            bucket.setdefault(row[right_index], []).append(row)
        columns = dict(left.columns)
        offset = len(left.columns)
        for name, index in right.columns.items():
            columns[name] = offset + index
        left_index = left.columns[left_key]
        rows = [
            left_row + right_row
            for left_row in left.rows
            for right_row in bucket.get(left_row[left_index], ())
        ]
        return _Frame(columns=columns, rows=rows)

    # ----- filter stage -----------------------------------------------

    def _eval_predicate(self, pred: Predicate, frame: _Frame, row: tuple) -> bool:
        if isinstance(pred, LogicalPredicate):
            left = self._eval_predicate(pred.left, frame, row)
            if pred.op == "and":
                return left and self._eval_predicate(pred.right, frame, row)
            return left or self._eval_predicate(pred.right, frame, row)
        if isinstance(pred, Comparison):
            return _compare(
                pred.op, frame.value(row, pred.attr.qualified_name), pred.value
            )
        if isinstance(pred, SubqueryComparison):
            scalar = self._scalar_subquery(pred.query)
            if scalar is None:
                return False
            return _compare(
                pred.op, frame.value(row, pred.attr.qualified_name), scalar
            )
        if isinstance(pred, Between):
            value = frame.value(row, pred.attr.qualified_name)
            return _compare(">=", value, pred.low) and _compare("<=", value, pred.high)
        if isinstance(pred, Like):
            value = frame.value(row, pred.attr.qualified_name)
            matched = value is not None and _like_match(str(value), pred.pattern)
            return matched != pred.negated
        if isinstance(pred, InSubquery):
            values = self._column_subquery(pred.query)
            value = frame.value(row, pred.attr.qualified_name)
            return (value in values) != pred.negated
        raise ExecutionError(f"unknown predicate node: {type(pred)!r}")

    def _eval_having(
        self, pred: Predicate, frame: _Frame, members: List[tuple]
    ) -> bool:
        """Evaluate a HAVING-style predicate over one group's member rows.

        Aggregated attributes are computed over the group; bare attributes
        are read from the group's first row (they are grouping columns).
        """
        if isinstance(pred, LogicalPredicate):
            left = self._eval_having(pred.left, frame, members)
            if pred.op == "and":
                return left and self._eval_having(pred.right, frame, members)
            return left or self._eval_having(pred.right, frame, members)
        if isinstance(pred, Comparison):
            return _compare(pred.op, self._having_value(pred.attr, frame, members), pred.value)
        if isinstance(pred, SubqueryComparison):
            scalar = self._scalar_subquery(pred.query)
            if scalar is None:
                return False
            return _compare(pred.op, self._having_value(pred.attr, frame, members), scalar)
        if isinstance(pred, Between):
            value = self._having_value(pred.attr, frame, members)
            return _compare(">=", value, pred.low) and _compare("<=", value, pred.high)
        if not members:
            return False
        return self._eval_predicate(pred, frame, members[0])

    def _having_value(
        self, attr: Attribute, frame: _Frame, members: List[tuple]
    ) -> object:
        if attr.is_aggregated:
            return self._aggregate_attr(attr, frame, members)
        if not members:
            return None
        return frame.value(members[0], attr.qualified_name)

    def _scalar_subquery(self, core: QueryCore) -> object:
        result = self.execute_core(core)
        if not result.rows:
            return None
        return result.rows[0][0]

    def _column_subquery(self, core: QueryCore) -> set:
        result = self.execute_core(core)
        return {row[0] for row in result.rows}

    # ----- group/aggregate stage ----------------------------------------

    def _aggregate(
        self,
        core: QueryCore,
        frame: _Frame,
        rows: List[tuple],
        sort_orders: Dict[str, Dict[str, float]],
        having_pred: Optional[Predicate] = None,
    ) -> List[tuple]:
        keyers = [
            self._group_keyer(group, frame, rows, sort_orders) for group in core.groups
        ]
        group_labels = {
            group.attr.qualified_name: keyer
            for group, keyer in zip(core.groups, keyers)
        }
        grouped: Dict[tuple, List[tuple]] = {}
        for row in rows:
            key = tuple(keyer(row) for keyer in keyers)
            if any(part is _MISSING_BIN for part in key):
                continue
            grouped.setdefault(key, []).append(row)
        if not core.groups:
            grouped = {(): rows}
        out_rows = []
        for key, members in grouped.items():
            if having_pred is not None and not self._eval_having(
                having_pred, frame, members
            ):
                continue
            out_row = []
            for attr in core.select:
                if attr.is_aggregated:
                    out_row.append(self._aggregate_attr(attr, frame, members))
                elif attr.qualified_name in group_labels:
                    out_row.append(group_labels[attr.qualified_name](members[0]))
                elif members:
                    out_row.append(frame.value(members[0], attr.qualified_name))
                else:
                    out_row.append(None)
            out_rows.append(tuple(out_row))
        if not core.groups and not rows and all(
            attr.agg == "count" for attr in core.select
        ):
            return [(0,) * len(core.select)]
        return out_rows

    def _group_keyer(
        self,
        group: Group,
        frame: _Frame,
        rows: List[tuple],
        sort_orders: Dict[str, Dict[str, float]],
    ):
        qualified = group.attr.qualified_name
        if group.kind == "grouping":
            return lambda row: frame.value(row, qualified)
        ctype = self.database.column_type(group.attr.table, group.attr.column)
        if group.bin_unit == "numeric" or ctype == "Q":
            return self._numeric_bin_keyer(group, frame, rows, sort_orders)
        order: Dict[str, float] = {}
        sort_orders[qualified] = order

        def keyer(row: tuple) -> object:
            label = bin_temporal(frame.value(row, qualified), group.bin_unit)
            if label is None:
                return _MISSING_BIN
            if group.bin_unit == "weekday":
                order[label] = weekday_sort_key(label)
            else:
                order.setdefault(label, len(order))
            return label

        return keyer

    def _numeric_bin_keyer(
        self,
        group: Group,
        frame: _Frame,
        rows: List[tuple],
        sort_orders: Dict[str, Dict[str, float]],
    ):
        qualified = group.attr.qualified_name
        values = [
            frame.value(row, qualified)
            for row in rows
            if isinstance(frame.value(row, qualified), (int, float))
        ]
        order: Dict[str, float] = {}
        sort_orders[qualified] = order
        if not values:
            return lambda row: _MISSING_BIN
        low, high = min(values), max(values)
        # Paper convention: binSize = ceil((max - min) / #bins), default 10.
        span = high - low
        size = math.ceil(span / group.bin_count) if span > 0 else 1

        def keyer(row: tuple) -> object:
            value = frame.value(row, qualified)
            if not isinstance(value, (int, float)):
                return _MISSING_BIN
            slot = min(int((value - low) // size), group.bin_count - 1)
            lo = low + slot * size
            label = f"[{_format_number(lo)}, {_format_number(lo + size)})"
            order[label] = lo
            return label

        return keyer

    def _aggregate_attr(
        self, attr: Attribute, frame: _Frame, members: List[tuple]
    ) -> object:
        if attr.agg == "count":
            if attr.column == "*":
                return len(members)
            return sum(
                1
                for row in members
                if frame.value(row, attr.qualified_name) is not None
            )
        values = [
            frame.value(row, attr.qualified_name)
            for row in members
            if frame.value(row, attr.qualified_name) is not None
        ]
        if not values:
            return None
        if attr.agg == "sum":
            return _numeric_sum(values)
        if attr.agg == "avg":
            total = _numeric_sum(values)
            return total / len(values) if total is not None else None
        if attr.agg == "max":
            return max(values, key=_sort_key)
        if attr.agg == "min":
            return min(values, key=_sort_key)
        raise ExecutionError(f"unknown aggregate: {attr.agg!r}")

    # ----- order/limit stage --------------------------------------------

    def _order_rows(
        self,
        core: QueryCore,
        columns: List[str],
        rows: List[tuple],
        sort_orders: Dict[str, Dict[str, float]],
    ) -> List[tuple]:
        if core.order is not None:
            index = _find_sort_column(core.order.attr, core.select, columns)
            key = _column_sort_key(index, sort_orders.get(core.order.attr.qualified_name))
            rows = sorted(rows, key=key, reverse=core.order.direction == "desc")
        if core.superlative is not None:
            sup = core.superlative
            index = _find_sort_column(sup.attr, core.select, columns)
            key = _column_sort_key(index, sort_orders.get(sup.attr.qualified_name))
            rows = sorted(rows, key=key, reverse=sup.kind == "most")[: sup.k]
        return rows


# ----- helpers -----------------------------------------------------------


def _split_filter(core: QueryCore):
    """Split the filter's top-level AND chain into (where, having) parts.

    Any conjunct mentioning an aggregated attribute is a HAVING condition
    and is evaluated per group after aggregation; the rest is a WHERE
    condition evaluated per input row.
    """
    if core.filter is None:
        return None, None
    conjuncts = _and_chain(core.filter.root)
    where = [p for p in conjuncts if not _mentions_aggregate(p)]
    having = [p for p in conjuncts if _mentions_aggregate(p)]
    return _rejoin(where), _rejoin(having)


def _and_chain(pred: Predicate) -> List[Predicate]:
    if isinstance(pred, LogicalPredicate) and pred.op == "and":
        return _and_chain(pred.left) + _and_chain(pred.right)
    return [pred]


def _mentions_aggregate(pred: Predicate) -> bool:
    return any(attr.is_aggregated for attr in pred.attributes())


def _rejoin(preds: List[Predicate]) -> Optional[Predicate]:
    if not preds:
        return None
    joined = preds[0]
    for pred in preds[1:]:
        joined = LogicalPredicate(op="and", left=joined, right=pred)
    return joined


def _apply_set_op(op: str, left: ResultTable, right: ResultTable) -> ResultTable:
    if len(left.columns) != len(right.columns):
        raise ExecutionError("set-operation branches have different arities")
    left_rows = list(dict.fromkeys(left.rows))
    right_set = set(right.rows)
    if op == "union":
        rows = left_rows + [
            row for row in dict.fromkeys(right.rows) if row not in set(left.rows)
        ]
    elif op == "intersect":
        rows = [row for row in left_rows if row in right_set]
    elif op == "except":
        rows = [row for row in left_rows if row not in right_set]
    else:
        raise ExecutionError(f"unknown set operator: {op!r}")
    return ResultTable(columns=left.columns, rows=rows)


def _find_sort_column(
    attr: Attribute, select: Tuple[Attribute, ...], columns: List[str]
) -> int:
    for index, sel in enumerate(select):
        if sel == attr:
            return index
    for index, sel in enumerate(select):
        if sel.qualified_name == attr.qualified_name:
            return index
    raise ExecutionError(
        f"order attribute {attr} is not part of the select list {columns}"
    )


def _column_sort_key(index: int, order: Optional[Dict[str, float]]):
    if order:
        return lambda row: (
            _sort_key(order.get(row[index], row[index]))
            if isinstance(row[index], str)
            else _sort_key(row[index])
        )
    return lambda row: _sort_key(row[index])


def _sort_key(value: object) -> tuple:
    """Total order over heterogeneous cells: None, numbers, then strings."""
    if value is None:
        return (2, 0.0, "")
    if isinstance(value, bool):
        return (0, float(value), "")
    if isinstance(value, (int, float)):
        return (0, float(value), "")
    return (1, 0.0, str(value))


def _numeric_sum(values: Sequence[object]) -> Optional[float]:
    total = 0.0
    integral = True
    for value in values:
        if not isinstance(value, (int, float)):
            raise ExecutionError(f"cannot sum non-numeric value {value!r}")
        if isinstance(value, float):
            integral = False
        total += value
    return int(total) if integral else total


def _compare(op: str, left: object, right: object) -> bool:
    if left is None or right is None:
        return False
    if isinstance(left, (int, float)) != isinstance(right, (int, float)):
        # Comparing a number against a string: fall back to text equality
        # semantics only for =/!=, as real engines would reject the rest.
        if op == "=":
            return str(left) == str(right)
        if op == "!=":
            return str(left) != str(right)
        return False
    if op == "=":
        return left == right
    if op == "!=":
        return left != right
    if op == ">":
        return left > right
    if op == "<":
        return left < right
    if op == ">=":
        return left >= right
    if op == "<=":
        return left <= right
    raise ExecutionError(f"unknown comparison operator: {op!r}")


def _like_match(value: str, pattern: str) -> bool:
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value, flags=re.IGNORECASE) is not None


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.2f}"
