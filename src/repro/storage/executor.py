"""Query executor for the unified AST over in-memory databases.

Supports everything the Figure 5 grammar can express: multi-table FK
joins, filter predicates (including nested subqueries), grouping and
binning with aggregation, ORDER BY, superlatives (LIMIT), and the three
set operations.  Results come back as a :class:`ResultTable` whose column
order follows the select list — the VIS backends map columns to axes
positionally.
"""

from __future__ import annotations

import math
import operator
import re
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.storage.schema import Database, SchemaError
from repro.storage.temporal import bin_temporal, weekday_sort_key


class ExecutionError(RuntimeError):
    """Raised when a structurally valid query cannot run on the data."""


class ExecutionCache:
    """Memoizes :meth:`Executor.execute` results across queries.

    Keys are ``(db_name, canonical query-body tokens)`` — the ``Visualize``
    subtree is stripped, so a bar and a pie chart over the same query body
    share one execution.  Failures are cached too (negative caching), so a
    query that cannot run is attempted once per corpus, not once per
    candidate.  Cached :class:`ResultTable` objects are shared between
    callers and must be treated as read-only.

    All mutating operations take an internal lock, so one cache can be
    shared by the inference server's batch-executor threads.
    """

    _OK, _ERR = "ok", "err"

    def __init__(self):
        self._entries: Dict[tuple, Tuple[str, object]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_of(db_name: str, query: Union[SQLQuery, VisQuery]) -> tuple:
        """The canonical cache key for *query* over database *db_name*."""
        from repro.grammar.serialize import to_tokens

        tokens = to_tokens(query)
        if isinstance(query, VisQuery):
            tokens = tokens[2:]  # drop "visualize <type>": same data either way
        return (db_name, tuple(tokens))

    def __len__(self) -> int:
        return len(self._entries)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks cannot cross process boundaries
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def stats(self) -> Dict[str, object]:
        """Hit/miss counters plus the derived hit rate."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._entries),
                "hit_rate": self.hits / total if total else 0.0,
            }

    def counts(self) -> Tuple[int, int]:
        """A consistent ``(hits, misses)`` snapshot.

        Cheaper than :meth:`stats` for hot-path span attributes — the
        build and serve tracers stamp these onto their spans.
        """
        with self._lock:
            return self.hits, self.misses

    def fetch(self, key: tuple) -> Optional[Tuple[str, object]]:
        """The raw cached entry for *key*, counting a hit when present."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
            return entry

    def store_result(self, key: tuple, result: "ResultTable") -> None:
        """Cache a successful execution; counts one miss."""
        with self._lock:
            self.misses += 1
            self._entries[key] = (self._OK, result)

    def store_error(self, key: tuple, message: str) -> None:
        """Cache a failed execution; counts one miss."""
        with self._lock:
            self.misses += 1
            self._entries[key] = (self._ERR, message)


@dataclass
class ResultTable:
    """Execution output: labelled columns and rows in select order."""

    columns: List[str]
    rows: List[tuple]

    @property
    def row_count(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    def column_values(self, index: int) -> List[object]:
        """All values of one result column."""
        return [row[index] for row in self.rows]

    def canonical(self) -> Tuple[Tuple[str, ...], Tuple[tuple, ...]]:
        """Order-insensitive canonical form used by result matching."""
        return tuple(self.columns), tuple(
            sorted(self.rows, key=lambda row: tuple(map(_sort_key, row)))
        )


@dataclass
class _Frame:
    """A working relation: qualified column name → tuple index, plus rows."""

    columns: Dict[str, int] = field(default_factory=dict)
    rows: List[tuple] = field(default_factory=list)


_MISSING_BIN = object()
_MISSING = object()


class Executor:
    """Executes AST queries against one :class:`Database`.

    An optional :class:`ExecutionCache` memoizes whole-query results (and
    failures) keyed on the canonical query body, shared across Executor
    instances over the same cache.  The executor itself holds no
    per-query state, so one instance can serve several threads.
    """

    def __init__(self, database: Database, cache: Optional[ExecutionCache] = None):
        self.database = database
        self.cache = cache

    def execute(self, query: Union[SQLQuery, VisQuery]) -> ResultTable:
        """Run *query* and return its result table."""
        if self.cache is None:
            return self._execute(query)
        key = ExecutionCache.key_of(self.database.name, query)
        entry = self.cache.fetch(key)
        if entry is not None:
            kind, payload = entry
            if kind == ExecutionCache._ERR:
                raise ExecutionError(payload)
            return payload
        try:
            result = self._execute(query)
        except ExecutionError as exc:
            self.cache.store_error(key, str(exc))
            raise
        self.cache.store_result(key, result)
        return result

    def _execute(self, query: Union[SQLQuery, VisQuery]) -> ResultTable:
        run = _Execution(self.database)
        body = query.body
        if isinstance(body, SetQuery):
            left = run.core(body.left)
            right = run.core(body.right)
            return _apply_set_op(body.op, left, right)
        return run.core(body)


class _Execution:
    """The plan state of one execution.

    Each query core is planned once: column names resolve to tuple
    indices, and the WHERE and HAVING predicates compile to closures
    (the ``LIKE`` regex included).  Subqueries in this grammar never
    refer to the outer row, so each one's result is memoised on first
    evaluation and serves every later row.  The memo lives as long as
    one ``execute`` call and is filled lazily: a subquery runs, and
    raises, only when a row first reaches it, so a short-circuited or
    zero-row predicate never runs it.  A raise ends the execution, so
    only values are memoised.
    Planning itself never raises; an unknown column raises when a row
    first reads it, exactly where the row-at-a-time interpreter raised.
    """

    __slots__ = ("database", "_memo")

    def __init__(self, database: Database):
        self.database = database
        # (derive, id(subquery core)) -> derived value
        self._memo: Dict[tuple, object] = {}

    def core(self, core: QueryCore) -> ResultTable:
        """Run one query core: join, filter, group, order, project."""
        frame = self._build_frame(core)
        columns = frame.columns
        rows = frame.rows
        where_pred, having_pred = _split_filter(core)
        if where_pred is not None:
            test = self._compile(where_pred, partial(_getter, columns))
            rows = list(filter(test, rows))
        sort_orders: Dict[str, Dict[str, float]] = {}
        if core.groups or any(attr.is_aggregated for attr in core.select):
            out_rows = self._aggregate(core, columns, rows, sort_orders, having_pred)
        else:
            if having_pred is not None:
                raise ExecutionError(
                    "aggregated filter requires grouping or aggregated select"
                )
            out_rows = list(map(_projector(core.select, columns), rows))
        names = [str(attr) for attr in core.select]
        out_rows = _order_rows(core, names, out_rows, sort_orders)
        return ResultTable(columns=names, rows=out_rows)

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
                    frame = _hash_join(
                        frame,
                        self._table_frame(fk.ref_table),
                        f"{fk.table}.{fk.column}",
                        f"{fk.ref_table}.{fk.ref_column}",
                    )
                    joined.add(fk.ref_table)
                elif fk.ref_table in joined and fk.table not in joined:
                    frame = _hash_join(
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
        # Every stage reads its input rows and builds new lists, so the
        # stored rows are shared, not copied.
        return _Frame(columns=columns, rows=table.rows)

    # ----- subqueries ---------------------------------------------------

    def _subquery(self, core: QueryCore, derive: Callable[[List[tuple]], object]):
        """``derive(rows)`` of *core*'s result, memoised per execution."""
        key = (derive, id(core))
        value = self._memo.get(key, _MISSING)
        if value is _MISSING:
            value = self._memo[key] = derive(self.core(core).rows)
        return value

    # ----- filter stage -----------------------------------------------

    def _compile(
        self,
        pred: Predicate,
        read: Callable[[Attribute], Callable],
        row_read: Optional[Callable[[Attribute], Callable]] = None,
    ) -> Callable[[object], bool]:
        """Compile *pred* to a ``subject -> bool`` closure.

        ``read(attr)`` gives ``subject -> value``: a row's cell for WHERE,
        the group's aggregate or first-row cell for HAVING.  With
        *row_read* (HAVING), ``LIKE`` and ``IN`` test the group's first
        row through it, and an empty group fails them.
        """
        if isinstance(pred, LogicalPredicate):
            left = self._compile(pred.left, read, row_read)
            right = self._compile(pred.right, read, row_read)
            if pred.op == "and":
                return lambda subject: left(subject) and right(subject)
            return lambda subject: left(subject) or right(subject)
        if isinstance(pred, Comparison):
            value_of, check = read(pred.attr), _comparator(pred.op, pred.value)
            return lambda subject: check(value_of(subject))
        if isinstance(pred, SubqueryComparison):
            value_of, query = read(pred.attr), pred.query
            derive, subquery = partial(_scalar_check, pred.op), self._subquery

            def compare_scalar(subject: object) -> bool:
                check = subquery(query, derive)
                return check is not None and check(value_of(subject))

            return compare_scalar
        if isinstance(pred, Between):
            value_of = read(pred.attr)
            at_least = _comparator(">=", pred.low)
            at_most = _comparator("<=", pred.high)

            def between(subject: object) -> bool:
                value = value_of(subject)
                return at_least(value) and at_most(value)

            return between
        if row_read is not None:
            test = self._compile(pred, row_read)
            return lambda members: bool(members) and test(members[0])
        if isinstance(pred, Like):
            value_of = read(pred.attr)
            match, negated = _like_regex(pred.pattern).fullmatch, pred.negated

            def like(row: tuple) -> bool:
                value = value_of(row)
                matched = value is not None and match(str(value)) is not None
                return matched != negated

            return like
        if isinstance(pred, InSubquery):
            value_of, query, negated = read(pred.attr), pred.query, pred.negated
            subquery = self._subquery

            def in_subquery(row: tuple) -> bool:
                values = subquery(query, _first_column)
                return (value_of(row) in values) != negated

            return in_subquery

        def unknown(row: tuple) -> bool:
            raise ExecutionError(f"unknown predicate node: {type(pred)!r}")

        return unknown

    # ----- group/aggregate stage ----------------------------------------

    def _aggregate(
        self,
        core: QueryCore,
        columns: Dict[str, int],
        rows: List[tuple],
        sort_orders: Dict[str, Dict[str, float]],
        having_pred: Optional[Predicate] = None,
    ) -> List[tuple]:
        keyers = [
            self._group_keyer(group, columns, rows, sort_orders)
            for group in core.groups
        ]
        group_labels = {
            group.attr.qualified_name: keyer
            for group, keyer in zip(core.groups, keyers)
        }
        if keyers:
            # Every keyer sees every row, even one another keyer drops:
            # calendar bins order their labels by first appearance.
            grouped: Dict[tuple, List[tuple]] = {}
            for row in rows:
                key = tuple([keyer(row) for keyer in keyers])
                if not any(part is _MISSING_BIN for part in key):
                    grouped.setdefault(key, []).append(row)
        else:
            grouped = {(): rows}
        having = None
        if having_pred is not None:
            having = self._compile(
                having_pred, partial(_group_value, columns), partial(_getter, columns)
            )
        cells = [_select_cell(attr, columns, group_labels) for attr in core.select]
        out_rows = []
        for members in grouped.values():
            if having is not None and not having(members):
                continue
            out_rows.append(tuple([cell(members) for cell in cells]))
        if not core.groups and not rows and all(
            attr.agg == "count" for attr in core.select
        ):
            return [(0,) * len(core.select)]
        return out_rows

    def _group_keyer(
        self,
        group: Group,
        columns: Dict[str, int],
        rows: List[tuple],
        sort_orders: Dict[str, Dict[str, float]],
    ):
        qualified = group.attr.qualified_name
        get = _getter(columns, group.attr)
        if group.kind == "grouping":
            return get
        ctype = self.database.column_type(group.attr.table, group.attr.column)
        if group.bin_unit == "numeric" or ctype == "Q":
            return _numeric_bin_keyer(group, get, rows, sort_orders)
        order: Dict[str, float] = {}
        sort_orders[qualified] = order
        unit = group.bin_unit

        def keyer(row: tuple) -> object:
            label = _bin_label(get(row), unit)
            if label is None:
                return _MISSING_BIN
            if unit == "weekday":
                order[label] = weekday_sort_key(label)
            elif label not in order:
                order[label] = len(order)
            return label

        return keyer


# ----- plan helpers --------------------------------------------------------


def _scalar_check(
    op: str, rows: List[tuple]
) -> Optional[Callable[[object], bool]]:
    """``left -> left <op> scalar`` for a scalar subquery's *rows*.

    The scalar is the first cell.  Without rows, or with a ``None``
    scalar, there is no check: the comparison is false and the outer
    row is not read.
    """
    scalar = rows[0][0] if rows else None
    return None if scalar is None else _comparator(op, scalar)


def _first_column(rows: List[tuple]) -> set:
    """An ``IN`` subquery's values: the distinct first-column cells."""
    return {row[0] for row in rows}


def _unknown_column(attr: Attribute) -> Callable[..., object]:
    """A cell reader for a column the frame lacks: raises when called."""
    qualified = attr.qualified_name

    def read(row: tuple) -> object:
        raise ExecutionError(f"unknown column {qualified!r}")

    return read


def _getter(columns: Dict[str, int], attr: Attribute) -> Callable[[tuple], object]:
    """``row -> cell`` for *attr*, resolved to a tuple index once."""
    index = columns.get(attr.qualified_name)
    if index is None:
        return _unknown_column(attr)
    return itemgetter(index)


def _group_value(
    columns: Dict[str, int], attr: Attribute
) -> Callable[[List[tuple]], object]:
    """``members -> value`` of *attr* over a group, as HAVING reads it.

    Aggregated attributes are computed over the group; bare attributes
    are read from the group's first row (they are grouping columns).
    """
    if attr.is_aggregated:
        return _aggregator(attr, columns)
    get = _getter(columns, attr)
    return lambda members: get(members[0]) if members else None


def _projector(
    select: Tuple[Attribute, ...], columns: Dict[str, int]
) -> Callable[[tuple], tuple]:
    """``row -> output row`` for a plain (unaggregated) select list."""
    indexes = []
    for attr in select:
        index = columns.get(attr.qualified_name)
        if index is None:
            return _unknown_column(attr)
        indexes.append(index)
    get = itemgetter(*indexes)
    if len(indexes) == 1:
        return lambda row: (get(row),)
    return get


def _select_cell(
    attr: Attribute, columns: Dict[str, int], group_labels: Dict[str, Callable]
) -> Callable[[List[tuple]], object]:
    """``members -> output cell`` for one select attribute of a group."""
    label = group_labels.get(attr.qualified_name)
    if label is not None and not attr.is_aggregated:
        return lambda members: label(members[0])
    return _group_value(columns, attr)


def _aggregator(
    attr: Attribute, columns: Dict[str, int]
) -> Callable[[List[tuple]], object]:
    """``members -> aggregate`` for an aggregated attribute."""
    agg = attr.agg
    if agg == "count" and attr.column == "*":
        return len
    index = columns.get(attr.qualified_name)
    if index is None:
        fail = _unknown_column(attr)
        empty = 0 if agg == "count" else None
        return lambda members: fail(members[0]) if members else empty
    if agg == "count":
        return lambda members: sum(1 for row in members if row[index] is not None)

    def aggregate(members: List[tuple]) -> object:
        values = [row[index] for row in members if row[index] is not None]
        if not values:
            return None
        if agg == "sum":
            return _numeric_sum(values)
        if agg == "avg":
            total = _numeric_sum(values)
            return total / len(values) if total is not None else None
        if agg == "max":
            return max(values, key=_sort_key)
        if agg == "min":
            return min(values, key=_sort_key)
        raise ExecutionError(f"unknown aggregate: {agg!r}")

    return aggregate


def _numeric_bin_keyer(
    group: Group,
    get: Callable[[tuple], object],
    rows: List[tuple],
    sort_orders: Dict[str, Dict[str, float]],
):
    values = [value for value in map(get, rows) if isinstance(value, (int, float))]
    order: Dict[str, float] = {}
    sort_orders[group.attr.qualified_name] = order
    if not values:
        return lambda row: _MISSING_BIN
    low, high = min(values), max(values)
    # Paper convention: binSize = ceil((max - min) / #bins), default 10.
    span = high - low
    size = math.ceil(span / group.bin_count) if span > 0 else 1

    def keyer(row: tuple) -> object:
        value = get(row)
        if not isinstance(value, (int, float)):
            return _MISSING_BIN
        slot = min(int((value - low) // size), group.bin_count - 1)
        lo = low + slot * size
        label = f"[{_format_number(lo)}, {_format_number(lo + size)})"
        order[label] = lo
        return label

    return keyer


@lru_cache(maxsize=1 << 14, typed=True)
def _bin_label(value: object, unit: str) -> Optional[str]:
    """:func:`bin_temporal`, memoised per ``(type, value, unit)``.

    Builds re-run the same temporal columns many times; the memo parses
    each distinct cell once.  ``typed`` keeps ``2000``, ``2000.0`` and
    ``"2000"`` apart, and the bound caps it whatever the data holds.
    """
    return bin_temporal(value, unit)


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


# ----- order/limit stage ----------------------------------------------------


def _order_rows(
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
    if op == "union":
        seen = set(left_rows)
        rows = left_rows + [row for row in dict.fromkeys(right.rows) if row not in seen]
    elif op == "intersect":
        right_set = set(right.rows)
        rows = [row for row in left_rows if row in right_set]
    elif op == "except":
        right_set = set(right.rows)
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


_OPERATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
}


def _compare(op: str, left: object, right: object) -> bool:
    return _comparator(op, right)(left)


def _comparator(op: str, right: object) -> Callable[[object], bool]:
    """``left -> left <op> right`` with *op* and *right* fixed.

    ``None`` on either side compares false.  A number against a string
    falls back to text equality for ``=``/``!=`` only, as real engines
    would reject the rest.  The right side's type test and text form are
    worked out once instead of once per row; an unknown operator raises
    when a non-``None`` pair first reaches it.
    """
    if right is None:
        return lambda left: False
    function = _OPERATORS.get(op)
    numeric = isinstance(right, (int, float))
    text = str(right)
    equal = op == "="

    def check(left: object) -> bool:
        if left is None:
            return False
        if isinstance(left, (int, float)) != numeric:
            return op in ("=", "!=") and (str(left) == text) == equal
        if function is None:
            raise ExecutionError(f"unknown comparison operator: {op!r}")
        return function(left, right)

    return check


def _like_regex(pattern: str) -> "re.Pattern[str]":
    """The compiled case-insensitive regex of a SQL ``LIKE`` pattern."""
    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.compile(regex, flags=re.IGNORECASE)


def _like_match(value: str, pattern: str) -> bool:
    return _like_regex(pattern).fullmatch(value) is not None


def _format_number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.2f}"
