"""The planned executor returns exactly what the row-at-a-time interpreter does.

``tests/executor_oracle.py`` keeps the interpreter the executor replaced.
Every check here runs both on the same query and compares the outcome:
columns, rows in order, each cell's Python type, or the error's class and
text.  The queries come from a real streamed build, from hypothesis over
the Figure 5 grammar, and from hand-written cases for the plan's memos.
"""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.nvbench import build_nvbench, paper_scale_config
from repro.grammar.ast_nodes import (
    AGG_FUNCTIONS,
    BIN_UNITS,
    COMPARISON_OPERATORS,
    SET_OPERATORS,
    Attribute,
    Between,
    Comparison,
    Filter,
    Group,
    InSubquery,
    Like,
    LogicalPredicate,
    Order,
    QueryCore,
    SetQuery,
    SQLQuery,
    SubqueryComparison,
    Superlative,
)
from repro.storage import executor as planned
from repro.storage.executor import Executor
from repro.storage.schema import Column, Database, ForeignKey, Table
from repro.storage.temporal import bin_temporal
from tests import executor_oracle


def outcome(execute, database, query):
    """Everything a caller can observe of one execution."""
    try:
        result = execute(database, query)
    except Exception as exc:  # the error class and text are part of the contract
        return ("error", type(exc).__name__, str(exc))
    return (
        "ok",
        list(result.columns),
        list(result.rows),
        [[type(cell) for cell in row] for row in result.rows],
    )


def run_planned(database, query):
    return Executor(database).execute(query)


def assert_same(database, query):
    expected = outcome(executor_oracle.execute, database, query)
    assert outcome(run_planned, database, query) == expected, query
    return expected


# ----- every execution of a real build --------------------------------------


@pytest.fixture(scope="module")
def build_executions(tmp_path_factory):
    """``(database, query)`` for every query an 8-database streamed build runs."""
    recorded = []
    original = Executor._execute

    def recording(self, query):
        recorded.append((self.database, query))
        return original(self, query)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Executor, "_execute", recording)
        build_nvbench(
            config=paper_scale_config(), stream=True, max_databases=8,
            out=str(tmp_path_factory.mktemp("differential") / "bench"),
        )
    return recorded


def test_build_executions_match_oracle(build_executions):
    mismatches = [
        (database.name, query)
        for database, query in build_executions
        if outcome(run_planned, database, query)
        != outcome(executor_oracle.execute, database, query)
    ]
    assert not mismatches, mismatches[:3]


def test_build_executions_cover_the_plan(build_executions):
    """The build exercises what the plan changed, not just plain scans."""
    cores = [core for _, query in build_executions for core in query.cores]
    assert len(build_executions) > 500
    assert any(next(core.subqueries(), None) is not None for core in cores)
    assert any(
        group.kind == "binning" and group.bin_unit != "numeric"
        for core in cores for group in core.groups
    )
    assert any(isinstance(query.body, SetQuery) for _, query in build_executions)


# ----- hypothesis over the Figure 5 grammar ---------------------------------


def _grammar_db() -> Database:
    """Two joined tables plus an unreachable one, with awkward cells."""
    t = Table(
        "t",
        (
            Column("category", "C"),
            Column("value", "Q"),
            Column("day", "T"),
            Column("ref", "C"),
            Column("stamp", "T"),
        ),
    )
    # ``stamp`` labels first appear on rows whose ``day`` does not bin, so
    # a second calendar group must still see every row for its label order.
    t.extend([
        ("A", -4, None, "u1", "2021-05-01 10:00"),
        ("a", 10, "2020-01-05", "u1", "2020-01-01 09:15"),
        ("b", 25.5, "2020-02-11 08:30", "u2", "2021-05-03 10:40"),
        ("c", "n/a", "not a date", "u3", "2019-12-30 23:59"),
        ("a", None, "2021-03-02", "u1", "2019-12-31 00:01"),
        ("c", 40, 2000, "u3", "2020-01-01 18:30"),
        ("b", 3, 2000.0, "u2", None),
        (None, 12, "2000", "u9", "2021-05-01 10:05"),
        ("b", 25.5, "2021-11-19T23:05:00", None, "2020-07-04"),
        ("a", 7.25, "2020-02", "u2", "2020-07-05 12:00"),
        ("c", 0, "2020-01-05", "u1", "2019-12-30 08:00"),
        ("APG", 55, 1999, "u3", "2021"),
    ])
    u = Table("u", (Column("code", "C"), Column("label", "C"), Column("score", "Q")))
    u.extend([("u1", "alpha", 3.5), ("u2", "beta", None), ("u3", "a_b%", 9)])
    w = Table("w", (Column("name", "C"),))
    w.extend([("lonely",)])
    db = Database(name="grammar")
    for table in (t, u, w):
        db.add_table(table)
    db.foreign_keys.append(ForeignKey("t", "ref", "u", "code"))
    return db


GRAMMAR_DB = _grammar_db()

_PLAIN = [
    Attribute("category", "t"), Attribute("value", "t"), Attribute("day", "t"),
    Attribute("ref", "t"), Attribute("stamp", "t"), Attribute("label", "u"),
    Attribute("score", "u"),
]
#: Mostly real columns; now and then one the frame lacks or cannot join.
plain_attrs = st.sampled_from(
    _PLAIN * 4 + [Attribute("ghost", "t"), Attribute("name", "w")]
)
aggregated_attrs = st.one_of(
    st.just(Attribute("*", "t", "count")),
    st.builds(
        lambda attr, agg: Attribute(attr.column, attr.table, agg),
        st.sampled_from(_PLAIN), st.sampled_from(AGG_FUNCTIONS),
    ),
)
any_attrs = st.one_of(plain_attrs, aggregated_attrs)
literals = st.one_of(
    st.integers(min_value=-5, max_value=60),
    st.floats(min_value=-5, max_value=60, allow_nan=False),
    st.sampled_from(["a", "b", "APG", "2000", "2020-01-05", "u1", "alpha"]),
)
like_patterns = st.sampled_from(["%a%", "a%", "_", "%", "2020%", "a_b%", "%.%", "u_"])


@st.composite
def subquery_cores(draw):
    select = (draw(st.one_of(plain_attrs, aggregated_attrs)),)
    condition = draw(st.none() | st.builds(
        Comparison, st.sampled_from(COMPARISON_OPERATORS), plain_attrs, literals
    ))
    return QueryCore(select=select, filter=Filter(condition) if condition else None)


leaf_predicates = st.one_of(
    st.builds(Comparison, st.sampled_from(COMPARISON_OPERATORS), any_attrs, literals),
    st.builds(Between, any_attrs, literals, literals),
    st.builds(Like, plain_attrs, like_patterns, st.booleans()),
    st.builds(InSubquery, plain_attrs, subquery_cores(), st.booleans()),
    st.builds(
        SubqueryComparison, st.sampled_from(COMPARISON_OPERATORS), any_attrs,
        subquery_cores(),
    ),
)
predicates = st.recursive(
    leaf_predicates,
    lambda children: st.builds(
        LogicalPredicate, st.sampled_from(["and", "or"]), children, children
    ),
    max_leaves=4,
)
groups = st.one_of(
    st.builds(Group, st.just("grouping"), plain_attrs),
    st.builds(
        Group, st.just("binning"), plain_attrs, st.sampled_from(BIN_UNITS),
        st.integers(min_value=1, max_value=12),
    ),
)


@st.composite
def query_cores(draw, width=None):
    low, high = (width, width) if width else (1, 3)
    select = tuple(draw(st.lists(any_attrs, min_size=low, max_size=high)))
    condition = draw(st.none() | predicates)
    grouping = tuple(draw(st.lists(groups, max_size=2)))
    order = superlative = None
    if draw(st.booleans()):
        direction = draw(st.sampled_from(["asc", "desc"]))
        order = Order(direction, draw(st.sampled_from(select)))
    if draw(st.booleans()):
        superlative = Superlative(
            draw(st.sampled_from(["most", "least"])),
            draw(st.integers(min_value=1, max_value=4)),
            draw(st.sampled_from(select)),
        )
    return QueryCore(
        select=select,
        filter=Filter(condition) if condition is not None else None,
        groups=grouping,
        order=order,
        superlative=superlative,
    )


@st.composite
def set_queries(draw):
    left = draw(query_cores())
    right = draw(query_cores(width=len(left.select)))
    return SetQuery(draw(st.sampled_from(SET_OPERATORS)), left, right)


query_bodies = st.one_of(query_cores(), set_queries())


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(query_bodies)
def test_generated_queries_match_oracle(body):
    assert_same(GRAMMAR_DB, SQLQuery(body=body))


def grid_queries():
    """Small queries crossing every clause kind with every column."""
    category, value, day = _PLAIN[0], _PLAIN[1], _PLAIN[2]
    count_all = Attribute("*", "t", "count")
    nothing = Comparison("=", category, "no such category")
    codes = QueryCore(select=(Attribute("code", "u"),))
    top_score = QueryCore(select=(Attribute("score", "u", "max"),))
    for attr, agg in product(_PLAIN, AGG_FUNCTIONS):
        measured = Attribute(attr.column, attr.table, agg)
        yield QueryCore(select=(measured,))
        yield QueryCore(select=(measured,), filter=Filter(nothing))
        yield QueryCore(
            select=(category, measured), groups=(Group("grouping", category),),
            order=Order("desc", measured),
        )
    for attr in _PLAIN:
        select = (Attribute("ref", "t"), attr)
        for op, literal in product(COMPARISON_OPERATORS, [0, 12, 25.5, "a", "2000"]):
            yield QueryCore(select=select, filter=Filter(Comparison(op, attr, literal)))
        patterns = ["a%", "%A%", "_", "2020%", "a_b%", "%"]
        for pattern, negated in product(patterns, [False, True]):
            yield QueryCore(select=select, filter=Filter(Like(attr, pattern, negated)))
        for low, high in [(0, 30), ("a", "c"), (2000, 2021)]:
            yield QueryCore(select=select, filter=Filter(Between(attr, low, high)))
        for negated in (False, True):
            member = InSubquery(attr, codes, negated)
            yield QueryCore(select=select, filter=Filter(member))
        for op in COMPARISON_OPERATORS:
            yield QueryCore(
                select=select, filter=Filter(SubqueryComparison(op, attr, top_score))
            )
    for attr, unit in product(_PLAIN, BIN_UNITS):
        binned = Group("binning", attr, unit, 4)
        yield QueryCore(
            select=(attr, count_all), groups=(binned,), order=Order("asc", attr)
        )
        for second in _PLAIN:
            yield QueryCore(
                select=(attr, second, count_all),
                groups=(binned, Group("binning", second, unit, 3)),
                order=Order("asc", second),
            )
    # HAVING: aggregates over groups, row predicates on each group's first row
    row_tests = [Like(category, "a%"), InSubquery(Attribute("ref", "t"), codes)]
    for where, row_test in product([None, nothing], row_tests):
        for top in (count_all, Attribute("value", "t", "max")):
            most = Comparison(">", Attribute("value", "t", "max"), 30)
            having = LogicalPredicate("or", most, row_test)
            root = having if where is None else LogicalPredicate("and", where, having)
            yield QueryCore(select=(top,), filter=Filter(root))
            yield QueryCore(
                select=(category, top), filter=Filter(root),
                groups=(Group("grouping", category),),
            )
    yield QueryCore(select=(day, value), filter=Filter(Comparison(">", count_all, 1)))


def test_grid_queries_match_oracle():
    mismatches = []
    for core in grid_queries():
        query = SQLQuery(core)
        if outcome(run_planned, GRAMMAR_DB, query) != outcome(
            executor_oracle.execute, GRAMMAR_DB, query
        ):
            mismatches.append(core)
    assert not mismatches, mismatches[:3]


# ----- explicit regression cases --------------------------------------------


def flight(column, agg=None):
    return Attribute(column=column, table="flight", agg=agg)


#: A subquery that cannot run: it reads a column the flight table lacks.
BROKEN_SUBQUERY = QueryCore(select=(flight("ghost"),))


def test_raising_subquery_under_false_and_does_not_raise(flight_db):
    never = Comparison("=", flight("origin"), "nowhere")
    query = SQLQuery(QueryCore(
        select=(flight("fno"),),
        filter=Filter(LogicalPredicate(
            "and", never, InSubquery(flight("fno"), BROKEN_SUBQUERY)
        )),
    ))
    assert assert_same(flight_db, query) == ("ok", ["flight.fno"], [], [])


def test_raising_subquery_raises_when_reached(flight_db):
    query = SQLQuery(QueryCore(
        select=(flight("fno"),),
        filter=Filter(InSubquery(flight("fno"), BROKEN_SUBQUERY)),
    ))
    assert assert_same(flight_db, query) == (
        "error", "ExecutionError", "unknown column 'flight.ghost'"
    )


def test_raising_subquery_over_zero_rows_does_not_raise(flight_db):
    query = SQLQuery(QueryCore(
        select=(flight("fno"),),
        filter=Filter(LogicalPredicate(
            "and",
            Comparison(">", flight("price"), 10_000),
            SubqueryComparison(">", flight("price"), BROKEN_SUBQUERY),
        )),
    ))
    assert assert_same(flight_db, query)[0] == "ok"


def test_empty_scalar_subquery_does_not_read_the_outer_row(flight_db):
    empty = QueryCore(
        select=(flight("price"),),
        filter=Filter(Comparison(">", flight("price"), 10_000)),
    )
    query = SQLQuery(QueryCore(
        select=(flight("fno"),),
        filter=Filter(SubqueryComparison(">", flight("ghost"), empty)),
    ))
    assert assert_same(flight_db, query) == ("ok", ["flight.fno"], [], [])


def test_subquery_runs_once_per_execution(flight_db, monkeypatch):
    runs = []
    original = planned._Execution.core

    def counting(self, core):
        runs.append(core)
        return original(self, core)

    monkeypatch.setattr(planned._Execution, "core", counting)
    inner = QueryCore(
        select=(flight("fno"),),
        filter=Filter(Comparison(">", flight("price"), 200)),
    )
    scalar = QueryCore(select=(flight("price", agg="avg"),))
    query = SQLQuery(QueryCore(
        select=(flight("fno"),),
        filter=Filter(LogicalPredicate(
            "and",
            InSubquery(flight("fno"), inner),
            SubqueryComparison(">", flight("price"), scalar),
        )),
    ))
    executor = Executor(flight_db)
    first = executor.execute(query)
    assert runs.count(inner) == 1 and runs.count(scalar) == 1
    # the memo belongs to one execution, not to the executor
    second = executor.execute(query)
    assert runs.count(inner) == 2 and runs.count(scalar) == 2
    assert first == second == executor_oracle.execute(flight_db, query)


@pytest.mark.parametrize("unit", [u for u in BIN_UNITS if u != "numeric"])
def test_year_cells_of_each_type_bin_as_the_oracle_does(unit):
    table = Table("event", (Column("when", "T"), Column("n", "Q")))
    table.extend([(2000, 1), (2000.0, 2), ("2000", 4), ("2000-03-04 05:06", 8)])
    database = Database(name="years")
    database.add_table(table)
    when = Attribute("when", "event")
    query = SQLQuery(QueryCore(
        select=(when, Attribute("n", "event", "sum")),
        groups=(Group("binning", when, unit),),
        order=Order("asc", when),
    ))
    assert_same(database, query)
    for cell in (2000, 2000.0, "2000"):
        assert planned._bin_label(cell, unit) == bin_temporal(cell, unit)


def test_union_keeps_left_then_new_right_rows(flight_db):
    origins = QueryCore(select=(flight("origin"),))
    destinations = QueryCore(select=(flight("destination"),))
    query = SQLQuery(SetQuery("union", origins, destinations))
    _, _, rows, _ = assert_same(flight_db, query)
    assert rows == [("APG",), ("LAX",), ("BOS",), ("ATL",), ("SFO",)]


def test_unknown_column_in_having_raises_like_the_oracle(flight_db):
    query = SQLQuery(QueryCore(
        select=(flight("origin"), flight("price", agg="sum")),
        filter=Filter(Comparison(">", flight("ghost", agg="max"), 1)),
        groups=(Group("grouping", flight("origin")),),
    ))
    assert assert_same(flight_db, query) == (
        "error", "ExecutionError", "unknown column 'flight.ghost'"
    )
