"""The indexed router ranks exactly as the per-database scan did.

``tests/route_oracle.py`` keeps the scan scorer; every test here
compares the full ``to_json`` ranking (scores, matched columns in
mention order, matched tables, token overlap, tie order) of
:class:`repro.pipeline.Router` against it.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pipeline import Router
from repro.spider.corpus import CorpusConfig, build_spider_corpus
from repro.storage.schema import Column, Database, Table
from tests import route_oracle


def _routes(routes):
    return [route.to_json() for route in routes]


def _database(name, tables):
    database = Database(name=name)
    for table_name, column_names in tables:
        database.add_table(
            Table(table_name, tuple(Column(c, "C") for c in column_names))
        )
    return database


@pytest.fixture(scope="module")
def wide_corpus():
    return build_spider_corpus(
        CorpusConfig(
            num_databases=48, pairs_per_database=6, row_scale=0.1, seed=11
        )
    )


def test_rank_identical_on_every_corpus_question(wide_corpus):
    databases = wide_corpus.databases
    router = Router()
    questions = sorted({pair.nl for pair in wide_corpus.pairs})
    assert len(questions) > 200
    for question in questions:
        assert _routes(router.route(question, databases)) == _routes(
            route_oracle.route(question, databases)
        ), question


def test_rank_tables_identical_on_corpus_questions(wide_corpus):
    databases = wide_corpus.databases
    router = Router()
    router.route("warm the index", databases)
    for pair in wide_corpus.pairs[::3]:
        database = databases[pair.db_name]
        assert router.rank_tables(pair.nl, database) == (
            route_oracle.rank_tables(pair.nl, database)
        )


class TestTraps:
    def test_multi_word_phrase_in_mention_order(self):
        db = _database("people", [("person", ["age", "first_name"])])
        (route,) = Router().route("first name and age of each person", {"p": db})
        assert route.matched_columns == ["person.first_name", "person.age"]

    @pytest.mark.parametrize("question", ["the first-name", "the first,name",
                                          "the first_name"])
    def test_joined_words_do_not_match_a_phrase(self, question):
        db = _database("people", [("person", ["first_name"])])
        (route,) = Router().route(question, {"p": db})
        assert route.matched_columns == []
        assert route.to_json() == route_oracle.score(question, db).to_json()

    def test_table_name_is_prefix_matched(self):
        db = _database("music", [("singer", ["age"]), ("song", ["title"])])
        (route,) = Router().route("list all singers", {"m": db})
        assert route.matched_tables == ["singer"]

    def test_uppercase_table_never_matches(self):
        db = _database("music", [("Singer", ["age"])])
        (route,) = Router().route("Singer ages", {"m": db})
        assert route.matched_tables == []
        assert route.matched_columns == []

    def test_non_word_edges_fall_back_to_a_regex(self):
        db = _database(
            "stats",
            [("%_share", ["%_rate", "rate_(", "2020_sales"]), ("(x", ["y"])],
        )
        question = "the 5% share: 5% rate, rate (x and a(x, 2020 sales"
        (route,) = Router().route(question, {"s": db})
        assert route.to_json() == route_oracle.score(question, db).to_json()
        assert route.matched_columns == [
            "%_share.%_rate", "%_share.rate_(", "%_share.2020_sales"
        ]
        assert route.matched_tables == ["%_share", "(x"]
        # a non-word edge still needs its word boundary
        (route,) = Router().route("the %share by (x", {"s": db})
        assert route.matched_tables == []

    def test_repeated_token_counts_in_overlap(self):
        db = _database("people", [("person", ["name"])])
        (route,) = Router().route("name name height", {"p": db})
        assert route.token_overlap == pytest.approx(2 / 3)

    def test_same_start_breaks_on_column_order(self):
        db = _database("people", [("person", ["name_id", "name"])])
        (route,) = Router().route("by name id", {"p": db})
        assert route.matched_columns == ["person.name_id", "person.name"]


class TestIndexLifetime:
    def test_rebuilt_when_a_database_object_changes(self):
        router = Router()
        first = {"a": _database("a", [("t", ["price"])])}
        second = {"a": _database("a", [("t", ["cost"])])}
        assert router.route("price", first)[0].matched_columns == ["t.price"]
        assert router.route("cost", second)[0].matched_columns == ["t.cost"]
        assert router.route("price", first)[0].matched_columns == ["t.price"]

    def test_rank_tables_outside_the_index(self, flight_db):
        router = Router()
        router.route("warm", {"other": _database("other", [("t", ["x"])])})
        assert router.rank_tables("airline names please", flight_db) == (
            route_oracle.rank_tables("airline names please", flight_db)
        )


# ----- generated schemas ------------------------------------------------------

#: name pieces covering the traps: multi-word and hyphenated phrases,
#: plurals, case, non-word and digit edges, non-ASCII word characters
_PIECES = ["first", "name", "singer", "Singer", "id", "2020", "%", "(",
           "first-name", "é", "x"]
_NAME = st.lists(st.sampled_from(_PIECES), min_size=1, max_size=3).map("_".join)
_TABLE = st.tuples(_NAME, st.lists(_NAME, max_size=4, unique=True))
_DATABASE = st.tuples(
    st.sampled_from(["a", "b", "c"]),  # shared names exercise the tie order
    st.lists(_TABLE, min_size=1, max_size=3, unique_by=lambda t: t[0]),
)
_QUESTION = st.lists(
    st.tuples(
        st.sampled_from(_PIECES + ["singers", "names", "the", "Name", "İd"]),
        st.sampled_from([" ", " ", "-", ",", "_", "", "s "]),
    ),
    max_size=8,
).map(lambda parts: "".join(piece + sep for piece, sep in parts))


@settings(max_examples=200, deadline=None)
@example(
    schemas=[("a", [("singer", ["first_name", "name", "name_id"])])],
    questions=["first-name, first,name; first name of singers: name id name"],
)
@given(
    schemas=st.lists(_DATABASE, min_size=1, max_size=4),
    questions=st.lists(_QUESTION, min_size=1, max_size=3),
)
def test_generated_schemas_rank_identically(schemas, questions):
    databases = {
        f"k{i}": _database(name, tables)
        for i, (name, tables) in enumerate(schemas)
    }
    router = Router()
    for question in questions:
        assert _routes(router.route(question, databases)) == _routes(
            route_oracle.route(question, databases)
        )
        for database in databases.values():
            assert router.rank_tables(question, database) == (
                route_oracle.rank_tables(question, database)
            )
