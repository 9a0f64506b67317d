"""The per-database scan router, kept as the oracle for the indexed one.

This is the scorer ``repro.pipeline.route.Router`` used before it was
backed by a ``SchemaIndex``: one ``match_columns`` pass and one
table-name regex per schema name per request.  The rank-identity tests
assert the indexed router returns exactly what this one does.
"""

from __future__ import annotations

import re
from typing import Dict, List

from repro.baselines.common import match_columns
from repro.nlp.tokenize import tokenize_nl
from repro.pipeline.route import _STOPWORDS, Router, RouteScore
from repro.storage.schema import Database


def route(question: str, databases: Dict[str, Database]) -> List[RouteScore]:
    """Rank every database by scanning its schema."""
    scores = [score(question, database) for database in databases.values()]
    scores.sort(key=lambda s: (-s.score, s.db_name))
    return scores


def score(question: str, database: Database) -> RouteScore:
    """Score one database against the question."""
    lowered = question.lower()
    matches = match_columns(question, database)
    matched_columns = [
        f"{table}.{column.name}"
        for table, columns in sorted(matches.items())
        for column in columns
    ]
    matched_tables = [
        name for name in sorted(database.tables)
        if re.search(rf"\b{re.escape(name.replace('_', ' '))}", lowered)
    ]
    overlap = token_overlap(question, database)
    value = (
        Router.column_weight * len(matched_columns)
        + Router.table_weight * len(matched_tables)
        + Router.overlap_weight * overlap
    )
    return RouteScore(
        db_name=database.name,
        score=value,
        matched_columns=matched_columns,
        matched_tables=matched_tables,
        token_overlap=overlap,
    )


def rank_tables(question: str, database: Database) -> List[str]:
    """Tables of *database* ranked by how much the question hits them."""
    lowered = question.lower()
    matches = match_columns(question, database)
    ranked = []
    for name in database.tables:
        hits = float(len(matches.get(name, [])))
        if re.search(rf"\b{re.escape(name.replace('_', ' '))}", lowered):
            hits += 1.5
        ranked.append((-hits, name))
    ranked.sort()
    return [name for _, name in ranked]


def token_overlap(question: str, database: Database) -> float:
    tokens = [
        token for token in tokenize_nl(question)
        if token.isalpha() and token not in _STOPWORDS
    ]
    if not tokens:
        return 0.0
    schema_vocab = set()
    for table_name, column in database.iter_columns():
        schema_vocab.update(table_name.lower().split("_"))
        schema_vocab.update(column.name.lower().split("_"))
    hits = sum(1 for token in tokens if token in schema_vocab)
    return hits / len(tokens)
