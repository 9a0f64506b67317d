"""Route stage: pick the target database for a question.

A served corpus holds many databases; a question names none explicitly.
The router scores every database with a schema-linking heuristic —
exact column-phrase matches (strongest signal), table-name mentions,
and bag-of-tokens overlap between the question and the schema
vocabulary — and returns a deterministic ranking.  The same evidence
doubles as a *table* ranking within one database (which tables the
question is about).

The evidence comes from a :class:`SchemaIndex` built once per corpus
mapping: column phrases, table phrases and schema words map to their
postings, so a request costs one lookup per question n-gram plus one
score per database instead of one regex per schema name.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.nlp.tokenize import tokenize_nl
from repro.storage.schema import Database

_STOPWORDS = frozenset(
    "a an the of for in on by per and or to show me all each every with"
    " what which how many number count total average".split()
)

_WORD_RUN = re.compile(r"\w+")
_WORD_CHAR = re.compile(r"\w")

#: a column hit: (table name, first match position, column ordinal,
#: qualified ``table.column``) — sorting these gives mention order
#: within each table, tables alphabetical, ties on schema order
_ColumnHit = Tuple[str, int, int, str]


@dataclass
class RouteScore:
    """One database's routing evidence."""

    db_name: str
    score: float
    #: qualified names of columns whose phrase occurs in the question
    matched_columns: List[str] = field(default_factory=list)
    #: tables mentioned by name in the question
    matched_tables: List[str] = field(default_factory=list)
    #: fraction of (non-stopword) question tokens found in the schema
    token_overlap: float = 0.0

    def to_json(self) -> dict:
        return {
            "db": self.db_name,
            "score": round(self.score, 4),
            "matched_columns": list(self.matched_columns),
            "matched_tables": list(self.matched_tables),
            "token_overlap": round(self.token_overlap, 4),
        }


def _starts_with_word(phrase: str) -> bool:
    return bool(phrase) and _WORD_CHAR.match(phrase[0]) is not None


def _ends_with_word(phrase: str) -> bool:
    return bool(phrase) and _WORD_CHAR.match(phrase[-1]) is not None


class SchemaIndex:
    """Exact inverted index over the schema names of a corpus mapping.

    * A column phrase (``name.replace('_', ' ').lower()``) matches the
      lowered question where ``\\bphrase\\b`` would.  For a phrase that
      starts and ends with a word character that is exactly a substring
      running from the start of a ``\\w+`` run to the end of one, so
      those phrases are looked up by the question's word-run n-grams.
    * A table phrase (``name.replace('_', ' ')``, not lowered) matches
      where ``\\bphrase`` would: at a run start, with no boundary at its
      end (``singer`` matches "singers"), so it is prefix-matched.
    * Phrases that start (or, for columns, end) with a non-word
      character keep a precompiled regex.
    * A schema word maps to the databases whose table or column names
      contain it, for the token-overlap share.

    The index keeps the ``Database`` objects it was built from and
    treats them as immutable: :meth:`covers` checks names and object
    identity, not contents.
    """

    def __init__(self, databases: Dict[str, Database]):
        self.names = tuple(databases)
        self.databases = tuple(databases.values())
        self._slots = {id(db): slot for slot, db in enumerate(self.databases)}
        columns: Dict[str, List[Tuple[int, str, int, str]]] = defaultdict(list)
        tables: Dict[str, List[Tuple[int, str]]] = defaultdict(list)
        vocab: Dict[str, List[int]] = defaultdict(list)
        for slot, database in enumerate(self.databases):
            words = set()
            for ordinal, (table_name, column) in enumerate(
                database.iter_columns()
            ):
                phrase = column.name.replace("_", " ").lower()
                columns[phrase].append(
                    (slot, table_name, ordinal, f"{table_name}.{column.name}")
                )
                words.update(table_name.lower().split("_"))
                words.update(column.name.lower().split("_"))
            for word in words:
                vocab[word].append(slot)
            for table_name in database.tables:
                tables[table_name.replace("_", " ")].append((slot, table_name))

        self.columns = {
            phrase: postings for phrase, postings in columns.items()
            if _starts_with_word(phrase) and _ends_with_word(phrase)
        }
        self.column_fallbacks = [
            (re.compile(rf"\b{re.escape(phrase)}\b"), postings)
            for phrase, postings in columns.items()
            if phrase not in self.columns
        ]
        self.max_column_runs = max(
            (len(_WORD_RUN.findall(phrase)) for phrase in self.columns),
            default=0,
        )
        self.tables = {
            phrase: postings for phrase, postings in tables.items()
            if _starts_with_word(phrase)
        }
        self.table_fallbacks = [
            (re.compile(rf"\b{re.escape(phrase)}"), postings)
            for phrase, postings in tables.items()
            if phrase not in self.tables
        ]
        self.table_lengths = sorted({len(phrase) for phrase in self.tables})
        self.vocab = dict(vocab)

    def covers(self, databases: Dict[str, Database]) -> bool:
        """Whether this index was built from exactly *databases*."""
        return len(databases) == len(self.databases) and all(
            name == own_name and database is own
            for (name, database), own_name, own in zip(
                databases.items(), self.names, self.databases
            )
        )

    def slot(self, database: Database) -> Optional[int]:
        """Position of *database* (by identity) in this index, if any.

        The index holds its databases, so their ids cannot be reused.
        """
        return self._slots.get(id(database))

    def lookup(
        self, question: str
    ) -> Tuple[Dict[int, List[_ColumnHit]], Dict[int, List[str]]]:
        """Column and table hits of *question*, keyed by database slot."""
        lowered = question.lower()
        runs = [(m.start(), m.end()) for m in _WORD_RUN.finditer(lowered)]

        column_hits: Dict[int, List[_ColumnHit]] = defaultdict(list)
        first: Dict[str, int] = {}
        for i, (start, _) in enumerate(runs):
            for _, end in runs[i:i + self.max_column_runs]:
                phrase = lowered[start:end]
                if phrase in self.columns and phrase not in first:
                    first[phrase] = start
        found = [(self.columns[phrase], start) for phrase, start in first.items()]
        for pattern, postings in self.column_fallbacks:
            match = pattern.search(lowered)
            if match:
                found.append((postings, match.start()))
        for postings, start in found:
            for slot, table_name, ordinal, qualified in postings:
                column_hits[slot].append((table_name, start, ordinal, qualified))

        table_hits: Dict[int, List[str]] = defaultdict(list)
        mentioned = set()
        for start, _ in runs:
            for length in self.table_lengths:
                phrase = lowered[start:start + length]
                if len(phrase) < length:
                    break
                if phrase in self.tables:
                    mentioned.add(phrase)
        matched = [self.tables[phrase] for phrase in mentioned]
        matched.extend(
            postings for pattern, postings in self.table_fallbacks
            if pattern.search(lowered)
        )
        for postings in matched:
            for slot, table_name in postings:
                table_hits[slot].append(table_name)
        return column_hits, table_hits

    def token_overlap(self, question: str) -> Dict[int, float]:
        """Per slot: share of content tokens found in the schema words."""
        tokens = [
            token for token in tokenize_nl(question)
            if token.isalpha() and token not in _STOPWORDS
        ]
        hits: Dict[int, int] = defaultdict(int)
        for token, count in Counter(tokens).items():
            for slot in self.vocab.get(token, ()):
                hits[slot] += count
        return {slot: n / len(tokens) for slot, n in hits.items()}


class Router:
    """Scores databases (and tables) against a question.

    Stage contract: ``route(question, databases) -> List[RouteScore]``
    ranked best-first, deterministic for identical inputs (ties break on
    database name).  Swap in any object with that method to change the
    routing policy.

    The :class:`SchemaIndex` is built on the first call and reused while
    later calls pass the same names bound to the same ``Database``
    objects; it is published with one attribute assignment, so threads
    sharing a router never see a half-built index.
    """

    name = "route"

    #: scoring weights: exact column-phrase hits dominate, table-name
    #: mentions help, raw token overlap breaks near-ties
    column_weight: float = 2.0
    table_weight: float = 1.5
    overlap_weight: float = 1.0

    def __init__(self) -> None:
        self._index: Optional[SchemaIndex] = None

    def _index_for(self, databases: Dict[str, Database]) -> SchemaIndex:
        index = self._index
        if index is None or not index.covers(databases):
            index = SchemaIndex(databases)
            self._index = index
        return index

    def route(
        self, question: str, databases: Dict[str, Database]
    ) -> List[RouteScore]:
        """Rank every database by schema-linking evidence."""
        index = self._index_for(databases)
        column_hits, table_hits = index.lookup(question)
        overlaps = index.token_overlap(question)
        scores = []
        for slot, database in enumerate(index.databases):
            matched_columns = [hit[3] for hit in sorted(column_hits.get(slot, ()))]
            matched_tables = sorted(table_hits.get(slot, ()))
            overlap = overlaps.get(slot, 0.0)
            score = (
                self.column_weight * len(matched_columns)
                + self.table_weight * len(matched_tables)
                + self.overlap_weight * overlap
            )
            scores.append(
                RouteScore(
                    db_name=database.name,
                    score=score,
                    matched_columns=matched_columns,
                    matched_tables=matched_tables,
                    token_overlap=overlap,
                )
            )
        scores.sort(key=lambda s: (-s.score, s.db_name))
        return scores

    def rank_tables(self, question: str, database: Database) -> List[str]:
        """Tables of *database* ranked by how much the question hits them."""
        index = self._index
        slot = index.slot(database) if index is not None else None
        if slot is None:
            index, slot = SchemaIndex({database.name: database}), 0
        column_hits, table_hits = index.lookup(question)
        hits = Counter(hit[0] for hit in column_hits.get(slot, ()))
        mentioned = set(table_hits.get(slot, ()))
        ranked = [
            (-(hits[name] + (1.5 if name in mentioned else 0.0)), name)
            for name in database.tables
        ]
        ranked.sort()
        return [name for _, name in ranked]
