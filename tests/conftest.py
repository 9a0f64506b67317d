"""Shared fixtures: a tiny hand-built database and small session-scoped
corpora so individual tests stay fast."""

from __future__ import annotations

import socket

import pytest

from repro.core.nvbench import NVBenchConfig, build_nvbench
from repro.spider.corpus import CorpusConfig, build_spider_corpus
from repro.storage.schema import Column, Database, ForeignKey, Table


@pytest.fixture()
def flight_db() -> Database:
    """A small flights database with one FK join."""
    flight = Table(
        "flight",
        (
            Column("fno", "C"),
            Column("origin", "C"),
            Column("destination", "C"),
            Column("price", "Q"),
            Column("departure_date", "T"),
        ),
    )
    flight.extend(
        [
            ("F1", "APG", "ATL", 300.0, "2020-01-05"),
            ("F2", "APG", "BOS", 150.0, "2020-02-11"),
            ("F3", "LAX", "ATL", 500.0, "2020-02-20"),
            ("F4", "APG", "SFO", 250.0, "2021-03-02"),
            ("F5", "LAX", "SFO", 700.0, "2021-07-09"),
            ("F6", "BOS", "LAX", 450.0, "2021-11-19"),
        ]
    )
    airline = Table("airline", (Column("code", "C"), Column("name", "C")))
    airline.extend([("F1", "Alpha"), ("F3", "Beta"), ("F5", "Gamma")])
    db = Database(name="flights", domain="flight")
    db.add_table(flight)
    db.add_table(airline)
    db.foreign_keys.append(ForeignKey("airline", "code", "flight", "fno"))
    return db


@pytest.fixture(scope="session")
def small_corpus():
    """A deterministic 12-database corpus shared across tests."""
    return build_spider_corpus(
        CorpusConfig(num_databases=12, pairs_per_database=10, row_scale=0.5, seed=5)
    )


@pytest.fixture(scope="session")
def small_nvbench():
    """A small but full nvBench build (filter training included)."""
    config = NVBenchConfig(
        corpus=CorpusConfig(
            num_databases=12, pairs_per_database=10, row_scale=0.5, seed=5
        ),
        filter_training_pairs=40,
        seed=5,
    )
    return build_nvbench(config=config)


@pytest.fixture()
def raw_http():
    """Send raw bytes to a server; its parsed replies up to EOF.

    ``raw_http(host, port, data)`` returns one ``(status line, headers,
    body)`` per reply.  Reading to EOF also checks that the server
    closed the connection.
    """

    def exchange(host, port, data):
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(data)
            stream = b""
            while chunk := sock.recv(65536):
                stream += chunk
        replies = []
        while stream:
            head, _, stream = stream.partition(b"\r\n\r\n")
            status, *lines = head.decode("latin-1").split("\r\n")
            headers = dict(line.split(": ", 1) for line in lines)
            length = int(headers["Content-Length"])
            replies.append((status, headers, stream[:length]))
            stream = stream[length:]
        return replies

    return exchange
