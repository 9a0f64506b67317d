"""Multi-process serving: worker pool, crash recovery, rolling hot-swap.

Everything here runs real forked processes over real sockets.  The
invariants: pool outputs are bit-identical to in-process decode, weights
are resident once (shared segments) no matter the worker count, a
SIGKILLed worker never loses a request, a rolling swap never serves
stale cache entries, and shutdown leaves ``/dev/shm`` clean.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.neural import Seq2Vis, build_dataset
from repro.neural.persist import save_model
from repro.obs import JsonlExporter, Tracer, load_spans, span_tree, summarize
from repro.serve import (
    BackgroundServer,
    DecodeConfig,
    InferenceServer,
    LoadGenerator,
    ModelRegistry,
    NeuralTranslator,
    PoolConfig,
    ServeClient,
    ServerConfig,
    WorkerPool,
)
from repro.serve.translate import translate_batch
from repro.spider.corpus import save_corpus

QUESTIONS = [
    "how many rows per category?",
    "show the average price by type",
    "total amount for each name, sorted descending",
    "plot a pie of counts per status",
    "what is the number of items per year?",
    "compare the minimum score across groups",
]


def _shm_segments() -> set:
    return {
        name for name in os.listdir("/dev/shm")
        if name.startswith("repro-weights-")
    }


def _worker_config() -> ServerConfig:
    return ServerConfig(max_batch_size=4, flush_interval=0.01)


@pytest.fixture(scope="module")
def stack(small_nvbench):
    dataset = build_dataset(small_nvbench.pairs[:60], small_nvbench.databases)
    model = Seq2Vis(
        len(dataset.in_vocab), len(dataset.out_vocab), "attention", 16, 24,
        seed=2, dtype="float32",
    )
    return model, dataset, small_nvbench.databases


def _reference_tokens(model, dataset, databases, decode=None):
    requests = [
        (question, databases[name])
        for question, name in zip(QUESTIONS, sorted(databases))
    ]
    results = translate_batch(
        model, dataset.in_vocab, dataset.out_vocab, requests,
        decode=decode,
    )
    return [r.tokens for r in results]


def _pool(stack, workers=2, **overrides) -> WorkerPool:
    model, dataset, databases = stack
    config = PoolConfig(workers=workers, worker=_worker_config(), **overrides)
    pool = WorkerPool(databases, config)
    pool.share_model(
        "attn", model, dataset.in_vocab, dataset.out_vocab, default=True
    )
    return pool


@pytest.fixture(scope="module")
def running(stack):
    """One shared 2-worker pool for the read-mostly tests."""
    pool = _pool(stack)
    with BackgroundServer(pool) as background:
        yield pool, background.client()


@pytest.fixture(scope="module")
def single(stack):
    """The single-process tier over the same model, for edge tests."""
    model, dataset, databases = stack
    registry = ModelRegistry()
    registry.register(
        "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab),
        default=True,
    )
    server = InferenceServer(registry, databases, _worker_config())
    with BackgroundServer(server) as background:
        yield server, background.client()


def _edge_counters(client) -> dict:
    """Request counters of the process that owns the public socket."""
    doc = client.metrics()
    return doc.get("front", doc)["counters"]


FRAMING_PROBES = [
    pytest.param(
        b"BOGUS\r\n\r\n", "400 Bad Request", "malformed request line",
        id="bad-request-line",
    ),
    pytest.param(
        b"POST /translate HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
        "400 Bad Request", "bad Content-Length", id="non-numeric-length",
    ),
    pytest.param(
        b"POST /translate HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        "400 Bad Request", "bad Content-Length", id="negative-length",
    ),
    pytest.param(
        b"POST /translate HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
        % (ServerConfig().max_body_bytes + 1),
        "413 Payload Too Large", "exceeds limit", id="oversized-body",
    ),
    pytest.param(
        b"POST /translate HTTP/1.1\r\nContent-Length: 2\r\n"
        b"Content-Length: 0\r\n\r\n{}",
        "400 Bad Request", "duplicate Content-Length",
        id="duplicate-length",
    ),
    pytest.param(
        b"POST /translate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\n",
        "501 Not Implemented", "Transfer-Encoding", id="transfer-encoding",
    ),
]


@pytest.mark.parametrize("tier", ["single", "running"])
@pytest.mark.parametrize("probe, status, message", FRAMING_PROBES)
def test_framing_errors_answered_counted_and_closed(
    tier, probe, status, message, request, raw_http, caplog
):
    """Both tiers answer a bad frame with its status, count it, close."""
    _, client = request.getfixturevalue(tier)
    before = _edge_counters(client)
    replies = raw_http(client.host, client.port, probe)
    after = _edge_counters(client)

    (reply,) = replies  # one answer, then the server hung up
    status_line, headers, body = reply
    assert status_line == f"HTTP/1.1 {status}"
    assert headers["Connection"] == "close"
    assert message in json.loads(body)["error"]

    def delta(name):
        return after.get(name, 0) - before.get(name, 0)

    assert delta(f"requests_{status.split()[0]}") == 1
    # the probe plus the /metrics call that read `before`
    assert delta("requests_total") == 2
    assert not [
        record for record in caplog.records
        if "client_connected_cb" in record.getMessage()
    ]


class TestPoolServing:
    def test_outputs_bit_identical_to_in_process(self, running, stack):
        model, dataset, databases = stack
        _, client = running
        expected = _reference_tokens(model, dataset, databases)
        for (question, db_name), tokens in zip(
            zip(QUESTIONS, sorted(databases)), expected
        ):
            response = client.translate(question, db_name, use_cache=False)
            assert response["tokens"] == tokens

    def test_beam_outputs_bit_identical(self, running, stack):
        model, dataset, databases = stack
        _, client = running
        decode = DecodeConfig(beam_width=3, num_candidates=2)
        expected = _reference_tokens(model, dataset, databases, decode=decode)
        for (question, db_name), tokens in zip(
            zip(QUESTIONS, sorted(databases)), expected
        ):
            response = client.translate(
                question, db_name, use_cache=False, beam_width=3, candidates=2
            )
            assert response["tokens"] == tokens

    def test_healthz_reports_per_worker_liveness(self, running):
        _, client = running
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["worker_count"] == 2 and doc["ready_workers"] == 2
        for entry in doc["workers"]:
            assert entry["alive"] is True
            assert entry["state"] == "ready"
            assert isinstance(entry["queue_depth"], int)
            assert entry["weights"]["attn"]["generation"] >= 1
        # client.workers() is the sweep-harness view of the same data
        assert [w["worker_id"] for w in client.workers()] == [0, 1]

    def test_weights_resident_once_not_per_worker(self, running):
        pool, client = running
        doc = client.healthz()
        segment_bytes = doc["weights"]["shared_bytes"]
        assert segment_bytes > 0
        # every worker reports the same segment, not a private copy
        segments = {
            entry["weights"]["attn"]["segment"] for entry in doc["workers"]
        }
        assert len(segments) == 1
        assert pool._shared["attn"].nbytes == segment_bytes

    def test_metrics_aggregates_across_workers(self, running, stack):
        _, _, databases = stack
        _, client = running
        db_name = sorted(databases)[0]
        for question in QUESTIONS:
            client.translate(question, db_name, use_cache=False)
        doc = client.metrics()
        assert set(doc["workers"]) == {"0", "1"}
        aggregate = doc["aggregate"]
        per_worker_total = sum(
            w.get("counters", {}).get("requests_total", 0)
            for w in doc["workers"].values()
        )
        assert aggregate["counters"]["requests_total"] == per_worker_total
        assert aggregate["latency_ms"]["count"] == per_worker_total
        assert doc["front"]["counters"]["requests_total"] >= len(QUESTIONS)
        assert doc["weights"]["shared_bytes"] > 0

    def test_front_404_and_405_pass_through(self, running, raw_http):
        _, client = running
        status, body = client.request("GET", "/nope")
        assert status == 404 and "error" in body
        status, _ = client.request("GET", "/translate")
        assert status == 405
        # keep-alive by default; "Connection: close" is answered, then closed
        replies = raw_http(
            client.host, client.port,
            b"GET /nope HTTP/1.1\r\n\r\n"
            b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert [(line, headers["Connection"]) for line, headers, _ in replies] == [
            ("HTTP/1.1 404 Not Found", "keep-alive"),
            ("HTTP/1.1 404 Not Found", "close"),
        ]

    def test_worker_error_statuses_not_retried(self, running, raw_http):
        pool, client = running
        status, body = client.request(
            "POST", "/translate", {"question": "hi", "db": "missing-db"}
        )
        assert status == 404
        assert "unknown database" in body["error"]
        # the front relays the answering worker's body byte for byte
        payload = b'{"question": "hi", "db": "missing-db"}'
        request = (
            b"POST /translate HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(payload), payload)
        )
        ((_, headers, front_body),) = raw_http(client.host, client.port, request)
        worker = pool._workers[int(headers["X-Worker-Id"])]
        ((_, _, worker_body),) = raw_http("127.0.0.1", worker.port, request)
        assert front_body == worker_body


class TestCrashRecovery:
    def test_killed_worker_requests_requeued_and_answered(self, stack):
        _, dataset, databases = stack
        pool = _pool(stack)
        with BackgroundServer(pool) as background:
            client = background.client()
            db_name = sorted(databases)[0]
            victim = client.healthz()["workers"][0]["pid"]
            requests = [
                {"question": q, "db": db_name, "use_cache": False}
                for q in QUESTIONS * 5
            ]
            generator = LoadGenerator(client, concurrency=4)
            outcome = {}

            def fire():
                outcome["report"], outcome["responses"] = generator.run(
                    requests
                )

            thread = threading.Thread(target=fire)
            thread.start()
            time.sleep(0.05)  # load in flight
            os.kill(victim, signal.SIGKILL)
            thread.join(timeout=120)
            assert not thread.is_alive()
            report = outcome["report"]
            # every request answered: crash-hit ones were re-queued onto
            # the surviving worker, none dropped or errored
            assert report.errors == 0
            assert all(r is not None for r in outcome["responses"])
            deadline = time.time() + 30
            while time.time() < deadline:
                doc = client.healthz()
                if doc["ready_workers"] == 2:
                    break
                time.sleep(0.2)
            assert doc["ready_workers"] == 2
            assert any(w["restarts"] >= 1 for w in doc["workers"])
            # the respawned worker serves correctly
            response = client.translate(
                QUESTIONS[0], db_name, use_cache=False
            )
            assert response["tokens"] is not None or "error" in response


class TestRollingHotSwap:
    def test_swap_under_load_zero_failures_no_stale_cache(self, stack):
        model, dataset, databases = stack
        pool = _pool(stack)
        new_model = Seq2Vis(
            len(dataset.in_vocab), len(dataset.out_vocab), "attention",
            16, 24, seed=9, dtype="float32",
        )
        with BackgroundServer(pool) as background:
            client = background.client()
            db_name = sorted(databases)[0]
            # prime the response caches on both workers pre-swap
            for _ in range(4):
                primed = client.translate(
                    QUESTIONS[0], db_name, use_cache=True
                )
            requests = [
                {"question": q, "db": db_name, "use_cache": False}
                for q in QUESTIONS * 4
            ]
            generator = LoadGenerator(client, concurrency=4)
            outcome = {}

            def fire():
                outcome["report"], _ = generator.run(requests)

            thread = threading.Thread(target=fire)
            thread.start()
            time.sleep(0.05)
            result = pool.swap_model(
                "attn", new_model, dataset.in_vocab, dataset.out_vocab,
                default=True,
            )
            thread.join(timeout=120)
            assert not thread.is_alive()
            assert outcome["report"].errors == 0, outcome["report"].by_status
            assert result["generation"] == 2
            assert len(result["workers"]) == 2

            # a post-swap request must reflect the new weights even
            # though the same (question, db) was cached pre-swap
            expected = _reference_tokens(new_model, dataset, databases)[0]
            response = client.translate(QUESTIONS[0], db_name, use_cache=True)
            assert response["cached"] is False
            assert response["tokens"] == expected
            # generation is visible everywhere
            doc = client.healthz()
            assert doc["generation"] == 2
            for entry in doc["workers"]:
                assert entry["weights"]["attn"]["generation"] == 2
            # old segment is gone, exactly one segment remains
            assert len(doc["weights"]["segments"]) == 1


class TestLifecycle:
    def test_shutdown_leaves_no_shared_segments(self, stack):
        before = _shm_segments()
        pool = _pool(stack)
        with BackgroundServer(pool) as background:
            client = background.client()
            during = _shm_segments() - before
            assert during, "pool should hold at least one segment while up"
            client.healthz()
        assert _shm_segments() - before == set()

    def test_single_worker_pool_serves(self, stack):
        _, dataset, databases = stack
        pool = _pool(stack, workers=1)
        with BackgroundServer(pool) as background:
            client = background.client()
            doc = client.healthz()
            assert doc["worker_count"] == 1
            response = client.translate(
                QUESTIONS[0], sorted(databases)[0], use_cache=False
            )
            assert "tokens" in response

    def test_cli_sigterm_drains_pool(self, stack, small_corpus, tmp_path):
        """``kill`` of a ``serve --workers 2`` front stops its workers."""
        model, dataset, _ = stack
        corpus_path = tmp_path / "corpus.json"
        save_corpus(small_corpus, str(corpus_path))
        model_path = save_model(
            model, dataset.in_vocab, dataset.out_vocab, tmp_path / "m.npz"
        )
        before = _shm_segments()
        front = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--corpus",
             str(corpus_path), "--model", f"attn={model_path}",
             "--workers", "2", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        pids = []
        try:
            ready, _, _ = select.select([front.stdout], [], [], 60)
            assert ready, "the front printed no banner within 60 s"
            banner = front.stdout.readline()
            port = int(re.search(r":(\d+) with 2 decode workers", banner)[1])
            client = ServeClient("127.0.0.1", port)
            pids = [worker["pid"] for worker in client.healthz()["workers"]]
            assert len(pids) == 2 and all(map(_running, pids))
            assert _shm_segments() - before, "the model should be shared"

            front.send_signal(signal.SIGTERM)
            output, _ = front.communicate(timeout=30)
            assert front.returncode == 0
            assert "pool drained" in output
            assert not [pid for pid in pids if _running(pid)]
            assert _shm_segments() - before == set()
        finally:
            for pid in [front.pid, *pids]:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)
            front.wait(timeout=30)

    def test_cli_sigterm_drains_single_process_server(self, small_corpus, tmp_path):
        """``kill`` of a ``serve`` (one process) drains it as Ctrl-C does."""
        corpus_path = tmp_path / "corpus.json"
        save_corpus(small_corpus, str(corpus_path))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--corpus",
             str(corpus_path), "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONUNBUFFERED": "1"},
        )
        try:
            ready, _, _ = select.select([server.stdout], [], [], 60)
            assert ready, "the server printed no banner within 60 s"
            banner = server.stdout.readline()
            port = int(re.search(r"http://[^:]+:(\d+)", banner)[1])
            client = ServeClient("127.0.0.1", port)
            assert client.healthz()["status"] == "ok"

            server.send_signal(signal.SIGTERM)
            output, _ = server.communicate(timeout=30)
            assert server.returncode == 0, output
            assert "server drained" in output
        finally:
            if _running(server.pid):
                server.kill()
            server.wait(timeout=30)


def _running(pid: int) -> bool:
    """Whether *pid* is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestCrossProcessTracing:
    def test_front_and_worker_spans_stitch_from_directory(
        self, stack, tmp_path
    ):
        _, dataset, databases = stack
        trace_dir = tmp_path / "traces"
        pool = _pool(stack, trace_dir=str(trace_dir))
        exporter = JsonlExporter(trace_dir / "front.jsonl")
        pool.tracer = Tracer(exporter=exporter)
        with BackgroundServer(pool) as background:
            client = background.client()
            db_name = sorted(databases)[0]
            response = client.translate(
                QUESTIONS[0], db_name, use_cache=False
            )
            trace_id = response["trace_id"]
        exporter.close()

        records = load_spans(str(trace_dir))  # directory, not a file
        files = {f.name for f in trace_dir.glob("*.jsonl")}
        assert "front.jsonl" in files
        assert any(name.startswith("worker-") for name in files)

        tree = span_tree([r for r in records if r["trace_id"] == trace_id])
        roots = tree[trace_id]
        # one stitched tree: front.request at the root, the worker's
        # http.request (from its own JSONL file) nested beneath it
        assert [root.name for root in roots] == ["front.request"]
        child_names = {child.name for child in roots[0].children}
        assert "http.request" in child_names

        rendered = summarize(records, trace_id=trace_id)
        assert "front.request" in rendered
        assert "http.request" in rendered
