"""Tests for the ``repro.serve`` inference service.

Covers the shared translate path (batched vs. single determinism), the
model registry, the micro-batcher's coalescing/backpressure/drain
behaviour, the LRU response cache, the perf histogram, and the HTTP
server end to end over real sockets.
"""

from __future__ import annotations

import asyncio
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.neural.data import build_dataset, encode_source_batch
from repro.neural.model import Seq2Vis
from repro.perf import Histogram
from repro.pipeline import route as route_module
from repro.serve import (
    BackgroundServer,
    BaselineTranslator,
    DecodeConfig,
    EncoderCache,
    InferenceServer,
    LoadGenerator,
    MicroBatcher,
    ModelRegistry,
    NeuralTranslator,
    QueueFullError,
    ResponseCache,
    ServeError,
    ServerConfig,
    ServerDrainingError,
    Translator,
    TranslateResult,
    UnknownModelError,
    normalize_question,
    render_spec,
    translate_batch,
    translate_question,
)
from repro.serve.server import _HTTPError, read_http_request

QUESTIONS = [
    "how many rows per category?",
    "show the average price by type",
    "total amount for each name, sorted descending",
    "plot a pie of counts per status",
    "what is the number of items per year?",
    "compare the minimum score across groups",
]

#: two pipelined requests on one connection, the second asking to close
KEEP_ALIVE_THEN_CLOSE = (
    b"GET /nope HTTP/1.1\r\n\r\n"
    b"GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n"
)


@pytest.fixture(scope="module")
def stack(small_nvbench):
    """A dataset, a deterministic model, and the benchmark databases."""
    dataset = build_dataset(small_nvbench.pairs[:60], small_nvbench.databases)
    model = Seq2Vis(
        len(dataset.in_vocab), len(dataset.out_vocab), "attention", 16, 24, seed=2
    )
    return model, dataset, small_nvbench.databases


@pytest.fixture(scope="module")
def registry(stack):
    model, dataset, _ = stack
    reg = ModelRegistry()
    reg.register(
        "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
    )
    reg.register_baselines()
    reg.set_default("attn")
    return reg


@pytest.fixture(scope="module")
def running(registry, stack):
    """One shared server over real sockets for the e2e tests."""
    _, _, databases = stack
    server = InferenceServer(
        registry,
        databases,
        ServerConfig(port=0, max_batch_size=4, flush_interval=0.02),
    )
    with BackgroundServer(server) as background:
        yield server, background.client()


class TestTranslatePath:
    def test_batched_matches_single(self, stack):
        model, dataset, databases = stack
        names = sorted(databases)
        requests = [
            (question, databases[names[i % len(names)]])
            for i, question in enumerate(QUESTIONS)
        ]
        batched = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests
        )
        for (question, database), via_batch in zip(requests, batched):
            alone = translate_question(
                model, dataset.in_vocab, dataset.out_vocab, question, database
            )
            assert via_batch.tokens == alone.tokens
            assert via_batch.vis_text == alone.vis_text
            assert via_batch.db_name == database.name

    def test_padding_is_exact_at_model_level(self, stack):
        model, dataset, _ = stack
        examples = dataset.examples[:3]
        token_lists = [e.src_tokens for e in examples]
        assert len({len(tokens) for tokens in token_lists}) > 1, (
            "fixture should exercise real padding"
        )
        batch = encode_source_batch(
            token_lists, dataset.in_vocab, dataset.out_vocab
        )
        together = model.greedy_decode(
            batch, dataset.out_vocab.bos_id, dataset.out_vocab.eos_id
        )
        for tokens, expected in zip(token_lists, together):
            single = encode_source_batch(
                [tokens], dataset.in_vocab, dataset.out_vocab
            )
            alone = model.greedy_decode(
                single, dataset.out_vocab.bos_id, dataset.out_vocab.eos_id
            )[0]
            assert alone == expected

    def test_empty_batch_rejected(self, stack):
        model, dataset, _ = stack
        assert translate_batch(model, dataset.in_vocab, dataset.out_vocab, []) == []
        with pytest.raises(ValueError):
            encode_source_batch([], dataset.in_vocab, dataset.out_vocab)

    def test_normalize_question(self):
        assert normalize_question("  Show\tME   prices ") == "show me prices"
        assert normalize_question("a b") == normalize_question("A  B")

    def test_render_spec_all_formats(self, flight_db):
        baseline = BaselineTranslator.from_name("deepeye")
        result = baseline.translate_requests(
            [("show the price for each origin", flight_db)]
        )[0]
        assert result.ok, result.error
        assert render_spec(result, flight_db, "text") == result.vis_text
        assert "$schema" in render_spec(result, flight_db, "vega-lite")
        assert "series" in render_spec(result, flight_db, "echarts")
        assert "data" in render_spec(result, flight_db, "plotly")
        assert isinstance(render_spec(result, flight_db, "ascii"), str)
        assert "ggplot" in render_spec(result, flight_db, "ggplot")
        with pytest.raises(ValueError):
            render_spec(result, flight_db, "png")

    def test_render_spec_none_for_failed_parse(self, flight_db):
        failed = TranslateResult(
            question="q", db_name="flights", tokens=["nonsense"],
            error="boom",
        )
        assert render_spec(failed, flight_db, "vega-lite") is None


class TestRegistry:
    def test_first_registration_becomes_default(self, stack):
        model, dataset, _ = stack
        reg = ModelRegistry()
        assert reg.default_model is None
        reg.register(
            "m", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        assert reg.default_model == "m"
        assert "m" in reg and len(reg) == 1

    def test_hot_swap_replaces_instance(self, stack):
        model, dataset, _ = stack
        reg = ModelRegistry()
        first = NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        second = NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        reg.register("m", first)
        reg.register("m", second)
        assert reg.get("m") is second
        assert len(reg) == 1

    def test_unknown_model_raises(self):
        reg = ModelRegistry()
        with pytest.raises(UnknownModelError):
            reg.get("missing")
        with pytest.raises(UnknownModelError):
            reg.set_default("missing")
        with pytest.raises(UnknownModelError):
            BaselineTranslator.from_name("not-a-baseline")

    def test_unregister_moves_default(self, stack):
        model, dataset, _ = stack
        reg = ModelRegistry()
        reg.register(
            "a", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        reg.register_baselines()
        reg.set_default("a")
        reg.unregister("a")
        assert reg.default_model in reg.names()
        assert "a" not in reg

    def test_warm_touches_every_model(self, registry, stack):
        _, _, databases = stack
        timings = registry.warm(databases)
        assert set(timings) == set(registry.names())
        assert all(seconds >= 0 for seconds in timings.values())

    def test_baseline_translator_reports_no_prediction(self, flight_db):
        baseline = BaselineTranslator("nl4dv", lambda nl, db: None)
        result = baseline.translate_requests([("??", flight_db)])[0]
        assert not result.ok
        assert "no visualization" in result.error

    def test_info_shapes(self, registry):
        info = registry.info()
        assert info["attn"]["kind"] == "neural"
        assert info["deepeye"]["kind"] == "baseline"


class TestResponseCache:
    def test_key_normalizes_question(self):
        a = ResponseCache.key_of("m", "db", "Show  Prices", "text")
        b = ResponseCache.key_of("m", "db", "show prices", "text")
        c = ResponseCache.key_of("m", "db", "show prices", "vega-lite")
        assert a == b
        assert a != c

    def test_lru_eviction(self):
        cache = ResponseCache(maxsize=2)
        k1, k2, k3 = (("m", "d", str(i), "text") for i in range(3))
        cache.put(k1, {"n": 1})
        cache.put(k2, {"n": 2})
        assert cache.get(k1) == {"n": 1}  # refresh k1
        cache.put(k3, {"n": 3})           # evicts k2
        assert cache.get(k2) is None
        assert cache.get(k1) == {"n": 1}
        assert cache.get(k3) == {"n": 3}
        stats = cache.stats()
        assert stats["size"] == 2
        assert stats["hits"] == 3 and stats["misses"] == 1

    def test_disabled_cache_never_stores(self):
        cache = ResponseCache(maxsize=0)
        key = ResponseCache.key_of("m", "d", "q", "text")
        cache.put(key, {"n": 1})
        assert cache.get(key) is None
        assert len(cache) == 0


class TestHistogram:
    def test_buckets_and_percentiles(self):
        hist = Histogram((1.0, 10.0))
        for value in (0.5, 5.0, 5.0, 50.0):
            hist.observe(value)
        assert hist.buckets() == {"le_1": 1, "le_10": 2, "le_inf": 1}
        assert hist.count == 4
        assert hist.min == 0.5 and hist.max == 50.0
        assert hist.percentile(0) == 0.5
        assert hist.percentile(100) == 50.0
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["p50"] in (5.0,)

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram((10.0, 1.0))
        with pytest.raises(ValueError):
            Histogram((1.0,)).percentile(150)

    def test_empty(self):
        hist = Histogram((1.0,))
        assert hist.mean == 0.0
        assert hist.percentile(50) == 0.0


class _Recorder:
    """Batch handler that records group sizes."""

    def __init__(self, delay: float = 0.0):
        self.sizes = []
        self.delay = delay

    def __call__(self, key, items):
        if self.delay:
            time.sleep(self.delay)
        self.sizes.append(len(items))
        return [f"{key}:{item}" for item in items]


class TestMicroBatcher:
    def test_coalesces_concurrent_submits(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(
                recorder, max_batch_size=8, flush_interval=0.05
            )
            await batcher.start()
            results = await asyncio.gather(
                *(batcher.submit("m", i) for i in range(6))
            )
            await batcher.drain()
            return recorder, results

        recorder, results = asyncio.run(scenario())
        assert results == [f"m:{i}" for i in range(6)]
        assert max(recorder.sizes) > 1, "no coalescing happened"

    def test_groups_by_key(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(
                recorder, max_batch_size=8, flush_interval=0.05
            )
            await batcher.start()
            results = await asyncio.gather(
                batcher.submit("a", 1),
                batcher.submit("b", 2),
                batcher.submit("a", 3),
            )
            await batcher.drain()
            return results

        assert asyncio.run(scenario()) == ["a:1", "b:2", "a:3"]

    def test_queue_full_rejects(self):
        async def scenario():
            batcher = MicroBatcher(
                _Recorder(), max_batch_size=1, max_queue_depth=2
            )
            # Flusher never started: the queue can only fill up.
            waiting = [
                asyncio.ensure_future(batcher.submit("m", i)) for i in range(2)
            ]
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await batcher.submit("m", 99)
            for task in waiting:
                task.cancel()
            return True

        assert asyncio.run(scenario())

    def test_drain_finishes_accepted_work_then_rejects(self):
        async def scenario():
            recorder = _Recorder()
            batcher = MicroBatcher(
                recorder, max_batch_size=4, flush_interval=0.01
            )
            await batcher.start()
            pending = asyncio.ensure_future(batcher.submit("m", "x"))
            await asyncio.sleep(0)
            await batcher.drain()
            assert pending.result() == "m:x"
            with pytest.raises(ServerDrainingError):
                await batcher.submit("m", "y")
            return True

        assert asyncio.run(scenario())

    def test_handler_exception_propagates(self):
        async def scenario():
            def broken(key, items):
                raise UnknownModelError("nope")

            batcher = MicroBatcher(broken, flush_interval=0.01)
            await batcher.start()
            with pytest.raises(UnknownModelError):
                await batcher.submit("m", 1)
            await batcher.drain()
            return True

        assert asyncio.run(scenario())

    def test_per_request_timeout(self):
        async def scenario():
            batcher = MicroBatcher(
                _Recorder(delay=0.5), flush_interval=0.001
            )
            await batcher.start()
            with pytest.raises(asyncio.TimeoutError):
                await batcher.submit("m", 1, timeout=0.05)
            await batcher.drain()
            return True

        assert asyncio.run(scenario())

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            MicroBatcher(_Recorder(), max_batch_size=0)


_HEAD_LINES = st.one_of(
    st.binary(max_size=24),
    st.sampled_from(
        [b"GET /healthz HTTP/1.1", b"POST /translate HTTP/1.1", b"",
         b"Transfer-Encoding: chunked"]
    ),
    st.one_of(st.integers(-10, 100).map(str), st.text(max_size=6)).map(
        lambda value: b"Content-Length: " + value.encode("utf-8")
    ),
)
_STREAMS = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda lines, body: b"\r\n".join(lines) + b"\r\n\r\n" + body,
        st.lists(_HEAD_LINES, max_size=6),
        st.binary(max_size=40),
    ),
)


class TestReadHTTPRequest:
    @example(
        stream=b"POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
        limit=1 << 16, max_body=64,
    )
    @settings(max_examples=300, deadline=None)
    @given(
        stream=_STREAMS,
        limit=st.sampled_from([16, 1 << 16]),
        max_body=st.integers(0, 64),
    )
    def test_request_none_or_http_error(self, stream, limit, max_body):
        """Any byte stream frames, ends cleanly, or raises _HTTPError."""

        async def read():
            reader = asyncio.StreamReader(limit=limit)
            reader.feed_data(stream)
            reader.feed_eof()
            return await read_http_request(reader, max_body)

        try:
            request = asyncio.run(read())
        except _HTTPError as exc:
            assert exc.status in (400, 413, 501)
            return
        if request is not None:
            _, _, headers, body = request
            assert len(body) == int(headers.get("content-length") or 0)
            assert len(body) <= max_body


class TestServerEndToEnd:
    def test_healthz_shape(self, running):
        server, client = running
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["default_model"] == "attn"
        assert set(health["models"]) >= {"attn", "deepeye", "nl4dv"}
        assert health["databases"] == len(server.databases)
        assert health["queue_depth"] >= 0
        assert health["uptime_seconds"] > 0

    def test_metrics_shape(self, running, stack):
        _, _, databases = stack
        _, client = running
        client.translate(QUESTIONS[0], sorted(databases)[0], use_cache=False)
        metrics = client.metrics()
        for key in (
            "uptime_seconds", "counters", "latency_ms", "batch_size",
            "response_cache", "execution_cache", "queue", "avg_batch_size",
        ):
            assert key in metrics, key
        assert metrics["latency_ms"]["count"] > 0
        assert "le_inf" in metrics["latency_ms"]["buckets"]
        assert metrics["counters"]["requests_total"] > 0
        assert metrics["queue"]["capacity"] == 128

    def test_batched_server_matches_serial_reference(self, running, stack):
        model, dataset, databases = stack
        server, client = running
        names = sorted(databases)
        requests = [
            {
                "question": f"{question} ({index})",
                "db": names[index % len(names)],
                "use_cache": False,
            }
            for index, question in enumerate(QUESTIONS * 2)
        ]
        expected = [
            translate_question(
                model,
                dataset.in_vocab,
                dataset.out_vocab,
                request["question"],
                databases[request["db"]],
            )
            for request in requests
        ]
        generator = LoadGenerator(client, concurrency=6)
        report, responses = generator.run(requests)
        assert report.errors == 0, report.by_status
        for request, response, reference in zip(requests, responses, expected):
            assert response is not None
            assert response["tokens"] == reference.tokens, request
            assert response["vis"] == reference.vis_text
            assert response["cached"] is False
            assert response["latency_ms"] > 0.0
        metrics = client.metrics()
        assert metrics["batch_size"]["count"] > 0
        assert metrics["counters"]["batched_requests"] >= len(requests)

    def test_response_cache_round_trip(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        first = client.translate("how many rows per category today?", db)
        again = client.translate("How many  rows per category today?", db)
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["tokens"] == first["tokens"]

    def test_baseline_model_with_rendering(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.translate(
            "show everything", db, model="deepeye", fmt="vega-lite"
        )
        if response["error"] is None:
            assert response["spec"]["$schema"].startswith("https://vega")
        assert response["model"] == "deepeye"
        assert response["format"] == "vega-lite"

    def test_http_errors(self, running, stack, raw_http):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        with pytest.raises(ServeError) as err:
            client.translate("q?", "no-such-db")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, model="no-such-model")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, fmt="png")
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.translate("   ", db)
        assert err.value.status == 400
        assert client.request("GET", "/translate")[0] == 405
        assert client.request("POST", "/healthz")[0] == 405
        assert client.request("GET", "/nope")[0] == 404
        status, body = client.request("POST", "/translate", None)
        assert status == 400 and "JSON" in body["error"]
        # keep-alive by default; "Connection: close" is answered, then closed
        replies = raw_http(client.host, client.port, KEEP_ALIVE_THEN_CLOSE)
        assert [(line, headers["Connection"]) for line, headers, _ in replies] == [
            ("HTTP/1.1 404 Not Found", "keep-alive"),
            ("HTTP/1.1 404 Not Found", "close"),
        ]

    def test_queue_overflow_returns_429(self, stack):
        _, _, databases = stack

        class Slow(Translator):
            kind = "slow"

            def translate_requests(self, requests, decode=None,
                                   encoder_cache=None, model_name=""):
                time.sleep(0.3)
                return [
                    TranslateResult(question=q, db_name=d.name, error="slow")
                    for q, d in requests
                ]

        registry = ModelRegistry()
        registry.register("slow", Slow())
        server = InferenceServer(
            registry,
            databases,
            ServerConfig(
                port=0, max_batch_size=1, max_queue_depth=1,
                flush_interval=0.001, cache_size=0,
            ),
        )
        db = sorted(databases)[0]
        with BackgroundServer(server) as background:
            client = background.client()
            generator = LoadGenerator(client, concurrency=6)
            report, _ = generator.run(
                [
                    {"question": f"q {i}", "db": db, "use_cache": False}
                    for i in range(6)
                ]
            )
        assert report.by_status.get(429, 0) >= 1, report.by_status
        assert report.by_status.get(200, 0) >= 1, report.by_status

    def test_graceful_drain_completes_inflight(self, registry, stack):
        _, _, databases = stack
        server = InferenceServer(
            registry, databases, ServerConfig(port=0, cache_size=0)
        )
        background = BackgroundServer(server)
        background.start()
        client = background.client()
        db = sorted(databases)[0]
        assert client.translate("count rows per type", db)["question"]
        background.stop()
        assert server.batcher.draining
        with pytest.raises(Exception):
            client.healthz()

class TestDecodeConfig:
    def test_defaults_are_greedy(self):
        config = DecodeConfig()
        assert config.is_greedy
        assert config.cache_tag() == "greedy"

    def test_beam_tags_are_distinct(self):
        assert DecodeConfig(beam_width=4).cache_tag() != "greedy"
        assert (
            DecodeConfig(beam_width=4).cache_tag()
            != DecodeConfig(beam_width=2).cache_tag()
        )
        assert (
            DecodeConfig(beam_width=4, num_candidates=3).cache_tag()
            != DecodeConfig(beam_width=4).cache_tag()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=0)
        with pytest.raises(ValueError):
            DecodeConfig(beam_width=2, num_candidates=3)
        with pytest.raises(ValueError):
            DecodeConfig(num_candidates=0)

    def test_response_cache_key_separates_decode_and_precision(self):
        greedy = ResponseCache.key_of("m", "db", "q?", "text")
        beam = ResponseCache.key_of(
            "m", "db", "q?", "text", decode=DecodeConfig(beam_width=4).cache_tag()
        )
        int8 = ResponseCache.key_of("m", "db", "q?", "text", precision="int8")
        assert len({greedy, beam, int8}) == 3


class TestEncoderCache:
    def test_hits_after_first_encode(self, stack):
        model, dataset, databases = stack
        names = sorted(databases)
        cache = EncoderCache()
        requests = [
            (question, databases[names[i % len(names)]])
            for i, question in enumerate(QUESTIONS[:4])
        ]
        plain = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests
        )
        first = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            encoder_cache=cache, model_name="attn",
        )
        assert cache.stats()["misses"] == len(requests)
        assert cache.stats()["hits"] == 0
        second = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            encoder_cache=cache, model_name="attn",
        )
        assert cache.stats()["hits"] == len(requests)
        for a, b, c in zip(plain, first, second):
            assert a.tokens == b.tokens == c.tokens

    def test_mixed_hit_miss_batch_is_exact(self, stack):
        model, dataset, databases = stack
        names = sorted(databases)
        cache = EncoderCache()
        db = databases[names[0]]
        warm = [(QUESTIONS[0], db)]
        translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, warm,
            encoder_cache=cache, model_name="attn",
        )
        mixed = [(QUESTIONS[0], db), (QUESTIONS[1], db), (QUESTIONS[2], db)]
        cached = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, mixed,
            encoder_cache=cache, model_name="attn",
        )
        plain = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, mixed
        )
        assert [r.tokens for r in cached] == [r.tokens for r in plain]
        assert cache.stats()["hits"] >= 1

    def test_beam_decode_reuses_greedy_encodings(self, stack):
        model, dataset, databases = stack
        db = databases[sorted(databases)[0]]
        cache = EncoderCache()
        requests = [(QUESTIONS[0], db)]
        translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            encoder_cache=cache, model_name="attn",
        )
        beamed = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            decode=DecodeConfig(beam_width=3), encoder_cache=cache,
            model_name="attn",
        )
        assert cache.stats()["hits"] == 1
        reference = translate_batch(
            model, dataset.in_vocab, dataset.out_vocab, requests,
            decode=DecodeConfig(beam_width=3),
        )
        assert [r.tokens for r in beamed] == [r.tokens for r in reference]

    def test_lru_eviction_and_invalidate(self):
        import numpy as np

        cache = EncoderCache(maxsize=2)
        entry = EncoderCache.entry_of(
            np.ones((3, 4)), np.ones(2), np.ones(2), np.ones(3)
        )
        cache.put(EncoderCache.key_of("m1", "db", ["a"]), entry)
        cache.put(EncoderCache.key_of("m2", "db", ["b"]), entry)
        cache.put(EncoderCache.key_of("m2", "db", ["c"]), entry)
        assert len(cache) == 2
        assert cache.get(EncoderCache.key_of("m1", "db", ["a"])) is None
        assert cache.invalidate_model("m2") == 2
        assert len(cache) == 0
        assert cache.stats()["resident_bytes"] == 0

    def test_disabled_cache_never_stores(self):
        import numpy as np

        cache = EncoderCache(maxsize=0)
        entry = EncoderCache.entry_of(
            np.ones((3, 4)), np.ones(2), np.ones(2), np.ones(3)
        )
        key = EncoderCache.key_of("m", "db", ["a"])
        cache.put(key, entry)
        assert len(cache) == 0
        assert cache.get(key) is None


class TestBeamServing:
    def test_beam_request_fields(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.translate(
            "beam me the counts per type", db, beam_width=3, candidates=2,
            use_cache=False,
        )
        assert response["beam_width"] == 3
        assert response["precision"] in ("float32", "float64")
        assert isinstance(response.get("candidates"), list)
        assert 1 <= len(response["candidates"]) <= 2
        top = response["candidates"][0]
        assert set(top) >= {"tokens", "score"}
        assert top["tokens"] == response["tokens"]

    def test_greedy_response_has_no_candidates(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.translate(
            "just the greedy counts", db, use_cache=False
        )
        assert response["beam_width"] == 1
        assert "candidates" not in response

    def test_beam_and_greedy_cache_separately(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        question = "distinct cache entries per decode config?"
        greedy = client.translate(question, db)
        beamed = client.translate(question, db, beam_width=4)
        assert greedy["cached"] is False
        assert beamed["cached"] is False  # beam never reads greedy's entry
        assert client.translate(question, db, beam_width=4)["cached"] is True

    def test_bad_beam_params_rejected(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, beam_width=0)
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, beam_width=999)
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.translate("q?", db, beam_width=2, candidates=3)
        assert err.value.status == 400

    def test_encoder_cache_in_metrics(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        client.translate("metrics see the encoder cache", db, use_cache=False)
        metrics = client.metrics()
        assert "encoder_cache" in metrics
        assert metrics["encoder_cache"]["maxsize"] == 256

    def test_hot_swap_invalidates_both_caches(self, stack):
        model, dataset, databases = stack
        registry = ModelRegistry()
        registry.register(
            "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        server = InferenceServer(registry, databases, ServerConfig(port=0))
        db = databases[sorted(databases)[0]]
        # Prime both caches through the real batch path.
        results = server._run_group(
            "attn\x00greedy", [("how many rows?", db, DecodeConfig())]
        )
        key = ResponseCache.key_of("attn", db.name, "how many rows?", "text")
        server.response_cache.put(key, {"tokens": results[0].tokens})
        assert len(server.encoder_cache) == 1
        assert len(server.response_cache) == 1
        registry.register(
            "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        assert len(server.encoder_cache) == 0
        assert len(server.response_cache) == 0

    def test_unregister_also_invalidates(self, stack):
        model, dataset, databases = stack
        registry = ModelRegistry()
        registry.register(
            "attn", NeuralTranslator(model, dataset.in_vocab, dataset.out_vocab)
        )
        server = InferenceServer(registry, databases, ServerConfig(port=0))
        db = databases[sorted(databases)[0]]
        server._run_group(
            "attn\x00greedy", [("count the rows", db, DecodeConfig())]
        )
        assert len(server.encoder_cache) == 1
        registry.unregister("attn")
        assert len(server.encoder_cache) == 0


class TestPipelineEndpoint:
    def test_pinned_database(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline(
            "how many rows per category?", db=db, model="deepeye", k=3
        )
        assert response["db"] == db
        assert response["routed"] is False
        assert response["model"] == "deepeye"
        assert response["candidates"]
        assert response["charts"], "baseline should yield a valid chart"
        assert set(response["stage_timings_ms"]) == {
            "route", "generate", "verify", "execute", "repair"
        }
        assert response["timed_out"] is None
        top = response["candidates"][0]
        assert set(top) >= {"tokens", "score", "status", "violations", "execution"}

    def test_routes_when_db_omitted(self, running):
        _, client = running
        response = client.pipeline(
            "how many rows per category?", model="deepeye"
        )
        assert response["routed"] is True
        assert response["routes"], "route evidence is returned"
        assert response["db"] == response["routes"][0]["db"]

    def test_budget_fields_round_trip(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline(
            "counts per type", db=db, model="deepeye",
            k=2, budget_ms=30000, max_rows=5, repair=False,
        )
        budget = response["budget"]
        assert budget["k"] == 2
        assert budget["total_ms"] == 30000
        assert budget["max_rows"] == 5
        assert budget["repair"] is False
        assert response["counters"]["repairs_attempted"] == 0

    def test_error_statuses(self, running):
        _, client = running
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", db="no_such_db")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", model="no_such_model")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.pipeline("")
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", k=0)
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.pipeline("q?", budget_ms=-5)
        assert err.value.status == 400

    def test_pipeline_counters_in_metrics(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        client.pipeline("metrics see the pipeline", db=db, model="deepeye")
        counters = client.metrics()["counters"]
        assert counters.get("pipeline_requests", 0) >= 1
        assert counters.get("pipeline_executions", 0) >= 1
        assert counters.get("pipeline_verify_pass", 0) >= 1
        assert counters.get("pipeline_born_legal_total", 0) >= 1

    def test_judge_block_on_request(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline(
            "how many rows per category?", db=db, model="deepeye", judge=True
        )
        assert response["charts"], "need a valid chart to judge"
        verdicts = response["judge"]
        assert len(verdicts) == len(response["charts"])
        for entry in verdicts:
            assert set(entry) >= {"vis", "repaired", "dimensions"}
            # serve-time judging is gold-free: no tree dimension
            assert set(entry["dimensions"]) == {
                "validity", "legality", "readability"
            }
            for verdict in entry["dimensions"].values():
                assert set(verdict) == {"ok", "reason"}
        counters = client.metrics()["counters"]
        assert counters.get("pipeline_judged", 0) >= 1

    def test_judge_defaults_off(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        response = client.pipeline("count rows", db=db, model="deepeye")
        assert "judge" not in response

    def test_routed_requests_share_one_schema_index(
        self, registry, stack, monkeypatch
    ):
        """The server builds the route index once, not per request."""
        _, _, databases = stack
        builds = []

        class CountingIndex(route_module.SchemaIndex):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(route_module, "SchemaIndex", CountingIndex)
        server = InferenceServer(registry, databases, ServerConfig(port=0))
        with BackgroundServer(server) as background:
            client = background.client()
            responses = {
                question: client.pipeline(question, model="deepeye")
                for question in QUESTIONS[:4]
            }
        assert len(builds) == 1
        reference = route_module.Router()
        for question, response in responses.items():
            assert response["routed"] is True
            assert response["routes"] == [
                route.to_json() for route in reference.route(question, databases)
            ]

    def test_judge_must_be_boolean(self, running, stack):
        _, _, databases = stack
        _, client = running
        db = sorted(databases)[0]
        with pytest.raises(ServeError) as err:
            client._checked(
                "POST", "/pipeline",
                {"question": "q?", "db": db, "model": "deepeye",
                 "judge": "yes"},
            )
        assert err.value.status == 400
