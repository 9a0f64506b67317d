"""The asyncio NL2VIS inference server.

A deliberately small HTTP/1.1 implementation over ``asyncio`` streams —
no third-party framework, no ``http.server`` — exposing three endpoints:

* ``POST /translate`` — JSON ``{"question", "db", "model"?, "format"?,
  "use_cache"?}`` → decoded VisQuery plus a rendered spec;
* ``POST /pipeline``  — JSON ``{"question", "db"?, "model"?, "k"?,
  "budget_ms"?, "max_rows"?, "repair"?}`` → the staged copilot
  (:mod:`repro.pipeline`): route (when ``db`` is omitted), generate,
  verify, execute, repair — a ranked candidate set with verdicts;
* ``GET /healthz``   — liveness, registered models, queue depth;
* ``GET /metrics``   — latency histograms, batch-size distribution,
  cache hit rates, pipeline verify/repair counters
  (see :mod:`repro.serve.metrics`).

Request flow: response-cache lookup → micro-batcher (padded forward
pass shared with concurrent requests) → value-slot fill + parse →
spec rendering through the shared :class:`ExecutionCache`.  Overload
returns 429, per-request timeouts 504, and shutdown drains the queue
before the socket closes.
"""

from __future__ import annotations

import asyncio
import functools
import json
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from repro.obs.trace import SpanContext, Tracer, traced
from repro.serve.batcher import MicroBatcher, QueueFullError, ServerDrainingError
from repro.serve.cache import EncoderCache, ResponseCache
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ModelRegistry, UnknownModelError
from repro.serve.translate import (
    FORMATS,
    DecodeConfig,
    TranslateResult,
    render_spec,
)
from repro.storage.executor import ExecutionCache
from repro.storage.schema import Database

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass
class ServerConfig:
    """Knobs for batching, backpressure, caching, and timeouts."""

    host: str = "127.0.0.1"
    port: int = 0                  # 0 = pick a free ephemeral port
    max_batch_size: int = 8        # requests coalesced per forward pass
    flush_interval: float = 0.005  # seconds to wait for batch stragglers
    max_queue_depth: int = 128     # queued requests before 429
    request_timeout: float = 30.0  # seconds per request before 504
    cache_size: int = 1024         # response-cache entries (<=0 disables)
    default_format: str = "text"
    max_body_bytes: int = 1 << 20
    default_beam_width: int = 1    # decode for requests without "beam_width"
    max_beam_width: int = 8        # per-request beam width cap
    max_candidates: int = 8        # per-request ranked-candidates cap
    encoder_cache_size: int = 256  # encoder-output LRU entries (<=0 disables)


class _HTTPError(Exception):
    """Internal: abort request handling with a status + message."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


# ----- shared HTTP plumbing -------------------------------------------------
#
# The single-process server and the multi-worker frontend
# (:mod:`repro.serve.pool`) speak the same minimal HTTP/1.1; these
# helpers, down to the per-connection loop, are the one implementation
# both use.


async def read_headers(reader: asyncio.StreamReader) -> Dict[str, str]:
    """Read header lines up to the blank line; names lower-cased.

    A repeated ``Content-Length`` raises :class:`_HTTPError` (400):
    which copy frames the body is ambiguous, so neither is trusted.
    """
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length" and name in headers:
            raise _HTTPError(400, "duplicate Content-Length header")
        headers[name] = value.strip()


async def read_http_request(
    reader: asyncio.StreamReader, max_body_bytes: int
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one request; ``None`` on a cleanly closed connection.

    Returns ``(method, target, lower-cased headers, body)``.  Raises
    :class:`_HTTPError` on malformed framing (400: bad request line,
    over-long line, bad or repeated ``Content-Length``, truncated body),
    an oversized body (413) or any ``Transfer-Encoding`` (501: bodies
    are framed by ``Content-Length`` only, and the pool front re-frames
    requests to its workers), and nothing else.
    """
    try:
        request_line = await reader.readline()
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _HTTPError(400, f"malformed request line: {parts!r}")
        headers = await read_headers(reader)
    except ValueError:  # a line past the StreamReader's limit
        raise _HTTPError(400, "request line or header too long") from None
    if "transfer-encoding" in headers:
        raise _HTTPError(501, "Transfer-Encoding is not supported")
    length_text = headers.get("content-length", "0") or "0"
    if not length_text.isdecimal():
        raise _HTTPError(400, f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > max_body_bytes:
        raise _HTTPError(413, f"body of {length} bytes exceeds limit")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise _HTTPError(
            400, f"body ended after {len(exc.partial)} of {length} bytes"
        ) from None
    return parts[0].upper(), parts[1], headers, body


def write_http_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    """Write one JSON response frame with an already-encoded body."""
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
    head = "\r\n".join(lines) + "\r\n\r\n"
    writer.write(head.encode("latin-1") + body)


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    *,
    route: Callable[..., Awaitable[tuple]],
    metrics: ServeMetrics,
    tracer: Optional[Tracer],
    span_name: str,
    max_body_bytes: int,
) -> None:
    """The per-connection request loop of both tiers.

    Reads requests until the client closes or sends ``Connection:
    close``.  Each request runs under a *span_name* ingress span
    (parented by inbound ``x-trace-id``/``x-parent-span``), is passed
    to ``route(method, target, body, span)``, counted in *metrics* and
    answered.  *route* returns ``(status, payload)`` or ``(status,
    payload, extra response headers)``; a dict payload is JSON-encoded
    here, after gaining ``latency_ms`` (on 200) and ``trace_id`` (when
    traced); a bytes payload is sent verbatim.  A framing error gets
    its status (400/413/501) and closes the connection, since the rest
    of the stream can no longer be framed.
    """
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                # a global lookup on every call, awaited in this task:
                # perfbench/layers.py rebinds it to key traced requests
                request = await read_http_request(reader, max_body_bytes)
            except _HTTPError as exc:
                metrics.observe_request(exc.status, 0.0)
                body = json.dumps({"error": str(exc)}).encode("utf-8")
                write_http_response(writer, exc.status, body, False)
                await writer.drain()
                break
            if request is None:
                break
            method, target, headers, body = request
            start = loop.time()
            # A bare inbound x-trace-id (no span id) roots this request's
            # span in the caller's existing trace; when the pool front
            # also forwards its own span id in x-parent-span, the worker
            # span nests under it so `trace summarize DIR` stitches
            # front→worker→decode.
            inbound = headers.get("x-trace-id")
            parent = (
                SpanContext(
                    trace_id=inbound, span_id=headers.get("x-parent-span", "")
                )
                if inbound else None
            )
            with traced(
                tracer,
                span_name,
                parent=parent,
                method=method,
                target=target.split("?", 1)[0],
            ) as span:
                extra: list = []
                try:
                    status, payload, *extra = await route(
                        method, target, body, span
                    )
                except _HTTPError as exc:
                    status, payload = exc.status, {"error": str(exc)}
                    if status >= 500:
                        span.set_error(exc)
                except Exception as exc:  # noqa: BLE001 - 500, keep serving
                    status, payload = 500, {"error": f"internal error: {exc}"}
                    span.set_error(exc)
                span.set_attribute("status", status)
                trace_id = span.trace_id
            elapsed = loop.time() - start
            metrics.observe_request(status, elapsed)
            response_headers = dict(*extra)
            if trace_id:
                response_headers["X-Trace-Id"] = trace_id
            if isinstance(payload, dict):
                if status == 200:
                    payload.setdefault("latency_ms", elapsed * 1000.0)
                if trace_id is not None:
                    payload["trace_id"] = trace_id
                payload = json.dumps(payload).encode("utf-8")
            keep_alive = (
                headers.get("connection", "keep-alive").lower() != "close"
            )
            write_http_response(
                writer, status, payload, keep_alive, response_headers
            )
            await writer.drain()
            if not keep_alive:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


class InferenceServer:
    """Serves a :class:`ModelRegistry` over corpus databases."""

    def __init__(
        self,
        registry: ModelRegistry,
        databases: Dict[str, Database],
        config: Optional[ServerConfig] = None,
        execution_cache: Optional[ExecutionCache] = None,
        tracer: Optional[Tracer] = None,
        worker_id: Optional[int] = None,
        control_handlers: Optional[Dict[str, Callable[[dict], dict]]] = None,
        health_extra: Optional[Callable[[], dict]] = None,
    ):
        self.registry = registry
        self.databases = databases
        self.config = config or ServerConfig()
        #: set when this server runs as a decode worker behind a
        #: :class:`repro.serve.pool.WorkerPool` front; surfaces in
        #: ``/healthz`` so the front can attribute replies.
        self.worker_id = worker_id
        #: ``POST /control/<action>`` handlers (pool-internal plane:
        #: hot-swap, cache invalidation).  Each takes the JSON body and
        #: returns a JSON-able dict; runs on an executor thread.
        self.control_handlers = dict(control_handlers or {})
        self.health_extra = health_extra
        if self.config.default_format not in FORMATS:
            raise ValueError(
                f"unknown default format {self.config.default_format!r}; "
                f"pick from {FORMATS}"
            )
        if not 1 <= self.config.default_beam_width <= self.config.max_beam_width:
            raise ValueError(
                f"default_beam_width {self.config.default_beam_width} must be "
                f"in [1, max_beam_width={self.config.max_beam_width}]"
            )
        self.metrics = ServeMetrics()
        self.response_cache = ResponseCache(self.config.cache_size)
        self.encoder_cache = EncoderCache(self.config.encoder_cache_size)
        # Hot-swapping (or unregistering) a model invalidates everything
        # derived from its old weights in both caches.
        registry.add_swap_listener(self._on_model_swap)
        self.execution_cache = execution_cache or ExecutionCache()
        # The staged copilot shares the server's execution cache (and
        # its per-database executors) across /pipeline requests.  The
        # import is deferred: repro.pipeline imports the serve package
        # for the translator interface, so a module-level import here
        # would be circular.
        from repro.pipeline import ExecuteStage, Router

        self.pipeline_executor = ExecuteStage(cache=self.execution_cache)
        #: one router for every /pipeline request, so its schema index
        #: is built once per corpus rather than once per request
        self.router = Router()
        #: optional request tracer: every request gets an ``http.request``
        #: span at ingress whose trace id follows it through the batcher
        #: (``batch.wait`` / ``decode`` spans) and comes back to the
        #: client as an ``X-Trace-Id`` header.
        self.tracer = tracer
        self.batcher = MicroBatcher(
            self._run_group,
            max_batch_size=self.config.max_batch_size,
            flush_interval=self.config.flush_interval,
            max_queue_depth=self.config.max_queue_depth,
            metrics=self.metrics,
            tracer=tracer,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self.host = self.config.host
        self.port = self.config.port

    # ----- lifecycle ---------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind the socket and launch the batcher; returns (host, port)."""
        await self.batcher.start()
        handler = functools.partial(
            serve_connection,
            route=self._route,
            metrics=self.metrics,
            tracer=self.tracer,
            span_name="http.request",
            max_body_bytes=self.config.max_body_bytes,
        )
        self._server = await asyncio.start_server(
            handler, self.config.host, self.config.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish queued work, close."""
        if self._server is not None:
            self._server.close()
        await self.batcher.drain()
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None

    async def run(self) -> None:
        """Start and serve until cancelled, then drain."""
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.shutdown()

    @property
    def url(self) -> str:
        """Base URL once started."""
        return f"http://{self.host}:{self.port}"

    # ----- model execution (runs on executor threads) -------------------

    def _on_model_swap(self, model_name: str) -> None:
        dropped = self.encoder_cache.invalidate_model(model_name)
        dropped += self.response_cache.invalidate_model(model_name)
        self.metrics.count("swap_invalidations")
        self.metrics.count("swap_invalidated_entries", dropped)

    def _run_group(self, group_key: str, items) -> list:
        # The batcher groups by (model, decode tag) so one group shares
        # one decode configuration; items carry the config itself.
        model_name = group_key.split("\x00", 1)[0]
        translator = self.registry.get(model_name)
        requests = [(question, database) for question, database, _ in items]
        decode = items[0][2]
        return translator.translate_requests(
            requests,
            decode=decode,
            encoder_cache=self.encoder_cache,
            model_name=model_name,
        )

    # ----- routing ------------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes, span
    ) -> Tuple[int, dict]:
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "healthz only supports GET")
            return 200, self._healthz()
        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "metrics only supports GET")
            return 200, self.metrics.report(
                response_cache=self.response_cache,
                encoder_cache=self.encoder_cache,
                execution_cache=self.execution_cache,
                queue_depth=self.batcher.depth,
                queue_capacity=self.config.max_queue_depth,
                tracer=self.tracer,
            )
        if path == "/translate":
            if method != "POST":
                raise _HTTPError(405, "translate only supports POST")
            return await self._translate(body, span)
        if path == "/pipeline":
            if method != "POST":
                raise _HTTPError(405, "pipeline only supports POST")
            return await self._pipeline(body, span)
        if path.startswith("/control/"):
            if method != "POST":
                raise _HTTPError(405, "control only supports POST")
            return await self._control(path[len("/control/"):], body, span)
        raise _HTTPError(404, f"no such endpoint: {path}")

    async def _control(self, action: str, body: bytes, span) -> Tuple[int, dict]:
        """Pool-internal control plane: swap weights, drop caches.

        Only actions wired in via ``control_handlers`` exist; a plain
        single-process server exposes none.  Handlers are synchronous
        (they touch the registry and caches, not the event loop) and
        run on an executor thread so a large swap never stalls decode.
        """
        handler = self.control_handlers.get(action)
        if handler is None:
            raise _HTTPError(404, f"no such control action: {action!r}")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "body must be a JSON object")
        span.set_attribute("action", action)
        result = await asyncio.get_running_loop().run_in_executor(
            None, lambda: handler(payload)
        )
        return 200, dict(result or {})

    def _healthz(self) -> dict:
        doc = {
            "status": "draining" if self.batcher.draining else "ok",
            "models": self.registry.info(),
            "default_model": self.registry.default_model,
            "databases": len(self.databases),
            "queue_depth": self.batcher.depth,
            "uptime_seconds": self.metrics.uptime,
        }
        if self.worker_id is not None:
            doc["worker_id"] = self.worker_id
        if self.health_extra is not None:
            doc.update(self.health_extra())
        return doc

    async def _translate(self, body: bytes, span) -> Tuple[int, dict]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "body must be a JSON object")

        question = payload.get("question")
        if not isinstance(question, str) or not question.strip():
            raise _HTTPError(400, "missing or empty 'question'")
        db_name = payload.get("db")
        if not isinstance(db_name, str) or not db_name:
            raise _HTTPError(400, "missing 'db'")
        database = self.databases.get(db_name)
        if database is None:
            raise _HTTPError(
                404,
                f"unknown database {db_name!r}; choices: "
                f"{sorted(self.databases)[:10]}",
            )
        model_name = payload.get("model") or self.registry.default_model
        if model_name is None or model_name not in self.registry:
            raise _HTTPError(
                404,
                f"unknown model {model_name!r}; registered: "
                f"{self.registry.names()}",
            )
        fmt = payload.get("format") or self.config.default_format
        if fmt not in FORMATS:
            raise _HTTPError(
                400, f"unknown format {fmt!r}; pick from {FORMATS}"
            )
        use_cache = bool(payload.get("use_cache", True))
        decode = self._decode_config(payload)

        translator = self.registry.get(model_name)
        cache_key = ResponseCache.key_of(
            model_name, db_name, question, fmt,
            decode=decode.cache_tag(), precision=translator.precision,
        )
        if use_cache:
            cached = self.response_cache.get(cache_key)
            if cached is not None:
                self.metrics.count("response_cache_hits")
                return 200, {**cached, "cached": True}
            self.metrics.count("response_cache_misses")

        try:
            result: TranslateResult = await self.batcher.submit(
                f"{model_name}\x00{decode.cache_tag()}",
                (question, database, decode),
                timeout=self.config.request_timeout,
                context=span.context,
            )
        except QueueFullError as exc:
            self.metrics.count("rejected_queue_full")
            raise _HTTPError(429, str(exc)) from None
        except ServerDrainingError as exc:
            raise _HTTPError(503, str(exc)) from None
        except asyncio.TimeoutError:
            self.metrics.count("rejected_timeout")
            raise _HTTPError(
                504,
                f"request missed its {self.config.request_timeout}s deadline",
            ) from None
        except UnknownModelError as exc:
            raise _HTTPError(404, str(exc)) from None

        spec = None
        render_error = None
        if result.ok:
            with traced(
                self.tracer, "render", parent=span, format=fmt
            ) as render_span:
                try:
                    spec = await asyncio.get_running_loop().run_in_executor(
                        None,
                        lambda: render_spec(
                            result, database, fmt, cache=self.execution_cache
                        ),
                    )
                except Exception as exc:  # noqa: BLE001 - spec is best-effort
                    render_error = f"render failed: {exc}"
                    render_span.set_error(exc)

        response = {
            **result.to_json(),
            "model": model_name,
            "format": fmt,
            "beam_width": decode.beam_width,
            "precision": translator.precision,
            "spec": spec,
            "render_error": render_error,
            "cached": False,
        }
        if use_cache:
            self.response_cache.put(cache_key, dict(response))
        return 200, response

    async def _pipeline(self, body: bytes, span) -> Tuple[int, dict]:
        """Run the staged copilot for one question.

        Unlike ``/translate`` this path skips the micro-batcher — the
        pipeline drives its own generate stage (and four more) with a
        per-request budget, so it runs as one unit on an executor
        thread.  Its verify/repair counters land in ``/metrics`` under
        a ``pipeline_`` prefix.
        """
        from repro.pipeline import Budget, Generator, Pipeline

        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HTTPError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HTTPError(400, "body must be a JSON object")

        question = payload.get("question")
        if not isinstance(question, str) or not question.strip():
            raise _HTTPError(400, "missing or empty 'question'")
        db_name = payload.get("db")
        if db_name is not None:
            if not isinstance(db_name, str) or not db_name:
                raise _HTTPError(400, "'db' must be a non-empty string")
            if db_name not in self.databases:
                raise _HTTPError(
                    404,
                    f"unknown database {db_name!r}; choices: "
                    f"{sorted(self.databases)[:10]}",
                )
        model_name = payload.get("model") or self.registry.default_model
        if model_name is None or model_name not in self.registry:
            raise _HTTPError(
                404,
                f"unknown model {model_name!r}; registered: "
                f"{self.registry.names()}",
            )
        k = payload.get("k", 3)
        if not isinstance(k, int) or isinstance(k, bool):
            raise _HTTPError(400, "'k' must be an integer")
        if not 1 <= k <= self.config.max_candidates:
            raise _HTTPError(
                400,
                f"'k' must be in [1, {self.config.max_candidates}], got {k}",
            )
        budget_ms = payload.get("budget_ms")
        if budget_ms is not None and (
            not isinstance(budget_ms, (int, float))
            or isinstance(budget_ms, bool)
            or budget_ms <= 0
        ):
            raise _HTTPError(400, "'budget_ms' must be a positive number")
        max_rows = payload.get("max_rows", 1000)
        if not isinstance(max_rows, int) or isinstance(max_rows, bool) or max_rows < 1:
            raise _HTTPError(400, "'max_rows' must be a positive integer")
        repair = payload.get("repair", True)
        if not isinstance(repair, bool):
            raise _HTTPError(400, "'repair' must be a boolean")
        judge = payload.get("judge", False)
        if not isinstance(judge, bool):
            raise _HTTPError(400, "'judge' must be a boolean")

        budget = Budget(
            total_ms=budget_ms, max_rows=max_rows, k=k, repair=repair
        )
        translator = self.registry.get(model_name)
        pipeline = Pipeline(
            self.databases,
            Generator(
                translator, model_name=model_name,
                max_width=self.config.max_beam_width,
            ),
            budget=budget,
            executor=self.pipeline_executor,
            router=self.router,
            tracer=self.tracer,
            metrics=self.metrics,
        )
        self.metrics.count("pipeline_requests")
        result = await asyncio.get_running_loop().run_in_executor(
            None, lambda: pipeline.run(question, db_name)
        )
        span.set_attribute("db", result.db_name)
        response = {**result.to_json(), "model": model_name}
        if judge:
            response["judge"] = await asyncio.get_running_loop().run_in_executor(
                None, lambda: self._judge_charts(result)
            )
            self.metrics.count("pipeline_judged")
        return 200, response

    def _judge_charts(self, result) -> List[dict]:
        """Gold-free verdicts for each returned chart (``"judge": true``).

        Serve-time judging has no gold answer, so only the three
        gold-free dimensions apply: validity (both renderers), legality
        (Table-1 rules), readability (rule-based).  One entry per chart
        in ``result.charts``, same order.
        """
        from repro.eval.judge import judge_chart

        database = self.databases[result.db_name]
        verdicts = []
        for candidate in result.charts:
            judgement = judge_chart(candidate.tree, database)
            verdicts.append(
                {
                    "vis": candidate.vis_text,
                    "repaired": candidate.repaired,
                    **judgement.to_json(),
                }
            )
        return verdicts

    def _decode_config(self, payload: dict) -> DecodeConfig:
        """Per-request decode settings, validated against config caps."""
        beam_width = payload.get("beam_width", self.config.default_beam_width)
        if not isinstance(beam_width, int) or isinstance(beam_width, bool):
            raise _HTTPError(400, "'beam_width' must be an integer")
        if not 1 <= beam_width <= self.config.max_beam_width:
            raise _HTTPError(
                400,
                f"'beam_width' must be in [1, {self.config.max_beam_width}], "
                f"got {beam_width}",
            )
        candidates = payload.get("candidates", 1)
        if not isinstance(candidates, int) or isinstance(candidates, bool):
            raise _HTTPError(400, "'candidates' must be an integer")
        if not 1 <= candidates <= self.config.max_candidates:
            raise _HTTPError(
                400,
                f"'candidates' must be in [1, {self.config.max_candidates}], "
                f"got {candidates}",
            )
        if candidates > beam_width:
            raise _HTTPError(
                400,
                f"'candidates' ({candidates}) cannot exceed 'beam_width' "
                f"({beam_width})",
            )
        return DecodeConfig(beam_width=beam_width, num_candidates=candidates)
