"""Multi-process horizontal serving: a front proxy over N decode workers.

One asyncio process can accept thousands of connections, but numpy
decode holds the GIL — a slow beam batch stalls every other request.
:class:`WorkerPool` breaks that ceiling by running the accept/route loop
in the front process and the model forward passes in N **forked** worker
processes, each a full :class:`~repro.serve.server.InferenceServer`
(micro-batcher, caches, metrics) bound to its own loopback port:

* **Shared weights** — every registered neural model is packed once
  into a :mod:`multiprocessing.shared_memory` segment
  (:func:`repro.neural.shared.share_model`); workers attach and rebind
  parameter views, so resident weight bytes are O(1) in the worker
  count (int8/f16 models shrink the segment further).
* **Routing** — ``POST /translate`` / ``POST /pipeline`` round-robin
  over READY workers; each worker micro-batches its own stream.
* **Crash recovery** — a supervisor task detects dead workers, respawns
  them against the current segments, and in-flight requests that hit a
  broken connection are re-queued onto surviving workers.
* **Rolling hot-swap** — :meth:`WorkerPool.swap_model` packs the new
  weights into a fresh segment, then per worker: drain → ``POST
  /control/swap`` (the worker re-attaches and re-registers, firing its
  cache-invalidation listeners) → back in rotation.  The pool serves
  throughout; the old segment is unlinked when the last worker has
  moved.
* **Consolidated telemetry** — front ``GET /healthz`` reports per-worker
  liveness/queue depth; ``GET /metrics`` merges per-worker counters and
  histograms (:func:`repro.perf.merge_summaries`) next to the front's
  own; one trace threads front → worker → decode via ``X-Trace-Id`` /
  ``X-Parent-Span`` headers, one JSONL file per process
  (``repro trace summarize DIR`` stitches them).

``repro serve --workers N`` builds one of these; ``--workers 1`` keeps
the original single-process server.  See ``docs/SERVING.md``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import multiprocessing
import os
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.neural.shared import (
    SharedManifest,
    SharedModel,
    share_model,
    shared_segments_report,
)
from repro.obs.trace import Tracer
from repro.perf import merge_summaries
from repro.serve.metrics import ServeMetrics
from repro.serve.server import (
    ServerConfig,
    _HTTPError,
    read_headers,
    serve_connection,
)
from repro.storage.schema import Database

#: Workers MUST be forked: arguments (databases, manifests) pass by
#: address-space inheritance, and fork children share the parent's
#: ``resource_tracker``, so attaching to a segment never schedules a
#: spurious unlink (see :mod:`repro.neural.shared`).
_FORK = multiprocessing.get_context("fork")

STARTING = "starting"
READY = "ready"
DRAINING = "draining"
DEAD = "dead"


@dataclass
class PoolConfig:
    """Knobs for the front process and its workers."""

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0                      # front port; 0 = ephemeral
    worker: ServerConfig = field(default_factory=ServerConfig)
    warm: bool = False                 # run a dummy request per model at boot
    respawn: bool = True               # auto-restart crashed workers
    max_forward_attempts: int = 3      # tries across workers per request
    worker_startup_timeout: float = 60.0
    ready_wait_timeout: float = 15.0   # request wait for a READY worker
    heartbeat_interval: float = 0.25   # supervisor liveness poll
    drain_poll_interval: float = 0.02  # inflight poll during swap/shutdown
    shutdown_timeout: float = 10.0
    trace_dir: Optional[str] = None    # per-process JSONL span files


@dataclass
class WorkerHandle:
    """Front-side view of one decode worker."""

    worker_id: int
    process: multiprocessing.Process
    conn: object                       # parent end of the startup pipe
    port: int = 0
    state: str = STARTING
    inflight: int = 0
    restarts: int = 0

    def describe(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "pid": self.process.pid,
            "port": self.port,
            "state": self.state,
            "alive": self.process.is_alive(),
            "inflight": self.inflight,
            "restarts": self.restarts,
        }


class WorkerPool:
    """The front process: owns segments, workers, and the public socket.

    Duck-types the server interface :class:`BackgroundServer` expects
    (async ``start``/``shutdown``, ``host``/``port``), so tests and the
    CLI drive a pool exactly like a single-process server.
    """

    def __init__(
        self,
        databases: Dict[str, Database],
        config: Optional[PoolConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.databases = databases
        self.config = config or PoolConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.tracer = tracer
        self.metrics = ServeMetrics()
        #: model name → owning SharedModel (the pool creates/unlinks).
        self._shared: Dict[str, SharedModel] = {}
        #: model name → manifest respawned workers attach with.
        self._manifests: Dict[str, SharedManifest] = {}
        self._baselines = False
        self._default: Optional[str] = None
        self._workers: List[WorkerHandle] = []
        self._rr = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._supervisor: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False
        self._swap_lock: Optional[asyncio.Lock] = None
        self.generation = 1
        self.host = self.config.host
        self.port = self.config.port

    # ----- model registration (before or after start) --------------------

    def share_model(
        self, name: str, model, in_vocab, out_vocab, default: bool = False
    ) -> SharedModel:
        """Pack *model* into a shared segment served under *name*.

        Before :meth:`start` this seeds the initial worker registry;
        afterwards use :meth:`swap_model`, which goes through the
        rolling drain.
        """
        shared = share_model(model, in_vocab, out_vocab)
        shared.set_generation(self.generation)
        self._shared[name] = shared
        self._manifests[name] = shared.manifest
        if default or self._default is None:
            self._default = name
        return shared

    def load_npz(
        self,
        name: str,
        path: str,
        precision: Optional[str] = None,
        default: bool = False,
    ) -> SharedModel:
        """Load a saved seq2vis archive into a shared segment."""
        from repro.neural.persist import load_model

        model, in_vocab, out_vocab = load_model(path, precision=precision)
        return self.share_model(
            name, model, in_vocab, out_vocab, default=default
        )

    def register_baselines(self) -> None:
        """Have every worker register the rule-based baselines."""
        self._baselines = True

    def set_default(self, name: str) -> None:
        """Default model for requests that do not name one."""
        self._default = name

    # ----- lifecycle ------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Fork workers, await their ports, bind the front socket."""
        self._loop = asyncio.get_running_loop()
        self._swap_lock = asyncio.Lock()
        if self.config.trace_dir:
            Path(self.config.trace_dir).mkdir(parents=True, exist_ok=True)
        for worker_id in range(self.config.workers):
            self._workers.append(self._fork_worker(worker_id))
        await asyncio.gather(
            *(self._await_ready(handle) for handle in self._workers)
        )
        handler = functools.partial(
            serve_connection,
            route=self._route,
            metrics=self.metrics,
            tracer=self.tracer,
            span_name="front.request",
            max_body_bytes=self.config.worker.max_body_bytes,
        )
        self._server = await asyncio.start_server(
            handler, self.config.host, self.config.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._supervisor = asyncio.ensure_future(self._supervise())
        return self.host, self.port

    async def shutdown(self) -> None:
        """Stop accepting, drain in-flight work, stop workers, unlink."""
        self._closing = True
        if self._loop is None:  # never started: only segments to release
            for shared in self._shared.values():
                shared.destroy()
            self._shared.clear()
            return
        if self._supervisor is not None:
            self._supervisor.cancel()
            try:
                await self._supervisor
            except asyncio.CancelledError:
                pass
            self._supervisor = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = self._loop.time() + self.config.shutdown_timeout
        while (
            any(h.inflight for h in self._workers)
            and self._loop.time() < deadline
        ):
            await asyncio.sleep(self.config.drain_poll_interval)
        for handle in self._workers:
            if handle.process.is_alive():
                handle.process.terminate()  # SIGTERM → worker drains
        for handle in self._workers:
            await self._loop.run_in_executor(
                None, handle.process.join, self.config.shutdown_timeout
            )
            if handle.process.is_alive():
                handle.process.kill()
                await self._loop.run_in_executor(
                    None, handle.process.join, 5.0
                )
            handle.state = DEAD
            handle.conn.close()
        for shared in self._shared.values():
            shared.destroy()
        self._shared.clear()

    async def run(self) -> None:
        """Start and serve until cancelled, then shut down."""
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

    # ----- worker management ---------------------------------------------

    def _fork_worker(self, worker_id: int, restarts: int = 0) -> WorkerHandle:
        parent_conn, child_conn = _FORK.Pipe()
        process = _FORK.Process(
            target=_worker_main,
            name=f"repro-serve-worker-{worker_id}",
            args=(
                worker_id,
                child_conn,
                self.databases,
                {
                    name: manifest.to_json()
                    for name, manifest in self._manifests.items()
                },
                self._baselines,
                self._default,
                self.config.worker,
                self.config.warm,
                self.config.trace_dir,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.metrics.count("workers_spawned")
        return WorkerHandle(
            worker_id=worker_id,
            process=process,
            conn=parent_conn,
            restarts=restarts,
        )

    async def _await_ready(self, handle: WorkerHandle) -> None:
        loop = asyncio.get_running_loop()
        ok = await loop.run_in_executor(
            None, handle.conn.poll, self.config.worker_startup_timeout
        )
        if not ok:
            raise RuntimeError(
                f"worker {handle.worker_id} did not report ready within "
                f"{self.config.worker_startup_timeout}s"
            )
        try:
            message = await loop.run_in_executor(None, handle.conn.recv)
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"worker {handle.worker_id} died during startup: {exc}"
            ) from None
        if not (isinstance(message, tuple) and message[0] == "ready"):
            raise RuntimeError(
                f"worker {handle.worker_id} sent {message!r} instead of ready"
            )
        handle.port = int(message[1])
        handle.state = READY

    async def _supervise(self) -> None:
        """Detect dead workers; respawn them against current segments.

        One crashed (or crash-looping) worker must never take the
        supervisor down with it, so each respawn failure is counted and
        retried on the next heartbeat rather than raised.
        """
        while True:
            await asyncio.sleep(self.config.heartbeat_interval)
            for index, handle in enumerate(self._workers):
                if handle.process.is_alive():
                    continue
                if handle.state != DEAD:
                    handle.state = DEAD
                    self.metrics.count("worker_deaths")
                if not self.config.respawn or self._closing:
                    continue
                replacement = None
                try:
                    replacement = self._fork_worker(
                        handle.worker_id, restarts=handle.restarts + 1
                    )
                    await self._await_ready(replacement)
                except (RuntimeError, OSError):
                    self.metrics.count("worker_respawn_failures")
                    # next heartbeat retries: the DEAD handle stays in
                    # the slot (restarts keeps counting the attempts)
                    handle.restarts += 1
                    if replacement is not None:
                        if replacement.process.is_alive():
                            replacement.process.kill()
                        replacement.conn.close()
                    continue
                self.metrics.count("worker_respawns")
                handle.conn.close()
                self._workers[index] = replacement

    def _ready_workers(self) -> List[WorkerHandle]:
        """READY workers whose process is alive.

        A SIGKILLed worker stays READY until the next heartbeat, so
        liveness is checked here too.
        """
        return [
            handle for handle in self._workers
            if handle.state == READY and handle.process.is_alive()
        ]

    def _pick_worker(self) -> Optional[WorkerHandle]:
        ready = self._ready_workers()
        if not ready:
            return None
        handle = ready[self._rr % len(ready)]
        self._rr += 1
        return handle

    async def _next_worker(self) -> Optional[WorkerHandle]:
        """A READY worker, waiting out respawns/drains if none is."""
        deadline = self._loop.time() + self.config.ready_wait_timeout
        while True:
            handle = self._pick_worker()
            if handle is not None or self._loop.time() >= deadline:
                return handle
            await asyncio.sleep(self.config.drain_poll_interval)

    # ----- request path ---------------------------------------------------

    async def _route(
        self, method: str, target: str, body: bytes, span
    ) -> Tuple[int, bytes, Dict[str, str]]:
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                raise _HTTPError(405, "healthz only supports GET")
            return 200, json.dumps(await self._healthz()).encode(), {}
        if path == "/metrics":
            if method != "GET":
                raise _HTTPError(405, "metrics only supports GET")
            return 200, json.dumps(await self._metrics()).encode(), {}
        if path in ("/translate", "/pipeline"):
            if method != "POST":
                raise _HTTPError(405, f"{path} only supports POST")
            return await self._forward(method, path, body, span)
        raise _HTTPError(404, f"no such endpoint: {path}")

    async def _forward(
        self, method: str, path: str, body: bytes, span
    ) -> Tuple[int, bytes, Dict[str, str]]:
        """Route one request to a worker, re-queueing on broken workers.

        Only connection-level failures retry (refused, reset, truncated
        response): those mean the worker never finished the request.  A
        worker's own error statuses (429/504/...) pass through verbatim
        — retrying them would double decode work the worker already
        accounted for.
        """
        headers: Dict[str, str] = {}
        if span.trace_id:
            headers["X-Trace-Id"] = span.trace_id
            if span.context is not None and span.context.span_id:
                headers["X-Parent-Span"] = span.context.span_id
        last_error: Optional[BaseException] = None
        for attempt in range(self.config.max_forward_attempts):
            handle = await self._next_worker()
            if handle is None:
                break
            if attempt:
                self.metrics.count("front_retries")
            handle.inflight += 1
            try:
                status, payload = await self._proxy_once(
                    handle, method, path, body, headers
                )
            except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
                last_error = exc
                if not handle.process.is_alive():
                    handle.state = DEAD
                    self.metrics.count("worker_crash_requeues")
                continue
            else:
                span.set_attribute("worker_id", handle.worker_id)
                return status, payload, {"X-Worker-Id": str(handle.worker_id)}
            finally:
                handle.inflight -= 1
        detail = f": {last_error}" if last_error else ""
        self.metrics.count("front_unrouted")
        return (
            503,
            json.dumps({"error": f"no worker available{detail}"}).encode(),
            {},
        )

    async def _proxy_once(
        self,
        handle: WorkerHandle,
        method: str,
        path: str,
        body: bytes,
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", handle.port
        )
        try:
            lines = [
                f"{method} {path} HTTP/1.1",
                f"Host: 127.0.0.1:{handle.port}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close",
            ]
            lines.extend(f"{name}: {value}" for name, value in headers.items())
            writer.write(
                ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
            )
            await writer.drain()
            status_line = await reader.readline()
            if not status_line:
                raise ConnectionResetError("worker closed before replying")
            status = int(status_line.split()[1])
            response_headers = await read_headers(reader)
            length = int(response_headers.get("content-length", "0") or "0")
            payload = await reader.readexactly(length) if length else b""
            return status, payload
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _worker_call(
        self,
        handle: WorkerHandle,
        path: str,
        payload: Optional[dict] = None,
        timeout: float = 60.0,
    ) -> dict:
        """GET *path* (POST *payload* if given) on one worker; its JSON.

        Raises :class:`RuntimeError` on a non-200 reply; connection
        errors and timeouts propagate.
        """
        method, body = (
            ("GET", b"") if payload is None
            else ("POST", json.dumps(payload).encode("utf-8"))
        )
        status, raw = await asyncio.wait_for(
            self._proxy_once(handle, method, path, body, {}),
            timeout=timeout,
        )
        doc = json.loads(raw.decode("utf-8"))
        if status != 200:
            raise RuntimeError(
                f"worker {handle.worker_id} {path} failed: "
                f"{doc.get('error', status)}"
            )
        return doc

    async def _worker_docs(self, path: str) -> List[dict]:
        """GET *path* from every worker; ``{"error": ...}`` where it fails."""

        async def one(handle: WorkerHandle) -> dict:
            if (
                handle.state not in (READY, DRAINING)
                or not handle.process.is_alive()
            ):
                return {"error": f"worker {handle.worker_id} is {handle.state}"}
            try:
                return await self._worker_call(handle, path, timeout=5.0)
            except (
                OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError, RuntimeError,
            ) as exc:
                return {"error": str(exc)}

        return await asyncio.gather(*(one(handle) for handle in self._workers))

    # ----- telemetry ------------------------------------------------------

    async def _healthz(self) -> dict:
        """Per-worker liveness + queue depth, plus the weights doc."""
        docs = await self._worker_docs("/healthz")
        workers = []
        for handle, doc in zip(self._workers, docs):
            entry = handle.describe()
            if "queue_depth" in doc:
                entry["queue_depth"] = doc["queue_depth"]
            if "error" in doc:
                entry["error"] = doc["error"]
            if "weights" in doc:
                entry["weights"] = doc["weights"]
            workers.append(entry)
        ready = len(self._ready_workers())
        if self._closing:
            status = "draining"
        elif ready == len(self._workers):
            status = "ok"
        elif ready:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "workers": workers,
            "worker_count": len(self._workers),
            "ready_workers": ready,
            "default_model": self._default,
            "databases": len(self.databases),
            "generation": self.generation,
            "weights": shared_segments_report(self._shared),
            "uptime_seconds": self.metrics.uptime,
        }

    async def _metrics(self) -> dict:
        """Front report + per-worker reports + exact-merge aggregates."""
        docs = await self._worker_docs("/metrics")
        per_worker: Dict[str, dict] = {}
        counters: Dict[str, float] = {}
        latency, batches = [], []
        for handle, doc in zip(self._workers, docs):
            per_worker[str(handle.worker_id)] = doc
            for name, value in (doc.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
            if doc.get("latency_ms"):
                latency.append(doc["latency_ms"])
            if doc.get("batch_size"):
                batches.append(doc["batch_size"])
        return {
            "uptime_seconds": self.metrics.uptime,
            "front": self.metrics.report(tracer=self.tracer),
            "workers": per_worker,
            "aggregate": {
                "counters": counters,
                "latency_ms": merge_summaries(latency),
                "batch_size": merge_summaries(batches),
            },
            "weights": shared_segments_report(self._shared),
            "generation": self.generation,
            "pool": {
                "workers": len(self._workers),
                "restarts": sum(h.restarts for h in self._workers),
            },
        }

    # ----- hot swap / invalidation ---------------------------------------

    async def swap_model_async(
        self, name: str, model, in_vocab, out_vocab, default: bool = False
    ) -> dict:
        """Zero-downtime rolling swap of *name* to *model*.

        New weights go into a fresh segment stamped generation+1; each
        worker in turn is drained (taken out of rotation, in-flight
        requests finish), told to re-attach via ``/control/swap`` (which
        re-registers the model and fires its cache-invalidation
        listeners), and put back.  Other workers keep serving, so a
        pool of >= 2 never rejects a request; the old segment is
        destroyed once every worker has moved.
        """
        async with self._swap_lock:
            self.generation += 1
            shared = share_model(model, in_vocab, out_vocab)
            shared.set_generation(self.generation)
            old = self._shared.get(name)
            self._manifests[name] = shared.manifest
            self._shared[name] = shared
            if default:
                self._default = name
            swapped = []
            for handle in list(self._workers):
                if handle.state != READY:
                    continue
                handle.state = DRAINING
                try:
                    while handle.inflight > 0:
                        await asyncio.sleep(self.config.drain_poll_interval)
                    result = await self._worker_call(
                        handle,
                        "/control/swap",
                        {
                            "model": name,
                            "manifest": shared.manifest.to_json(),
                            "default": default,
                        },
                    )
                    swapped.append(
                        {"worker_id": handle.worker_id, **result}
                    )
                finally:
                    if handle.state == DRAINING:
                        handle.state = READY
            if old is not None and old is not shared:
                old.destroy()
            self.metrics.count("hot_swaps")
            return {
                "model": name,
                "generation": self.generation,
                "segment": shared.manifest.segment,
                "workers": swapped,
            }

    async def invalidate_model_async(self, name: str) -> dict:
        """Drop *name*'s cached responses/encodings in every worker."""
        dropped = []
        for handle in self._workers:
            if handle.state not in (READY, DRAINING):
                continue
            result = await self._worker_call(
                handle, "/control/invalidate", {"model": name}
            )
            dropped.append({"worker_id": handle.worker_id, **result})
        return {"model": name, "workers": dropped}

    def swap_model(
        self,
        name: str,
        model,
        in_vocab,
        out_vocab,
        default: bool = False,
        timeout: float = 120.0,
    ) -> dict:
        """Blocking :meth:`swap_model_async` for callers off the loop."""
        future = asyncio.run_coroutine_threadsafe(
            self.swap_model_async(
                name, model, in_vocab, out_vocab, default=default
            ),
            self._loop,
        )
        return future.result(timeout)

    def invalidate_model(self, name: str, timeout: float = 60.0) -> dict:
        """Blocking :meth:`invalidate_model_async`."""
        future = asyncio.run_coroutine_threadsafe(
            self.invalidate_model_async(name), self._loop
        )
        return future.result(timeout)


# ----- worker process -------------------------------------------------------


def _worker_main(
    worker_id: int,
    conn,
    databases: Dict[str, Database],
    manifests: Dict[str, dict],
    baselines: bool,
    default: Optional[str],
    server_config: ServerConfig,
    warm: bool,
    trace_dir: Optional[str],
) -> None:
    """Body of one forked decode worker.

    Attaches every shared segment, rebuilds translators over the shared
    views, and serves a private loopback :class:`InferenceServer` until
    SIGTERM.  Exits via ``os._exit`` so the parent's atexit hooks (and
    its resource-tracker bookkeeping) never run twice.
    """
    from repro.obs.export import JsonlExporter
    from repro.serve.registry import (
        BaselineTranslator,
        ModelRegistry,
        NeuralTranslator,
    )
    from repro.serve.server import InferenceServer

    exporter = None
    try:
        tracer = None
        if trace_dir:
            exporter = JsonlExporter(
                Path(trace_dir) / f"worker-{worker_id}.jsonl"
            )
            tracer = Tracer(exporter=exporter)

        registry = ModelRegistry()
        attachments: Dict[str, SharedModel] = {}
        for name, payload in manifests.items():
            attached = SharedModel.attach(SharedManifest.from_json(payload))
            model, in_vocab, out_vocab = attached.views()
            attachments[name] = attached
            registry.register(
                name,
                NeuralTranslator(
                    model, in_vocab, out_vocab,
                    source=f"shm://{attached.manifest.segment}",
                ),
                default=(name == default),
            )
        if baselines:
            registry.register_baselines()
        if default is not None and default in registry:
            registry.set_default(default)

        def control_swap(payload: dict) -> dict:
            manifest = SharedManifest.from_json(payload["manifest"])
            attached = SharedModel.attach(manifest)
            model, in_vocab, out_vocab = attached.views()
            # register() fires the server's swap listeners, which drop
            # every cached response/encoding derived from the old weights.
            registry.register(
                payload["model"],
                NeuralTranslator(
                    model, in_vocab, out_vocab,
                    source=f"shm://{manifest.segment}",
                ),
                default=bool(payload.get("default", False)),
            )
            stale = attachments.get(payload["model"])
            attachments[payload["model"]] = attached
            if stale is not None:
                stale.close()
            return {
                "model": payload["model"],
                "segment": manifest.segment,
                "generation": attached.generation,
                "precision": manifest.precision,
            }

        def control_invalidate(payload: dict) -> dict:
            name = payload["model"]
            dropped = server.encoder_cache.invalidate_model(name)
            dropped += server.response_cache.invalidate_model(name)
            return {"model": name, "dropped": dropped}

        def health_extra() -> dict:
            return {
                "weights": {
                    name: {
                        "segment": handle.manifest.segment,
                        "bytes": handle.nbytes,
                        "generation": handle.generation,
                        "precision": handle.manifest.precision,
                    }
                    for name, handle in sorted(attachments.items())
                },
            }

        server = InferenceServer(
            registry,
            databases,
            config=dataclasses.replace(
                server_config, host="127.0.0.1", port=0
            ),
            tracer=tracer,
            worker_id=worker_id,
            control_handlers={
                "swap": control_swap,
                "invalidate": control_invalidate,
            },
            health_extra=health_extra,
        )

        if warm:
            registry.warm(databases)

        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            loop.add_signal_handler(signal.SIGINT, stop.set)
        except (NotImplementedError, RuntimeError):
            signal.signal(
                signal.SIGTERM,
                lambda *_: loop.call_soon_threadsafe(stop.set),
            )

        async def serve() -> None:
            _, port = await server.start()
            conn.send(("ready", port))
            await stop.wait()
            await server.shutdown()

        loop.run_until_complete(serve())
        try:
            conn.send(("stopped", worker_id))
        except (BrokenPipeError, OSError):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        if exporter is not None:
            try:
                exporter.close()
            except Exception:  # noqa: BLE001 - exiting anyway
                pass
        # Skip the parent's inherited atexit/multiprocessing teardown:
        # this process owns nothing but its (closed) server socket.
        os._exit(0)
