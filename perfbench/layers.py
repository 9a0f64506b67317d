"""Traced mode: wrap each layer's public functions and record spans.

Wrappers are installed only in a traced run, from this file, around the
program's own functions (``install``); the program is not edited.  A
span is ``[id, parent id, layer, start, end, request key, failed,
extra]``.  The parent is the innermost wrapped call open in the same
context (a ``ContextVar``, so threads and asyncio tasks nest
independently).  The request key is the question of the HTTP request
being served, when there is one; it follows work onto executor threads
because the traced server's default executor copies the caller's
context.  Spans stay in memory and are written out once, at the end.

A layer's *self* time is its span minus the time its child spans
cover (children run inside the parent, on the same thread).
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import itertools
import json
import sys
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

_parent: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_request: contextvars.ContextVar = contextvars.ContextVar("perfbench_request", default=None)

# span fields
SID, PARENT, LAYER, T0, T1, KEY, FAILED, EXTRA = range(8)

#: ``trace.overhead`` above this is flagged in a traced run's report
OVERHEAD_LIMIT = 0.05


class Recorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self):
        self.spans: List[list] = []
        self._ids = itertools.count(1)

    def wrap(self, layer: str, fn: Callable, post=None, pre=None) -> Callable:
        """A sync wrapper recording one span per call of *fn*.

        ``pre(args, kwargs)`` runs before the call; ``post(args, kwargs,
        result, pre_state)`` after a successful one and returns the
        span's ``extra`` dict.
        """
        spans, ids = self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            token = _parent.set(sid)
            state = pre(args, kwargs) if pre is not None else None
            failed = True
            extra = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                if post is not None:
                    extra = post(args, kwargs, result, state)
                return result
            finally:
                end = clock()
                _parent.reset(token)
                spans.append([sid, _parent.get(), layer, start, end,
                              _request.get(), failed, extra])

        return wrapper

    def wrap_async(self, layer: str, fn: Callable, post=None) -> Callable:
        spans, ids = self.spans, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            sid = next(ids)
            token = _parent.set(sid)
            failed = True
            extra = None
            start = clock()
            try:
                result = await fn(*args, **kwargs)
                failed = False
                if post is not None:
                    extra = post(args, kwargs, result, None)
                return result
            finally:
                end = clock()
                _parent.reset(token)
                spans.append([sid, _parent.get(), layer, start, end,
                              _request.get(), failed, extra])

        return wrapper

    def dump(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Time one wrapper adds to a call, measured here (median of repeats).

    ``trace.overhead`` is this cost times the spans a traced pass
    recorded, over the pass's time: a figure that does not depend on how
    fast the machine happened to run the traced pass and the untraced
    one (their throughput ratio is recorded beside it).
    """
    recorder = Recorder()

    def bare(x):
        return x

    wrapped = recorder.wrap("calibration", bare, post=lambda a, k, r, s: {"n": r})
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for i in range(calls):
            bare(i)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for i in range(calls):
            wrapped(i)
        costs.append((time.perf_counter() - start - plain) / calls)
        recorder.spans.clear()
    costs.sort()
    return max(0.0, costs[len(costs) // 2])


def request_key_cost_s(payload: dict, calls: int = 2_000) -> float:
    """Time the traced server spends parsing one request body for its key."""
    body = json.dumps(payload).encode()
    start = time.perf_counter()
    for _ in range(calls):
        json.loads(body)
    return (time.perf_counter() - start) / calls


def load_spans(path: Path) -> List[list]:
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def span_counts(spans: Iterable[list]) -> Dict[str, int]:
    """Spans per layer: the sample count behind each per-layer figure."""
    counts: Dict[str, int] = defaultdict(int)
    for span in spans:
        counts[span[LAYER]] += 1
    return dict(counts)


# ----- what gets wrapped ----------------------------------------------------


def _file_size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _pad(args, kwargs):
    batch = args[1]
    real = float(batch.src_mask.sum() + batch.tgt_mask.sum())
    return {"real": real, "total": float(batch.src_mask.size + batch.tgt_mask.size)}


#: (layer, module, qualified name, pre, post) per wrapped function.  The
#: layers follow the package layout: spider → core → storage for the
#: build, serve → pipeline → neural → eval for requests, neural for
#: training.
SYNC_TARGETS: List[Tuple] = [
    ("spider.unit_gen", "repro.spider.corpus", "generate_corpus_unit", None, None),
    ("core.tree_edits", "repro.core.tree_edits", "generate_candidates", None,
     lambda a, k, r, s: {"n": len(r)}),
    ("core.filter.featurize", "repro.core.filter_model", "extract_features", None, None),
    ("core.filter.score", "repro.core.filter_model", "DeepEyeFilter.score_batch", None,
     lambda a, k, r, s: {"kept": int((r >= 0.5).sum()), "n": int(len(r))}),
    ("core.filter_train", "repro.core.filter_model", "train_filter_from_candidates",
     None, None),
    ("core.nl_edits", "repro.core.nl_edits", "synthesize_nl_variants", None, None),
    ("core.nl_edits", "repro.core.backtranslation", "smooth", None, None),
    ("storage.execute", "repro.storage.executor", "Executor.execute", None, None),
    ("storage.cache", "repro.storage.executor", "ExecutionCache.fetch", None,
     lambda a, k, r, s: {"hit": r is not None}),
    ("storage.shards.write", "repro.storage.shards", "ShardStore.write_shard", None,
     lambda a, k, r, s: {"bytes": _file_size(a[0].shard_path(a[1]))}),
    ("storage.shards.write", "repro.storage.shards", "ShardStore.write_corpus_unit",
     None, lambda a, k, r, s: {"bytes": _file_size(a[0].corpus_path(a[1]))}),
    ("storage.journal.flush", "repro.storage.journal",
     "PersistentExecutionCache.flush",
     lambda a, k: _file_size(a[0].path),
     lambda a, k, r, s: {"bytes": _file_size(a[0].path) - s}),
    ("storage.journal.preload", "repro.storage.journal", "load_journal", None, None),
    ("pipeline.route", "repro.pipeline.route", "Router.route", None,
     lambda a, k, r, s: {"dbs": len(a[2]), "top": r[0].db_name if r else None}),
    ("pipeline.generate", "repro.pipeline.generate", "Generator.generate", None, None),
    ("pipeline.verify", "repro.pipeline.verify", "Verifier.verify", None,
     lambda a, k, r, s: {"status": a[1].status}),
    ("pipeline.execute", "repro.pipeline.execute", "ExecuteStage.execute", None, None),
    ("pipeline.repair", "repro.pipeline.repair", "Repairer.repair", None,
     lambda a, k, r, s: {"ok": r is not None}),
    ("eval.judge", "repro.eval.judge", "judge_chart", None, None),
    ("serve.render", "repro.serve.translate", "render_spec", None, None),
    ("neural.decode", "repro.serve.registry", "NeuralTranslator.translate_requests",
     None,
     lambda a, k, r, s: {"qs": [q for q, _ in a[1]],
                         "tokens": sum(len(x.tokens) for x in r)}),
    ("neural.forward", "repro.neural.model", "Seq2Vis.loss", _pad,
     lambda a, k, r, s: s),
    ("neural.backward", "repro.neural.autograd", "Tensor.backward", None, None),
    ("neural.optim", "repro.neural.optimizer", "Adam.step", None, None),
    ("neural.eval", "repro.neural.trainer", "evaluate_loss", None, None),
]

ASYNC_TARGETS: List[Tuple] = [
    ("serve.batcher", "repro.serve.batcher", "MicroBatcher.submit",
     lambda a, k, r, s: {"q": a[2][0]}),
]

#: modules whose ``from x import f`` bindings must see the wrappers
_IMPORTERS = (
    "repro.core.nvbench", "repro.core.synthesizer", "repro.serve.server",
    "repro.serve", "repro.pipeline", "repro.eval", "repro.eval.judge",
    "repro.neural.trainer", "repro.cli", "repro.baselines.deepeye_baseline",
)


def _replace(module_name: str, qualname: str, make: Callable) -> None:
    module = importlib.import_module(module_name)
    owner = module
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[name]
    wrapped = make(original)
    setattr(owner, name, wrapped)
    if owner is module:
        # rebind copies made by ``from module import name``
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if value is original:
                    namespace[attr] = wrapped


class _ContextExecutor(ThreadPoolExecutor):
    """Thread pool that runs each job in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _install_server_hooks() -> None:
    from repro.serve import server as server_mod

    read_request = server_mod.read_http_request

    @functools.wraps(read_request)
    async def read_and_key(*args, **kwargs):
        request = await read_request(*args, **kwargs)
        question = None
        if request is not None and request[3]:
            try:
                body = json.loads(request[3])
                question = body.get("question") if isinstance(body, dict) else None
            except ValueError:
                question = None
        # awaited in the connection's task, so the key holds for the
        # rest of this request (and for executor jobs it submits)
        _request.set(question)
        return request

    server_mod.read_http_request = read_and_key

    start = server_mod.InferenceServer.start

    @functools.wraps(start)
    async def start_with_context_executor(self):
        asyncio.get_running_loop().set_default_executor(
            _ContextExecutor(thread_name_prefix="asyncio")
        )
        return await start(self)

    server_mod.InferenceServer.start = start_with_context_executor


def install() -> Recorder:
    """Wrap every layer target in this process; return the recorder."""
    for name in _IMPORTERS:
        importlib.import_module(name)
    recorder = Recorder()
    for layer, module, qualname, pre, post in SYNC_TARGETS:
        _replace(module, qualname,
                 lambda fn, layer=layer, pre=pre, post=post:
                 recorder.wrap(layer, fn, post=post, pre=pre))
    for layer, module, qualname, post in ASYNC_TARGETS:
        _replace(module, qualname,
                 lambda fn, layer=layer, post=post:
                 recorder.wrap_async(layer, fn, post=post))
    _install_server_hooks()
    return recorder


# ----- analysis -------------------------------------------------------------


class SpanIndex:
    """Self times and per-layer lookups over one process's spans."""

    def __init__(self, spans: Iterable[list]):
        self.spans = list(spans)
        child_time: Dict[int, float] = defaultdict(float)
        self.children: Dict[int, List[list]] = defaultdict(list)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[span[PARENT]] += span[T1] - span[T0]
                self.children[span[PARENT]].append(span)
        self.self_s = {
            span[SID]: max(0.0, span[T1] - span[T0] - child_time[span[SID]])
            for span in self.spans
        }
        self.by_layer: Dict[str, List[list]] = defaultdict(list)
        for span in self.spans:
            self.by_layer[span[LAYER]].append(span)

    def layer(self, name: str, within: Optional[Tuple[float, float]] = None) -> List[list]:
        spans = self.by_layer.get(name, [])
        if within is None:
            return spans
        low, high = within
        return [s for s in spans if low <= s[T0] < high]

    def busy_s(self, name: str) -> float:
        return sum(self.self_s[s[SID]] for s in self.layer(name))

    def per_call_ms(self, name: str) -> List[float]:
        return [self.self_s[s[SID]] * 1000.0 for s in self.layer(name)]

    def per_request_ms(self, name: str) -> List[float]:
        """Self time summed per request key (spans without a key dropped)."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.layer(name):
            if span[KEY] is not None:
                totals[span[KEY]] += self.self_s[span[SID]]
        return [value * 1000.0 for value in totals.values()]

    def executed(self, span: list) -> bool:
        """An ``Executor.execute`` call that ran the query (no cache hit)."""
        return not any(
            child[LAYER] == "storage.cache" and child[EXTRA] and child[EXTRA]["hit"]
            for child in self.children.get(span[SID], [])
        )

    def cache_hits(self, under: Optional[str] = None) -> Tuple[int, int]:
        """``(hits, lookups)`` of cache fetches, optionally only those made
        inside an ``under`` layer span (directly or via storage.execute)."""
        hits = lookups = 0
        parent_layer = {s[SID]: s for s in self.spans}
        for span in self.layer("storage.cache"):
            if under is not None:
                ancestor = parent_layer.get(span[PARENT])
                while ancestor is not None and ancestor[LAYER] != under:
                    ancestor = parent_layer.get(ancestor[PARENT])
                if ancestor is None:
                    continue
            lookups += 1
            hits += bool(span[EXTRA] and span[EXTRA]["hit"])
        return hits, lookups
