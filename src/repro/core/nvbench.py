"""The nvBench-style benchmark: container, builder, and statistics.

``build_nvbench`` drives the full paper pipeline: build (or accept) a
Spider-like corpus, train the DeepEye-style filter on a sample of
candidate charts, run the synthesizer over every (NL, SQL) pair, and
assemble the resulting (NL, VIS) pairs with hardness labels.

The build is a **bounded-memory, shard-based driver** (see
``docs/CORPUS.md``): the corpus is processed one database at a time
(a *unit*), serial and process-pool paths share one shard writer, and —
when an output directory is given — each completed shard is written to
disk and committed to a content-addressed manifest before the next unit
starts.  That makes the build *resumable* (a killed build restarts from
the last committed shard), *incremental* (a rebuild skips every shard
whose content key still matches), and *streamable* at paper scale
(153 databases / 25k+ pairs are never materialized at once; the
returned :class:`NVBench` reads pairs lazily from the shards).

The build is also instrumented and cache-aware (``docs/PERFORMANCE.md``):
an :class:`~repro.storage.executor.ExecutionCache` deduplicates query
executions across candidates and across the filter-training pass (and
persists across builds through the
:class:`~repro.storage.journal.PersistentExecutionCache` journal), a
:class:`~repro.perf.BuildProfiler` collects per-stage wall times and
shard/resume counters, and ``workers=N`` fans units out over a process
pool.  Serial and parallel builds produce identical pair lists and
byte-identical shards: every input pair draws from its own derived RNG,
so the sampling stream does not depend on sharding.
"""

from __future__ import annotations

import json
from collections import Counter, OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.filter_model import DeepEyeFilter, train_filter_from_candidates
from repro.core.synthesizer import NL2VISSynthesizer, SynthesizedPair
from repro.core.tree_edits import TreeEditConfig, generate_candidates
from repro.grammar.ast_nodes import VisQuery
from repro.obs.trace import Tracer, traced
from repro.perf.profiler import BuildProfiler, stage
from repro.spider.corpus import (
    CorpusConfig,
    NLSQLPair,
    PAPER_SCALE_CORPUS,
    SpiderCorpus,
    build_spider_corpus,
    domain_schedule,
    generate_corpus_unit,
)
from repro.storage.executor import ExecutionCache
from repro.storage.journal import PersistentExecutionCache
from repro.storage.shards import (
    BuildManifest,
    LazyCorpusUnits,
    LazyDatabases,
    LazyInputPairs,
    ManifestEntry,
    ShardError,
    ShardStore,
    ShardedPairs,
    content_hash,
    database_payload,
    pair_from_record,
    pair_record,
)
from repro.storage.schema import Database

#: Salt separating the streamed build's per-pair RNG stream from the
#: corpus-mode ``(seed, global index)`` stream.
_STREAM_PAIR_SALT = 7753


@dataclass
class NVBenchConfig:
    """End-to-end build configuration."""

    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    tree_edits: TreeEditConfig = field(default_factory=TreeEditConfig)
    #: VIS trees kept per input SQL query after filtering
    max_vis_per_query: int = 2
    #: how many input pairs to featurize when training the filter
    filter_training_pairs: int = 150
    #: train the classifier stage (False = rules + teacher only)
    train_filter: bool = True
    #: memoize query executions across candidates and build passes
    use_cache: bool = True
    seed: int = 11


def paper_scale_config(**overrides) -> NVBenchConfig:
    """The paper-shape build: 153 DBs, ≥ 25k (NL, VIS) pairs.

    Meant for the streamed engine (``build_nvbench(stream=True,
    out=...)``) — the corpus is generated one database at a time and
    never held in memory whole.
    """
    corpus = replace(PAPER_SCALE_CORPUS)
    return NVBenchConfig(corpus=corpus, **overrides)


@dataclass(frozen=True)
class NVBenchPair(SynthesizedPair):
    """Alias of :class:`SynthesizedPair` under its benchmark name."""


@dataclass
class NVBench:
    """The synthesized benchmark: databases plus (NL, VIS) pairs.

    ``pairs`` is a ``Sequence`` — either a plain in-memory list (the
    classic build) or a lazy, shard-backed view
    (:class:`~repro.storage.shards.ShardedPairs`) when the benchmark
    was built to or loaded from a shard directory.  All statistics
    iterate the sequence, so they work identically either way.
    """

    corpus: SpiderCorpus
    pairs: Sequence[SynthesizedPair] = field(default_factory=list)

    @property
    def databases(self) -> Dict[str, Database]:
        """Name → database map of the underlying corpus."""
        return self.corpus.databases

    def database_of(self, pair: SynthesizedPair) -> Database:
        """The database a pair was synthesized over."""
        return self.corpus.databases[pair.db_name]

    @property
    def distinct_vis(self) -> List[Tuple[str, VisQuery]]:
        """Distinct (db, vis-tree) pairs — the paper's "#-vis"."""
        seen = dict.fromkeys((pair.db_name, pair.vis) for pair in self.pairs)
        return list(seen)

    def vis_type_counts(self) -> Counter:
        """Distinct-vis counts per chart type (Table 3's #-vis)."""
        return Counter(db_vis[1].vis_type for db_vis in self.distinct_vis)

    def pair_type_counts(self) -> Counter:
        """(NL, VIS) pair counts per chart type."""
        return Counter(pair.vis_type for pair in self.pairs)

    def hardness_counts(self) -> Counter:
        """Pair counts per hardness tier."""
        return Counter(pair.hardness.value for pair in self.pairs)

    def type_hardness_matrix(self) -> Dict[Tuple[str, str], int]:
        """Counts of distinct vis per (vis type, hardness) — Figure 10."""
        from repro.core.hardness import classify_hardness

        matrix: Counter = Counter()
        for _, vis in self.distinct_vis:
            matrix[(vis.vis_type, classify_hardness(vis).value)] += 1
        return dict(matrix)

    @property
    def manual_edit_pairs(self) -> List[SynthesizedPair]:
        """Pairs whose NL needed the manual deletion revision."""
        return [pair for pair in self.pairs if pair.manually_edited]


# ----- build units ---------------------------------------------------------


@dataclass
class BuildUnit:
    """One database's worth of build work — the unit of sharding.

    Corpus mode carries the materialized database and its indexed input
    pairs; streamed mode carries only ``(gen_config, db_index)`` and the
    worker regenerates the database from the per-DB derived RNG.
    """

    db_index: int
    db_name: str
    database: Optional[Database] = None
    items: Optional[List[Tuple[int, NLSQLPair]]] = None
    gen_config: Optional[CorpusConfig] = None


def _materialize_unit(unit: BuildUnit):
    """``(database, indexed items, rng_factory)`` for one unit."""
    if unit.gen_config is not None:
        database, pairs = generate_corpus_unit(unit.gen_config, unit.db_index)
        items = list(enumerate(pairs))
        seed = unit.gen_config.seed
        db_index = unit.db_index

        def rng_factory(index: int) -> np.random.Generator:
            return np.random.default_rng(
                (seed, _STREAM_PAIR_SALT, db_index, index)
            )

        return database, items, rng_factory
    return unit.database, unit.items or [], None


# ----- content addressing --------------------------------------------------


def _config_fingerprint(config: NVBenchConfig, mode: str) -> str:
    """Hash over every config knob that can change shard bytes.

    ``use_cache`` is deliberately excluded — it is a pure performance
    knob (cached and uncached builds are asserted identical).
    """
    from repro.storage.shards import FORMAT_VERSION

    return content_hash(
        {
            "format": FORMAT_VERSION,
            "mode": mode,
            "corpus": asdict(config.corpus),
            "tree_edits": asdict(config.tree_edits),
            "max_vis_per_query": config.max_vis_per_query,
            "filter_training_pairs": config.filter_training_pairs,
            "train_filter": config.train_filter,
            "seed": config.seed,
        }
    )


def _filter_sample_indexes(corpus: SpiderCorpus, config: NVBenchConfig) -> List[int]:
    """The deterministic corpus sample the chart filter trains on."""
    if not config.train_filter:
        return []
    rng = np.random.default_rng(config.seed)
    sample_size = min(config.filter_training_pairs, len(corpus.pairs))
    if sample_size == 0:
        return []
    return [int(i) for i in rng.choice(len(corpus.pairs), size=sample_size, replace=False)]


def _unit_key(
    unit: BuildUnit,
    config_fp: str,
    filter_fp: str,
    db_hash: Optional[str],
) -> str:
    """The content key a shard is addressed by in the manifest.

    Streamed units are fully determined by (config, db_index) — their
    key needs no data hash, so a resumed build can skip clean shards
    without regenerating anything.  Corpus units hash the actual
    database payload plus the indexed (NL, SQL) items (global indexes
    included: the per-pair RNG derives from them).
    """
    payload: dict = {
        "config": config_fp,
        "filter": filter_fp,
        "db_index": unit.db_index,
        "db_name": unit.db_name,
    }
    if unit.gen_config is None:
        payload["db"] = db_hash
        payload["items"] = [
            (index, pair.nl, pair.sql) for index, pair in (unit.items or [])
        ]
    return content_hash(payload)


# ----- the driver ----------------------------------------------------------


def build_nvbench(
    corpus: Optional[SpiderCorpus] = None,
    config: Optional[NVBenchConfig] = None,
    workers: int = 1,
    profiler: Optional[BuildProfiler] = None,
    tracer: Optional[Tracer] = None,
    out: Optional[str] = None,
    resume: bool = False,
    stream: bool = False,
    cache: Optional[ExecutionCache] = None,
    max_databases: Optional[int] = None,
    after_shard: Optional[Callable[[int, str], None]] = None,
) -> NVBench:
    """Run the full nl2sql-to-nl2vis pipeline and return the benchmark.

    Parameters beyond the classic ones:

    out:
        Directory to stream shards into (``docs/CORPUS.md``).  Each
        database's (NL, VIS) pairs are written as one JSONL shard the
        moment the unit completes, the manifest is committed after every
        shard, and the returned :class:`NVBench` reads pairs lazily —
        the full pair list is never materialized in this process.
    resume:
        With ``out``: trust the existing manifest, re-verify every
        committed shard's content key and file hashes, and rebuild only
        dirty or missing shards.  A killed build resumes from the last
        committed shard and yields byte-identical output.
    stream:
        Generate the corpus one database at a time from
        ``config.corpus`` (independent per-DB RNG streams) instead of
        requiring/areadying a whole :class:`SpiderCorpus`.  This is the
        paper-scale path.
    cache:
        Explicit :class:`ExecutionCache` (e.g. a
        :class:`PersistentExecutionCache`).  Default: a fresh in-memory
        cache, or — with ``out`` — a persistent journal-backed cache at
        ``<out>/cache/journal.jsonl`` shared across builds.
    max_databases:
        Cap on streamed databases (CI smoke jobs build a prefix of the
        paper-scale plan).
    after_shard:
        Callback ``(unit_index, db_name)`` invoked after each shard is
        committed — fault-injection hook for the resumability tests.

    ``workers > 1`` fans units over a process pool and merges results in
    unit order; the output is bit-identical to the serial build.
    """
    config = config or NVBenchConfig()
    if stream and corpus is not None:
        raise ValueError("stream=True generates its own corpus; don't pass one")
    if resume and out is None:
        raise ValueError("resume=True requires an output directory (out=...)")
    mode = "streamed" if stream else "corpus"
    store = ShardStore(out) if out is not None else None

    with traced(
        tracer, "build_nvbench",
        workers=workers, use_cache=config.use_cache, seed=config.seed,
        mode=mode, out=str(out) if out else "",
    ) as build_span:
        if corpus is None and not stream:
            with stage(profiler, "corpus_build"), traced(tracer, "corpus_build"):
                corpus = build_spider_corpus(config.corpus)

        cache = cache if cache is not None else _default_cache(config, store)
        if isinstance(cache, PersistentExecutionCache) and profiler is not None:
            profiler.count("cache_journal_preloaded", cache.preloaded)
            profiler.count("cache_journal_corrupt", cache.corrupt_entries)

        units = _plan_units(corpus, config, stream, max_databases)
        config_fp = _config_fingerprint(config, mode)
        # The filter fingerprint hashes the filter's inputs, never the
        # trained filter, so shards can be checked before it is trained.
        if stream:
            filter_fp = content_hash({"streamed": True, "config": config_fp})
        else:
            filter_fp = _corpus_filter_fingerprint(corpus, config, config_fp)

        manifest = BuildManifest(
            mode=mode, config_fingerprint=config_fp, filter_fingerprint=filter_fp
        )
        previous = store.load_manifest() if (store and resume) else None
        if previous is not None and not manifest.compatible_with(previous):
            previous = None

        db_hashes: Dict[str, str] = {}
        keys: Dict[str, str] = {}
        for unit in units:
            db_hash = None
            if unit.gen_config is None:
                db_hash = db_hashes.setdefault(
                    unit.db_name, content_hash(database_payload(unit.database))
                )
            keys[unit.db_name] = _unit_key(unit, config_fp, filter_fp, db_hash)
        if profiler is not None:
            profiler.count("shards_total", len(units))
        pending, clean_pairs, clean_inputs = _skip_clean_units(
            units, keys, manifest, previous, store, profiler
        )

        with stage(profiler, "filter_train"), traced(tracer, "filter_train"):
            # A resume that finds every shard clean builds nothing, so it
            # needs no filter: the stage stays, empty.
            chart_filter = None
            if pending and stream:
                chart_filter = _make_filter_streamed(
                    config, cache=cache, profiler=profiler,
                    max_databases=max_databases,
                )
            elif pending:
                chart_filter = _make_filter(
                    corpus, config, cache=cache, profiler=profiler
                )

        with stage(profiler, "synthesize"), traced(
            tracer, "synthesize", databases=len(units)
        ) as synth_span:
            collected, total_pairs, total_inputs = _run_units(
                pending, keys, manifest, store, chart_filter, config,
                workers, cache, profiler, tracer, after_shard,
                keep_pairs=store is None,
            )
            total_pairs += clean_pairs
            total_inputs += clean_inputs
            synth_span.set_attribute("input_pairs", total_inputs)
            synth_span.set_attribute("output_pairs", total_pairs)

        if store is not None:
            # Final manifest in canonical unit order (intermediate saves
            # commit in completion order for crash safety).
            ordered = OrderedDict(
                sorted(manifest.entries.items(), key=lambda kv: kv[1].db_index)
            )
            manifest.entries = ordered
            store.save_manifest(manifest)

        if cache is not None:
            if isinstance(cache, PersistentExecutionCache):
                cache.flush()
            if profiler is not None:
                profiler.count("execution_cache_hits", cache.hits)
                profiler.count("execution_cache_misses", cache.misses)
            hits, misses = cache.counts()
            build_span.set_attributes(
                {"execution_cache_hits": hits, "execution_cache_misses": misses}
            )

        bench = _assemble(corpus, store, manifest, collected, stream)
        build_span.set_attribute("pairs", total_pairs)
    return bench


def _default_cache(
    config: NVBenchConfig, store: Optional[ShardStore]
) -> Optional[ExecutionCache]:
    if not config.use_cache:
        return None
    if store is not None:
        return PersistentExecutionCache(store.journal_path)
    return ExecutionCache()


def _plan_units(
    corpus: Optional[SpiderCorpus],
    config: NVBenchConfig,
    stream: bool,
    max_databases: Optional[int],
) -> List[BuildUnit]:
    """The ordered per-database work plan."""
    if stream:
        schedule = domain_schedule(config.corpus)
        if max_databases is not None:
            schedule = schedule[:max_databases]
        return [
            BuildUnit(db_index=i, db_name=name, gen_config=config.corpus)
            for i, (_, name) in enumerate(schedule)
        ]
    by_db: Dict[str, List[Tuple[int, NLSQLPair]]] = {
        name: [] for name in corpus.databases
    }
    for index, pair in enumerate(corpus.pairs):
        by_db.setdefault(pair.db_name, []).append((index, pair))
    return [
        BuildUnit(
            db_index=i,
            db_name=name,
            database=corpus.databases.get(name),
            items=items,
        )
        for i, (name, items) in enumerate(by_db.items())
    ]


def _skip_clean_units(
    units: List[BuildUnit],
    keys: Dict[str, str],
    manifest: BuildManifest,
    previous: Optional[BuildManifest],
    store: Optional[ShardStore],
    profiler: Optional[BuildProfiler],
) -> Tuple[List[BuildUnit], int, int]:
    """Carry every clean shard of *previous* into *manifest*.

    Returns ``(units still to build, pairs in clean shards, input pairs
    in clean shards)``.
    """
    pending: List[BuildUnit] = []
    clean_pairs = clean_inputs = 0
    for unit in units:
        if previous is not None:
            prior = previous.entries.get(unit.db_name)
            if prior is not None and store.entry_is_clean(prior, keys[unit.db_name]):
                clean_pairs += prior.pairs
                clean_inputs += prior.input_pairs
                if profiler is not None:
                    profiler.count("shards_skipped_clean")
                manifest.entries[unit.db_name] = prior
                store.save_manifest(manifest)
                continue
            if prior is not None and profiler is not None:
                profiler.count("shards_rebuilt_dirty")
        pending.append(unit)
    return pending, clean_pairs, clean_inputs


def _run_units(
    pending: List[BuildUnit],
    keys: Dict[str, str],
    manifest: BuildManifest,
    store: Optional[ShardStore],
    chart_filter: Optional[DeepEyeFilter],
    config: NVBenchConfig,
    workers: int,
    cache: Optional[ExecutionCache],
    profiler: Optional[BuildProfiler],
    tracer: Optional[Tracer],
    after_shard: Optional[Callable[[int, str], None]],
    keep_pairs: bool,
) -> Tuple[List[Tuple[tuple, SynthesizedPair]], int, int]:
    """Build every pending unit and commit its shard.

    Returns ``(collected pairs, total output pairs, total input pairs)``
    — ``collected`` is empty unless *keep_pairs* (the classic in-memory
    build); sharded builds stream each unit's pairs to disk and drop
    them, which is the bounded-memory guarantee ``BENCH_build.json``
    records as ``resident_pairs_peak``.
    """
    collected: List[Tuple[tuple, SynthesizedPair]] = []
    total_pairs = 0
    total_inputs = 0

    def commit(entry: ManifestEntry, unit: BuildUnit) -> None:
        manifest.entries[entry.name] = entry
        store.save_manifest(manifest)
        if isinstance(cache, PersistentExecutionCache):
            cache.flush()
        if after_shard is not None:
            after_shard(unit.db_index, unit.db_name)

    if workers <= 1 or len(pending) <= 1:
        for unit in pending:
            entry, indexed, n_inputs = _process_unit(
                unit, keys[unit.db_name], chart_filter, config,
                cache=cache, profiler=profiler, tracer=tracer, store=store,
                keep_pairs=keep_pairs,
            )
            total_inputs += n_inputs
            if profiler is not None:
                profiler.count("shards_built")
            if store is not None:
                total_pairs += entry.pairs
                if profiler is not None:
                    profiler.count_max("resident_pairs_peak", entry.pairs)
                commit(entry, unit)
            else:
                total_pairs += len(indexed)
                collected.extend(indexed)
                if profiler is not None:
                    profiler.count_max("resident_pairs_peak", total_pairs)
    else:
        total_pairs, total_inputs = _run_units_pooled(
            pending, keys, chart_filter, config, workers, cache, profiler,
            tracer, store, keep_pairs, collected, commit,
            total_pairs, total_inputs,
        )
    return collected, total_pairs, total_inputs


def _run_units_pooled(
    pending, keys, chart_filter, config, workers, cache, profiler, tracer,
    store, keep_pairs, collected, commit, total_pairs, total_inputs,
):
    """Fan pending units over a process pool; merge in unit order.

    Each worker gets its own execution cache — pre-seeded with the
    coordinator cache's entries for its database, so a persistent
    journal still pays off across processes — plus its own profiler and
    (when tracing) a buffering tracer parented to the ``synthesize``
    span; the coordinator absorbs everything in submission order, so
    profiles, spans, and pair lists are deterministic regardless of
    worker scheduling.
    """
    context = tracer.current_context() if tracer is not None else None
    trace_context = context.to_dict() if context is not None else None
    tasks = []
    for unit in pending:
        seed_entries = []
        if cache is not None:
            if isinstance(cache, PersistentExecutionCache):
                seed_entries = cache.entries_for_db(unit.db_name)
            use_cache = True
        else:
            use_cache = False
        tasks.append((
            unit, keys[unit.db_name], chart_filter, config, use_cache,
            seed_entries, trace_context,
            str(store.root) if store is not None else None, keep_pairs,
        ))
    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        # pool.map preserves task order, so profile/span/pair merging is
        # deterministic regardless of worker scheduling.
        for (entry, indexed, n_inputs, report, spans, new_entries), task in zip(
            pool.map(_unit_task, tasks), tasks
        ):
            unit = task[0]
            total_inputs += n_inputs
            if profiler is not None:
                profiler.merge_report(report)
                profiler.count("shards_built")
            if tracer is not None:
                tracer.absorb(spans)
            if isinstance(cache, PersistentExecutionCache) and new_entries:
                cache.absorb_entries(new_entries)
            if store is not None:
                total_pairs += entry.pairs
                if profiler is not None:
                    profiler.count_max("resident_pairs_peak", entry.pairs)
                commit(entry, unit)
            else:
                total_pairs += len(indexed)
                collected.extend(indexed)
                if profiler is not None:
                    profiler.count_max("resident_pairs_peak", total_pairs)
    return total_pairs, total_inputs


def _unit_task(args: tuple):
    """Process-pool worker: build one unit with its own instruments."""
    (unit, key, chart_filter, config, use_cache, seed_entries,
     trace_context, store_root, keep_pairs) = args
    cache = ExecutionCache() if use_cache else None
    if cache is not None and seed_entries:
        for entry_key, entry in seed_entries:
            cache._entries[entry_key] = entry
    seeded = set(cache._entries) if cache is not None else set()
    profiler = BuildProfiler()
    tracer = Tracer() if trace_context is not None else None
    store = ShardStore(store_root) if store_root is not None else None
    entry, indexed, n_inputs = _process_unit(
        unit, key, chart_filter, config,
        cache=cache, profiler=profiler, tracer=tracer, store=store,
        keep_pairs=keep_pairs, parent_context=trace_context,
    )
    if cache is not None:
        profiler.count("execution_cache_hits", cache.hits)
        profiler.count("execution_cache_misses", cache.misses)
    new_entries = (
        [(k, v) for k, v in cache._entries.items() if k not in seeded]
        if cache is not None
        else []
    )
    spans = tracer.finished() if tracer is not None else []
    return entry, indexed, n_inputs, profiler.report(), spans, new_entries


def _process_unit(
    unit: BuildUnit,
    key: str,
    chart_filter: DeepEyeFilter,
    config: NVBenchConfig,
    cache: Optional[ExecutionCache],
    profiler: Optional[BuildProfiler],
    tracer: Optional[Tracer],
    store: Optional[ShardStore],
    keep_pairs: bool,
    parent_context: Optional[dict] = None,
) -> Tuple[Optional[ManifestEntry], List[Tuple[tuple, SynthesizedPair]], int]:
    """Synthesize one database and (optionally) write its shard.

    This is the **one shard writer** both the serial and the
    process-pool paths run: materialize the unit, synthesize its pairs
    in input order, then atomically write the shard and corpus files.
    Returns ``(manifest entry | None, kept pairs, input-pair count)``.
    """
    database, items, rng_factory = _materialize_unit(unit)
    with traced(
        tracer, "shard", parent=parent_context,
        shard=unit.db_index, db=unit.db_name, input_pairs=len(items),
    ) as shard_span:
        indexed = _synthesize_items(
            {unit.db_name: database} if database is not None else {},
            items, chart_filter, config,
            cache=cache, profiler=profiler, tracer=tracer,
            rng_factory=rng_factory,
        )
        shard_span.set_attribute("pairs_out", len(indexed))

    entry = None
    if store is not None:
        records = [pair_record(pair, index) for index, pair in indexed]
        shard_sha = store.write_shard(unit.db_name, records)
        corpus_sha = store.write_corpus_unit(
            unit.db_name, database, [(pair.nl, pair.sql) for _, pair in items]
        )
        entry = ManifestEntry(
            name=unit.db_name,
            key=key,
            db_index=unit.db_index,
            shard_sha256=shard_sha,
            corpus_sha256=corpus_sha,
            pairs=len(indexed),
            input_pairs=len(items),
        )
        if not keep_pairs:
            indexed = []
    return entry, indexed, len(items)


def _assemble(
    corpus: Optional[SpiderCorpus],
    store: Optional[ShardStore],
    manifest: BuildManifest,
    collected: List[Tuple[tuple, SynthesizedPair]],
    stream: bool,
) -> NVBench:
    """The returned benchmark: in-memory or lazily shard-backed."""
    if store is not None:
        if stream or corpus is None:
            return load_nvbench_dir(str(store.root))
        bench = NVBench(corpus=corpus)
        bench.pairs = ShardedPairs(store, manifest)
        return bench
    if corpus is None:
        # stream=True without an output directory: reconstruct a corpus
        # container from whatever the units generated is not possible
        # bounded-memory; callers wanting the corpus should pass out=.
        corpus = SpiderCorpus()
    bench = NVBench(corpus=corpus)
    bench.pairs = [item for _, item in sorted(collected, key=lambda e: e[0])]
    return bench


def _synthesize_items(
    databases: Dict[str, Database],
    items: List[Tuple[int, NLSQLPair]],
    chart_filter: DeepEyeFilter,
    config: NVBenchConfig,
    cache: Optional[ExecutionCache],
    profiler: Optional[BuildProfiler],
    tracer: Optional[Tracer] = None,
    rng_factory: Optional[Callable[[int], np.random.Generator]] = None,
) -> List[Tuple[tuple, SynthesizedPair]]:
    """Synthesize (sort key, pair) items; order-preserving.

    The default RNG derivation is the corpus-mode contract — every input
    pair draws from ``default_rng((seed, global index))`` — so the
    sampling stream is independent of sharding; streamed units override
    it with their per-DB-local derivation.
    """
    if rng_factory is None:
        seed = config.seed

        def rng_factory(index: int) -> np.random.Generator:
            return np.random.default_rng((seed, index))

    synthesizer = NL2VISSynthesizer(
        chart_filter=chart_filter,
        tree_config=config.tree_edits,
        max_vis_per_query=config.max_vis_per_query,
        seed=config.seed,
        cache=cache,
        profiler=profiler,
        tracer=tracer,
    )
    out: List[Tuple[tuple, SynthesizedPair]] = []
    for index, pair in items:
        database = databases[pair.db_name]
        rng = rng_factory(index)
        with traced(tracer, "pair", index=index, db=pair.db_name) as pair_span:
            synthesized = synthesizer.synthesize(
                pair.nl, pair.query, database, rng=rng
            )
            pair_span.set_attribute("pairs_out", len(synthesized))
        for item in synthesized:
            out.append(
                (index, replace(item, source_nl=pair.nl, source_sql=pair.sql))
            )
    return out


def _make_filter(
    corpus: SpiderCorpus,
    config: NVBenchConfig,
    cache: Optional[ExecutionCache] = None,
    profiler: Optional[BuildProfiler] = None,
) -> DeepEyeFilter:
    indexes = _filter_sample_indexes(corpus, config)
    if not indexes:
        return DeepEyeFilter()
    charts = []
    with stage(profiler, "filter_candidates"):
        for index in indexes:
            pair = corpus.pairs[int(index)]
            database = corpus.databases[pair.db_name]
            for candidate in generate_candidates(pair.query, database, config.tree_edits):
                charts.append((candidate.vis, database))
    return train_filter_from_candidates(
        charts, seed=config.seed, cache=cache, profiler=profiler
    )


def _corpus_filter_fingerprint(
    corpus: SpiderCorpus, config: NVBenchConfig, config_fp: str
) -> str:
    """Hash the filter's actual training inputs.

    A shard is only clean if the shared chart filter is provably the
    same, and the filter depends on the sampled pairs *and their
    databases' data* — so editing a database inside the training sample
    dirties every shard, while editing one outside it dirties only its
    own.
    """
    indexes = _filter_sample_indexes(corpus, config)
    sample = [
        (corpus.pairs[i].db_name, corpus.pairs[i].nl, corpus.pairs[i].sql)
        for i in indexes
    ]
    db_names = sorted({corpus.pairs[i].db_name for i in indexes})
    db_hashes = {
        name: content_hash(database_payload(corpus.databases[name]))
        for name in db_names
    }
    return content_hash(
        {
            "config": config_fp,
            "n_pairs": len(corpus.pairs),
            "sample": sample,
            "databases": db_hashes,
        }
    )


def _make_filter_streamed(
    config: NVBenchConfig,
    cache: Optional[ExecutionCache],
    profiler: Optional[BuildProfiler],
    max_databases: Optional[int] = None,
) -> DeepEyeFilter:
    """Train the filter from the stream's first N input pairs.

    Streamed builds have no corpus to sample from, so the training set
    is the first ``filter_training_pairs`` (NL, SQL) pairs in database
    order — fully determined by the corpus config, which is exactly
    what the filter fingerprint hashes.  The few databases touched here
    are regenerated later by their own units; generation is cheap next
    to synthesis, and the execution cache (persistent across the build)
    already holds their results by then.
    """
    if not config.train_filter or config.filter_training_pairs == 0:
        return DeepEyeFilter()
    charts = []
    taken = 0
    limit = config.corpus.num_databases
    if max_databases is not None:
        limit = min(limit, max_databases)
    with stage(profiler, "filter_candidates"):
        for db_index in range(limit):
            database, pairs = generate_corpus_unit(config.corpus, db_index)
            for pair in pairs:
                for candidate in generate_candidates(
                    pair.query, database, config.tree_edits
                ):
                    charts.append((candidate.vis, database))
                taken += 1
                if taken >= config.filter_training_pairs:
                    break
            if taken >= config.filter_training_pairs:
                break
    if not charts:
        return DeepEyeFilter()
    return train_filter_from_candidates(
        charts, seed=config.seed, cache=cache, profiler=profiler
    )


# ----- directory (shard) load ----------------------------------------------


def load_nvbench_dir(path: str, lru_size: int = 4) -> NVBench:
    """Open a sharded benchmark directory **lazily**.

    Lengths come from the manifest; shards and per-DB corpus units load
    on access through small LRUs, so stats, eval, and training can
    consume a paper-scale benchmark without ever materializing it —
    the round-trip counterpart of ``build_nvbench(out=...)`` and the
    CLI's ``--benchmark DIR``.
    """
    store = ShardStore(path)
    manifest = store.load_manifest()
    if manifest is None:
        raise ShardError(f"no readable manifest under {path!r}")
    units = LazyCorpusUnits(store, manifest, capacity=lru_size)
    corpus = SpiderCorpus()
    corpus.databases = LazyDatabases(units)
    corpus.pairs = LazyInputPairs(units)
    bench = NVBench(corpus=corpus)
    bench.pairs = ShardedPairs(store, manifest, lru_size=lru_size)
    return bench


# ----- JSON (de)serialization ---------------------------------------------


def save_nvbench_pairs(bench: NVBench, path: str) -> None:
    """Write the (NL, VIS) pairs (not the databases) to JSON; VIS trees
    are stored in their canonical token form."""
    payload = []
    for pair in bench.pairs:
        record = pair_record(pair, 0)
        del record["index"]
        payload.append(record)
    Path(path).write_text(json.dumps(payload))


def load_nvbench_pairs(corpus: SpiderCorpus, path: str) -> NVBench:
    """Load pairs saved by :func:`save_nvbench_pairs` over *corpus*."""
    payload = json.loads(Path(path).read_text())
    bench = NVBench(corpus=corpus)
    bench.pairs = [pair_from_record(item) for item in payload]
    return bench
