"""Determinism of the parallel, cached, sharded benchmark build.

The build must produce the same pair list no matter how it is executed:
sharded over a process pool or serial, with or without the execution
cache, streamed to disk or held in memory, fresh or resumed after a
kill.  These are the guarantees that make ``workers=N``, ``use_cache``,
``out=``, and ``resume=`` pure performance/robustness knobs.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.core.nvbench import NVBenchConfig, build_nvbench, load_nvbench_dir
from repro.perf import BuildProfiler
from repro.spider.corpus import CorpusConfig, build_spider_corpus


@pytest.fixture(scope="module")
def tiny_corpus():
    return build_spider_corpus(
        CorpusConfig(num_databases=3, pairs_per_database=4, row_scale=0.3, seed=3)
    )


def _config(use_cache: bool = True) -> NVBenchConfig:
    return NVBenchConfig(
        filter_training_pairs=12, use_cache=use_cache, seed=3
    )


def _stream_config(use_cache: bool = True) -> NVBenchConfig:
    return NVBenchConfig(
        corpus=CorpusConfig(
            num_databases=3, pairs_per_database=4, row_scale=0.3, seed=3
        ),
        filter_training_pairs=12, use_cache=use_cache, seed=3,
    )


def _dir_digest(root) -> str:
    """One hash over every shard/corpus/manifest byte (cache excluded —
    the journal is a performance side-channel, not build output)."""
    digest = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file() and "cache" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class TestBuildDeterminism:
    def test_workers4_matches_workers1(self, tiny_corpus):
        serial = build_nvbench(corpus=tiny_corpus, config=_config(), workers=1)
        parallel = build_nvbench(corpus=tiny_corpus, config=_config(), workers=4)
        assert serial.pairs
        assert parallel.pairs == serial.pairs

    def test_cached_matches_uncached(self, tiny_corpus):
        cached = build_nvbench(corpus=tiny_corpus, config=_config(use_cache=True))
        uncached = build_nvbench(
            corpus=tiny_corpus, config=_config(use_cache=False)
        )
        assert cached.pairs
        assert cached.pairs == uncached.pairs

    def test_more_workers_than_databases(self, tiny_corpus):
        # Shard count is capped at the database count; empty shards never
        # reach the pool.
        serial = build_nvbench(corpus=tiny_corpus, config=_config(), workers=1)
        oversubscribed = build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=16
        )
        assert oversubscribed.pairs == serial.pairs

    def test_repeat_builds_identical(self, tiny_corpus):
        first = build_nvbench(corpus=tiny_corpus, config=_config())
        second = build_nvbench(corpus=tiny_corpus, config=_config())
        assert first.pairs == second.pairs


class TestBuildProfile:
    def test_serial_profile_has_stages_and_cache_counters(self, tiny_corpus):
        profiler = BuildProfiler()
        build_nvbench(corpus=tiny_corpus, config=_config(), profiler=profiler)
        report = profiler.report()
        for name in ("filter_train", "synthesize", "featurize", "score"):
            assert name in report["stages"]
            assert report["stages"][name]["calls"] >= 1
            assert report["stages"][name]["seconds"] >= 0.0
        # The filter-training pass primes the cache, so synthesis hits it.
        assert report["counters"]["execution_cache_hits"] > 0
        assert report["counters"]["execution_cache_misses"] > 0

    def test_parallel_profile_merges_worker_reports(self, tiny_corpus):
        profiler = BuildProfiler()
        build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=2, profiler=profiler
        )
        report = profiler.report()
        assert report["stages"]["featurize"]["calls"] >= 1
        assert report["counters"]["candidates_enumerated"] > 0

    def test_profile_json_roundtrip(self, tiny_corpus, tmp_path):
        import json

        profiler = BuildProfiler()
        build_nvbench(corpus=tiny_corpus, config=_config(), profiler=profiler)
        path = tmp_path / "profile.json"
        written = profiler.write_json(str(path))
        assert json.loads(path.read_text()) == written


class _StopBuild(Exception):
    """Injected mid-build to simulate a killed process."""


class TestShardedDeterminismMatrix:
    """Serial == workers=N == interrupted-then-resumed, byte for byte."""

    def test_sharded_matches_in_memory(self, tiny_corpus, tmp_path):
        in_memory = build_nvbench(corpus=tiny_corpus, config=_config())
        sharded = build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "dir")
        )
        assert list(sharded.pairs) == list(in_memory.pairs)

    def test_serial_and_parallel_shards_byte_identical(
        self, tiny_corpus, tmp_path
    ):
        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "serial")
        )
        build_nvbench(
            corpus=tiny_corpus, config=_config(), workers=2,
            out=str(tmp_path / "parallel"),
        )
        assert _dir_digest(tmp_path / "serial") == \
            _dir_digest(tmp_path / "parallel")

    def test_interrupted_then_resumed_is_byte_identical(self, tmp_path):
        build_nvbench(
            config=_stream_config(), stream=True, out=str(tmp_path / "fresh")
        )

        def kill_after_first(unit_index: int, db_name: str) -> None:
            if unit_index >= 1:
                raise _StopBuild(db_name)

        with pytest.raises(_StopBuild):
            build_nvbench(
                config=_stream_config(), stream=True,
                out=str(tmp_path / "killed"), after_shard=kill_after_first,
            )
        # the killed directory is a strict prefix: manifest committed
        # only for completed shards
        partial = load_nvbench_dir(str(tmp_path / "killed"))
        full = load_nvbench_dir(str(tmp_path / "fresh"))
        assert 0 < len(partial.pairs) < len(full.pairs)

        profiler = BuildProfiler()
        build_nvbench(
            config=_stream_config(), stream=True,
            out=str(tmp_path / "killed"), resume=True, profiler=profiler,
        )
        counters = profiler.report()["counters"]
        assert counters["shards_skipped_clean"] >= 1
        assert counters["shards_built"] >= 1
        assert _dir_digest(tmp_path / "killed") == \
            _dir_digest(tmp_path / "fresh")

    def test_streamed_serial_matches_parallel(self, tmp_path):
        build_nvbench(
            config=_stream_config(), stream=True, out=str(tmp_path / "s")
        )
        build_nvbench(
            config=_stream_config(), stream=True, workers=2,
            out=str(tmp_path / "p"),
        )
        assert _dir_digest(tmp_path / "s") == _dir_digest(tmp_path / "p")

    def test_lazy_load_equals_built(self, tiny_corpus, tmp_path):
        built = build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(tmp_path / "dir")
        )
        loaded = load_nvbench_dir(str(tmp_path / "dir"))
        assert list(loaded.pairs) == list(built.pairs)
        assert set(loaded.databases) == set(tiny_corpus.databases)
        assert len(loaded.corpus.pairs) == len(tiny_corpus.pairs)
        # spot-check random access against iteration order
        assert loaded.pairs[0] == list(loaded.pairs)[0]
        assert loaded.pairs[len(loaded.pairs) - 1] == \
            list(loaded.pairs)[-1]


class TestResumeAndCorruption:
    def test_clean_resume_skips_every_shard(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        profiler = BuildProfiler()
        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=out, resume=True,
            profiler=profiler,
        )
        counters = profiler.report()["counters"]
        assert counters["shards_skipped_clean"] == counters["shards_total"]
        assert "shards_built" not in counters

    @pytest.mark.parametrize("stream", [False, True])
    def test_clean_resume_trains_no_filter(self, tiny_corpus, tmp_path, stream):
        source = {} if stream else {"corpus": tiny_corpus}
        config = _stream_config() if stream else _config()
        out = tmp_path / "dir"
        build_nvbench(config=config, out=str(out), stream=stream, **source)
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        profiler = BuildProfiler()
        build_nvbench(
            config=config, out=str(out), stream=stream, resume=True,
            profiler=profiler, **source,
        )
        report = profiler.report()
        assert "shards_built" not in report["counters"]
        # the stage is still reported, but nothing ran inside it
        assert "filter_train" in report["stages"]
        for name in ("filter_candidates", "filter_featurize", "filter_fit"):
            assert name not in report["stages"]
        # journal included: a clean resume leaves every byte as it was
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

        victim = sorted((out / "shards").glob("*.jsonl"))[0]
        victim.write_text("truncated mid-write")
        profiler = BuildProfiler()
        build_nvbench(
            config=config, out=str(out), stream=stream, resume=True,
            profiler=profiler, **source,
        )
        report = profiler.report()
        assert report["counters"]["shards_built"] == 1
        assert "filter_fit" in report["stages"]
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before

    def test_truncated_shard_is_rebuilt_not_merged(self, tiny_corpus, tmp_path):
        out = tmp_path / "dir"
        build_nvbench(corpus=tiny_corpus, config=_config(), out=str(out))
        reference = _dir_digest(out)
        victim = sorted((out / "shards").glob("*.jsonl"))[0]
        lines = victim.read_text().splitlines(keepends=True)
        victim.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])

        profiler = BuildProfiler()
        resumed = build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(out), resume=True,
            profiler=profiler,
        )
        counters = profiler.report()["counters"]
        assert counters["shards_rebuilt_dirty"] == 1
        assert counters["shards_built"] == 1
        assert counters["shards_skipped_clean"] == counters["shards_total"] - 1
        assert _dir_digest(out) == reference
        fresh = build_nvbench(corpus=tiny_corpus, config=_config())
        assert list(resumed.pairs) == list(fresh.pairs)

    def test_garbled_shard_is_rebuilt(self, tiny_corpus, tmp_path):
        out = tmp_path / "dir"
        build_nvbench(corpus=tiny_corpus, config=_config(), out=str(out))
        reference = _dir_digest(out)
        victim = sorted((out / "shards").glob("*.jsonl"))[-1]
        victim.write_text('{"not": "a pair record"}\ngarbage{{{\n')
        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=str(out), resume=True
        )
        assert _dir_digest(out) == reference

    def test_config_change_dirties_every_shard(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        changed = NVBenchConfig(
            filter_training_pairs=12, use_cache=True, seed=4
        )
        profiler = BuildProfiler()
        build_nvbench(
            corpus=tiny_corpus, config=changed, out=out, resume=True,
            profiler=profiler,
        )
        counters = profiler.report()["counters"]
        assert "shards_skipped_clean" not in counters
        assert counters["shards_built"] == counters["shards_total"]


class TestPersistentCache:
    def test_journal_primes_second_build(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        journal = tmp_path / "dir" / "cache" / "journal.jsonl"
        assert journal.is_file() and journal.stat().st_size > 0

        # force a rebuild (no resume) — the journal survives and preloads
        profiler = BuildProfiler()
        rebuilt = build_nvbench(
            corpus=tiny_corpus, config=_config(), out=out, profiler=profiler
        )
        counters = profiler.report()["counters"]
        assert counters["cache_journal_preloaded"] > 0
        assert counters["cache_journal_corrupt"] == 0
        fresh = build_nvbench(corpus=tiny_corpus, config=_config())
        assert list(rebuilt.pairs) == list(fresh.pairs)

    def test_corrupt_journal_lines_are_skipped_and_counted(
        self, tiny_corpus, tmp_path
    ):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        journal = tmp_path / "dir" / "cache" / "journal.jsonl"
        good = journal.read_text().splitlines(keepends=True)
        tampered = good[0].replace('"rows"', '"Rows"', 1)
        journal.write_text(
            "not json at all\n" + tampered + "".join(good[1:]) +
            good[-1][: len(good[-1]) // 2]
        )
        profiler = BuildProfiler()
        rebuilt = build_nvbench(
            corpus=tiny_corpus, config=_config(), out=out, profiler=profiler
        )
        counters = profiler.report()["counters"]
        assert counters["cache_journal_corrupt"] >= 2
        assert counters["cache_journal_preloaded"] > 0
        fresh = build_nvbench(corpus=tiny_corpus, config=_config())
        assert list(rebuilt.pairs) == list(fresh.pairs)

    def test_parallel_build_reuses_journal(self, tiny_corpus, tmp_path):
        out = str(tmp_path / "dir")
        build_nvbench(corpus=tiny_corpus, config=_config(), out=out)
        profiler = BuildProfiler()
        build_nvbench(
            corpus=tiny_corpus, config=_config(), out=out, workers=2,
            profiler=profiler,
        )
        counters = profiler.report()["counters"]
        assert counters["cache_journal_preloaded"] > 0
        # workers were pre-seeded, so they hit instead of re-executing
        assert counters["execution_cache_hits"] > 0
