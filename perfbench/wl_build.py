"""The ``build`` workload: harness side (``run``) and child process.

One iteration is a streamed paper-scale build of a fixed prefix of the
153-database plan into a fresh directory (*cold*), then the same build
into that directory again without ``resume`` (*warm*: every shard is
rebuilt, executions come from the journal).  The harness runs one child
process per untraced iteration until the time is up; in traced mode one
more child runs traced iterations for the second half.  A child replies
with per-build timings, shard digests and its peak RSS, and a traced one
with its span dump.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import common
from speed import SpeedTrack

#: databases of the paper-scale plan the workload builds
PREFIX = 24


def timed_build(config, out: Path, track: SpeedTrack) -> dict:
    """One build into *out*; a speed mark after every shard commit."""
    from repro.core.nvbench import build_nvbench

    commits = []
    clock = time.perf_counter

    def after_shard(index, name):
        committed = clock()
        track.mark()
        commits.append((committed, clock()))

    track.mark()
    start = clock()
    bench = build_nvbench(
        config=config, out=str(out), stream=True, workers=1,
        max_databases=PREFIX, after_shard=after_shard,
    )
    end = clock()
    return {
        "start": start,
        "end": end,
        "commits": commits,
        "pairs": len(bench.pairs),
        "digest": common.tree_digest(out, ["shards", "corpus"]),
    }


def build_loop(seed: int, seconds: float, work: Path, track: SpeedTrack) -> list:
    """Cold + warm build pairs until *seconds* have passed (at least one)."""
    from repro.core.nvbench import paper_scale_config

    config = paper_scale_config(seed=seed)
    iterations = []
    start = time.perf_counter()
    # stop before an iteration that would end past the deadline
    while not iterations or (
        time.perf_counter() + (time.perf_counter() - start) / len(iterations)
        <= start + seconds
    ):
        out = work / f"build-{len(iterations)}"
        cold = timed_build(config, out, track)
        warm = timed_build(config, out, track)
        shutil.rmtree(out)
        iterations.append({"cold": cold, "warm": warm})
    track.mark()
    return iterations


def timings(build: dict, track: SpeedTrack) -> dict:
    """A build's wall and reference-speed times (see ``speed``)."""
    commits = build["commits"]
    return {
        "wall_s": build["end"] - build["start"],
        "ref_s": track.scaled_s(build["start"], build["end"]),
        "setup_wall_s": commits[0][0] - build["start"],
        "setup_s": track.scaled_s(build["start"], commits[0][0]),
        # commit to commit, the mark after each commit left out
        "shard_ms": [track.scaled_s(a[1], b[0]) * 1000.0
                     for a, b in zip(commits, commits[1:])],
    }


#: build seeds with a recorded digest; a run uses ``seed % BUILD_SEEDS``
BUILD_SEEDS = 32


def build_seed(seed: int) -> int:
    """The synthesis seed a run uses: one of the seeds with a recorded digest."""
    return seed % BUILD_SEEDS


def recorded_digests() -> dict:
    return common.load_expected().get("build", {}).get("digests", {})


def record_expected() -> dict:
    """Shard digests of a cold build for every build seed."""
    from repro.core.nvbench import paper_scale_config

    digests = {}
    for seed in range(BUILD_SEEDS):
        work = common.scratch_dir("digest")
        try:
            digests[str(seed)] = timed_build(
                paper_scale_config(seed=seed), work / "out", SpeedTrack())["digest"]
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return {"databases": PREFIX, "digests": digests}


# ----- harness side ---------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from layers import load_spans, span_counts

    work = common.scratch_dir("build")
    params = {"seed": build_seed(seed), "work": str(work)}
    untraced_s = seconds / 2 if trace else seconds
    try:
        # one child process per untraced iteration: each process draws
        # its own string-hash seed, which moved a whole run's build rate
        # by a few per cent, and the medians over iterations average it
        replies = []
        start = time.perf_counter()
        while not replies or (
            time.perf_counter() + (time.perf_counter() - start) / len(replies)
            <= start + untraced_s
        ):
            replies.append(common.run_child(
                "wl_build.py", {**params, "seconds": 0}, timeout=170))
        reply = {
            "untraced": [it for r in replies for it in r["untraced"]],
            "speed": [r["speed"] for r in replies],
            "peak_rss_mb": common.median([r["peak_rss_mb"] for r in replies]),
        }
        if trace:
            traced = common.run_child(
                "wl_build.py", {**params, "trace_seconds": seconds / 2}, timeout=170)
            reply.update(traced=traced["traced"], wrapper_cost_s=traced["wrapper_cost_s"])
            spans = load_spans(Path(traced["spans"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    iterations = reply["untraced"] + reply.get("traced", [])
    expected = recorded_digests().get(str(build_seed(seed)))
    digests = {b["digest"] for it in iterations for b in (it["cold"], it["warm"])}
    cold = [it["cold"] for it in reply["untraced"]]
    warm = [it["warm"] for it in reply["untraced"]]
    # warm phase only: the executor is bypassed there, and pooled with the
    # slower cold shards the median would fall between two modes
    warm_shard_ms = [ms for b in warm for ms in b["shard_ms"]]
    rate = [b["pairs"] / b["ref_s"] for b in cold]
    details = {
        "build_seed": build_seed(seed),
        "databases": PREFIX,
        "pairs": cold[0]["pairs"],
        "iterations": len(cold),
        "pairs_per_s": common.median(rate),
        "rebuild_pairs_per_s": common.median([b["pairs"] / b["ref_s"] for b in warm]),
        "wall_pairs_per_s": common.median([b["pairs"] / b["wall_s"] for b in cold]),
        "wall_setup_s": common.median([b["setup_wall_s"] for b in cold]),
        "cold_wall_s": [b["wall_s"] for b in cold],
        "warm_wall_s": [b["wall_s"] for b in warm],
        "cold_ref_s": [b["ref_s"] for b in cold],
        "warm_ref_s": [b["ref_s"] for b in warm],
        "speed": reply["speed"],
        "latency_samples": len(warm_shard_ms),
        "latency_p90_ms": common.percentile(warm_shard_ms, 90),
        "digest": sorted(digests),
        "recorded_digest": expected,
    }
    result = {
        "correct": digests == {expected},
        "attempted": 2 * len(iterations),
        "failed": 0,
        "metrics": {
            "setup_s": common.median([b["setup_s"] for b in cold]),
            "peak_rss_mb": reply["peak_rss_mb"],
            "throughput_per_s": common.median(rate),
            "latency_p50_ms": common.percentile(warm_shard_ms, 50),
        },
        "details": details,
        "layers": None,
    }
    if trace:
        result["layers"] = layer_report(spans, reply["traced"])
        details["layer_samples"] = span_counts(spans)
        traced_rate = common.median(
            [it["cold"]["pairs"] / it["cold"]["ref_s"] for it in reply["traced"]]
        )
        traced_wall = sum(it[phase]["wall_s"] for it in reply["traced"]
                          for phase in ("cold", "warm"))
        result["layers"]["trace.overhead"] = (
            len(spans) * reply["wrapper_cost_s"] / traced_wall)
        details["trace_overhead_measured"] = common.median(rate) / traced_rate - 1.0
        details["trace_overhead_ok"] = (
            result["layers"]["trace.overhead"] <= layers.OVERHEAD_LIMIT)
    return result


def layer_report(spans, iterations) -> dict:
    """Per-layer busy time (self time per cold+warm iteration) and counts."""
    from layers import EXTRA, FAILED, SpanIndex

    index = SpanIndex(spans)
    n = len(iterations)
    wall = sum(it[p]["wall_s"] for it in iterations for p in ("cold", "warm"))

    def window(phase):
        return [(it[phase]["start"], it[phase]["end"]) for it in iterations]

    def calls_in(phase):
        return sum(
            index.executed(s)
            for low, high in window(phase)
            for s in index.layer("storage.execute", (low, high))
        )

    scores = [s[EXTRA] for s in index.layer("core.filter.score") if s[EXTRA]]
    hits, lookups = index.cache_hits()
    out = {
        "storage.execute.calls": calls_in("cold") / n,
        "storage.execute.warm_calls": calls_in("warm") / n,
        "storage.execute.errors": sum(s[FAILED] for s in index.layer("storage.execute")) / n,
        "storage.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "core.tree_edits.candidates": sum(
            s[EXTRA]["n"] for s in index.layer("core.tree_edits") if s[EXTRA]) / n,
        "core.filter.kept_ratio": (
            sum(x["kept"] for x in scores) / max(1, sum(x["n"] for x in scores))),
        "storage.shards.bytes_written": sum(
            s[EXTRA]["bytes"] for s in index.layer("storage.shards.write") if s[EXTRA]) / n,
        "storage.journal.bytes_appended": sum(
            s[EXTRA]["bytes"] for s in index.layer("storage.journal.flush") if s[EXTRA]) / n,
    }
    for layer, metric in BUSY.items():
        busy = index.busy_s(layer)
        out[metric] = busy / n
        out[f"{metric}.share"] = busy / wall
    return out


#: layer → busy metric (seconds of self time per cold+warm iteration)
BUSY = {
    "spider.unit_gen": "spider.unit_gen.busy_s",
    "core.tree_edits": "core.tree_edits.busy_s",
    "core.filter.featurize": "core.filter.featurize_busy_s",
    "core.filter.score": "core.filter.score_busy_s",
    "core.filter_train": "core.filter_train.busy_s",
    "core.nl_edits": "core.nl_edits.busy_s",
    "storage.execute": "storage.execute.busy_s",
    "storage.shards.write": "storage.shards.write_busy_s",
    "storage.journal.flush": "storage.journal.flush_busy_s",
    "storage.journal.preload": "storage.journal.preload_s",
}


# ----- child side -------------------------------------------------------------


def main(params: dict) -> None:
    """Untraced builds for ``seconds`` (0: one cold + warm iteration), or
    traced builds for ``trace_seconds``."""
    work = Path(params["work"])
    track = SpeedTrack()
    reply = {"untraced": [], "traced": []}
    if "seconds" in params:
        reply["untraced"] = build_loop(params["seed"], params["seconds"], work, track)
    if params.get("trace_seconds"):
        import layers

        recorder = layers.install()
        reply["traced"] = build_loop(params["seed"], params["trace_seconds"], work,
                                     track)
        spans = work / "spans.jsonl"
        recorder.dump(spans)
        reply["spans"] = str(spans)
        reply["wrapper_cost_s"] = layers.wrapper_cost_s()
    for iteration in reply["untraced"] + reply["traced"]:
        for build in iteration.values():
            build.update(timings(build, track))
    reply["speed"] = track.summary()
    reply["peak_rss_mb"] = common.peak_rss_mb()
    Path(params["reply"]).write_text(json.dumps(reply))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
