"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``build``, ``pipeline_wide``, ``translate_narrow``, ``train``
(see ``perfbench/README.md``).  With ``--trace 0`` the last stdout line
is a JSON object whose ``metrics`` are the end-to-end metrics; with
``--trace 1`` the run measures an untraced and a traced pass and the
metrics are the per-layer ones.  Earlier lines are a human-readable
report; the full details go to ``.perfbench_cache/results/``.

Maintenance: ``--record`` rewrites ``expected.json``, the reference the
correctness gates compare with: the fixtures' content digest, the build
shard digests, the serving check-sample digests and the training loss
curves, each for every seed class a run can use (a few minutes).  Do it
only on purpose, when a change to the program is meant to change them.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time

import common

WORKLOADS = ("build", "pipeline_wide", "translate_narrow", "train")

#: (name, unit) of every end-to-end metric, reported by every workload
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
]

_LAYER_METRICS = [
    ("spider.unit_gen.busy_s", "s"),
    ("core.tree_edits.busy_s", "s"),
    ("core.tree_edits.candidates", "count"),
    ("core.filter.featurize_busy_s", "s"),
    ("core.filter.score_busy_s", "s"),
    ("core.filter.kept_ratio", "ratio"),
    ("core.filter_train.busy_s", "s"),
    ("core.nl_edits.busy_s", "s"),
    ("storage.execute.calls", "count"),
    ("storage.execute.warm_calls", "count"),
    ("storage.execute.busy_s", "s"),
    ("storage.execute.errors", "count"),
    ("storage.cache.hit_ratio", "ratio"),
    ("storage.shards.write_busy_s", "s"),
    ("storage.shards.bytes_written", "bytes"),
    ("storage.journal.flush_busy_s", "s"),
    ("storage.journal.bytes_appended", "bytes"),
    ("storage.journal.preload_s", "s"),
    ("pipeline.route.busy_ms_p50", "ms"),
    ("pipeline.route.busy_ms_p95", "ms"),
    ("pipeline.route.databases_scored", "count"),
    ("pipeline.route.accuracy", "ratio"),
    ("pipeline.generate.busy_ms_p50", "ms"),
    ("pipeline.verify.busy_ms_p50", "ms"),
    ("pipeline.verify.pass_ratio", "ratio"),
    ("pipeline.execute.busy_ms_p50", "ms"),
    ("pipeline.execute.cache_hit_ratio", "ratio"),
    ("pipeline.repair.busy_ms_p50", "ms"),
    ("pipeline.repair.success_ratio", "ratio"),
    ("eval.judge.busy_ms_p50", "ms"),
    ("serve.http.self_ms_p50", "ms"),
    ("serve.batcher.wait_ms_p50", "ms"),
    ("serve.batcher.batch_size_mean", "count"),
    ("serve.render.busy_ms_p50", "ms"),
    ("neural.decode.busy_ms_p50", "ms"),
    ("neural.decode.tokens", "count"),
    ("neural.forward.busy_ms_p50", "ms"),
    ("neural.backward.busy_ms_p50", "ms"),
    ("neural.optim.busy_ms_p50", "ms"),
    ("neural.eval.busy_s", "s"),
    ("neural.eval.val_loss", "nats/token"),
    ("neural.pad_ratio", "ratio"),
]

#: (name, unit) of every per-layer metric; each busy metric also has a
#: ``.share`` of the traced pass's end-to-end time
PER_LAYER = []
for _name, _unit in _LAYER_METRICS:
    PER_LAYER.append((_name, _unit))
    if ("busy" in _name and not _name.endswith("_p95")) or _name in (
            "storage.journal.preload_s", "serve.http.self_ms_p50"):
        PER_LAYER.append((_name + ".share", "ratio"))
PER_LAYER.append(("trace.overhead", "ratio"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "build":
        import wl_build

        return wl_build.run(seed, seconds, trace)
    if name == "train":
        import wl_train

        return wl_train.run(seed, seconds, trace)
    import wl_serve

    return wl_serve.run(name, seed, seconds, trace)


def result_line(outcome: dict, trace: bool) -> dict:
    source = outcome["layers"] if trace else outcome["metrics"]
    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in wanted:
        value = float(source.get(name, 0.0))
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def report(name: str, line: dict, details: dict) -> None:
    print(f"workload {name}  correct={line['correct']}  "
          f"attempted={line['attempted']}  failed={line['failed']}")
    for metric, entry in line["metrics"].items():
        print(f"  {metric:42s} {entry['value']:14.4f} {entry['unit']}")
    for key, value in details.items():
        if isinstance(value, (int, float, str)) or value is None or (
                isinstance(value, list) and len(value) <= 8
                and all(isinstance(v, (int, float)) for v in value)):
            print(f"  [{key}] {value}")
    if details.get("trace_overhead_ok") is False:
        import layers

        print(f"WARNING: trace.overhead {line['metrics']['trace.overhead']['value']:.3f}"
              f" is above {layers.OVERHEAD_LIMIT}; per-layer times are inflated")


def record_expected() -> None:
    import fixtures
    import wl_build
    import wl_serve
    import wl_train

    expected = {
        "fixtures": json.loads((fixtures.ensure() / "digest.json").read_text()),
        "build": wl_build.record_expected(),
        "pipeline_wide": wl_serve.record_expected("pipeline_wide"),
        "translate_narrow": wl_serve.record_expected("translate_narrow"),
        "train": wl_train.record_expected(),
    }
    common.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {common.EXPECTED}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json (see the module doc)")
    args = parser.parse_args(argv)
    try:
        common.require_program()
    except common.ProgramMissing as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    if args.record:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # Servers are stopped with SIGINT (the CLI drains on it).  A shell
    # that starts this in the background ignores SIGINT, and children
    # would inherit that; a handler here is reset to the default in them.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # on SIGTERM, unwind so every child is stopped on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    details = {
        **common.run_metadata(args.seed),
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "run_wall_s": time.perf_counter() - started,
        **outcome["details"],
    }
    if args.workload != "build":
        # the recorded answers and curves assume the recorded fixtures
        import fixtures

        check = fixtures.check(fixtures.fixture_dir())
        details.update(check)
        outcome["correct"] = outcome["correct"] and check["fixtures_match"]
    line = result_line(outcome, bool(args.trace))
    out_dir = common.CACHE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": line, "details": details,
                    "layers": outcome["layers"]}, indent=1, default=str))
    report(args.workload, line, details)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
