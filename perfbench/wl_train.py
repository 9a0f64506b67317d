"""Child process of the ``train`` workload (run by ``run.py``).

Trains the attention seq2vis variant on a fixed slice of the fixture
benchmark, a fixed number of epochs with a validation set and no early
stop, again and again until the time is up.  Every repeat starts from
the same seed, so every loss curve must come out identical, and equal
(within ``CURVE_TOLERANCE``) to the curve recorded for the train seed
in ``expected.json``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import common
from repro.perf import TrainProfiler
from speed import SpeedTrack

#: pairs of the fixture benchmark the workload trains on (split 80/10/10)
SLICE = 600
EPOCHS = 3
#: train seeds with a recorded loss curve; a run uses ``seed % TRAIN_SEEDS``
TRAIN_SEEDS = 16
#: relative difference allowed against the recorded curve: room for a
#: different summation order, not for a different computation
CURVE_TOLERANCE = 1e-5


class StepTimes(TrainProfiler):
    """The trainer's own profiler, also keeping every step's interval and
    taking a speed mark after each step (outside the step's timing)."""

    def __init__(self, track: SpeedTrack):
        super().__init__()
        self.track = track
        self.steps = []

    def observe_step(self, seconds: float, tokens: int) -> None:
        now = time.perf_counter()
        self.steps.append((now - seconds, now))
        super().observe_step(seconds, tokens)
        self.track.mark()


def train_once(bench, pairs, seed: int, track: SpeedTrack) -> dict:
    from repro.eval.harness import ExperimentConfig, build_model, make_datasets
    from repro.neural.trainer import TrainConfig, train_model

    clock = time.perf_counter
    track.mark()
    # the run's own peak: what earlier runs left on the heap varies
    common.reset_peak_rss()
    start = clock()
    config = ExperimentConfig(
        embed_dim=48, hidden_dim=64, model_seed=seed,
        train=TrainConfig(epochs=EPOCHS, batch_size=24, lr=5e-3,
                          patience=EPOCHS + 1, seed=seed),
    )
    train_set, val_set, _ = make_datasets(bench, config, pairs=pairs)
    model = build_model("attention", train_set, config)
    ready = clock()
    profiler = StepTimes(track)
    result = train_model(model, train_set, val_set, config.train, profile=profiler)
    end = clock()
    return {
        "start": start,
        "ready": ready,
        "end": end,
        "tokens": profiler.total_tokens,
        "steps": profiler.total_steps,
        "step_intervals": profiler.steps,
        "train_losses": result.train_losses,
        "val_losses": result.val_losses,
        "epoch_s": [row["seconds"] for row in profiler.epochs],
        "examples": len(train_set.examples),
        "peak_rss_mb": common.peak_rss_mb(),
    }


def timings(run: dict, track: SpeedTrack) -> dict:
    """A training run's wall and reference-speed times (see ``speed``)."""
    return {
        "setup_wall_s": run["ready"] - run["start"],
        "setup_s": track.scaled_s(run["start"], run["ready"]),
        "train_wall_s": run["end"] - run["ready"],
        "train_s": track.scaled_s(run["ready"], run["end"]),
        "step_ms": [(b - a) * 1000.0 * track.factor(a, b)
                    for a, b in run.pop("step_intervals")],
    }


def load_slice(fixtures: Path):
    from repro.core.nvbench import load_nvbench_dir

    bench = load_nvbench_dir(str(fixtures / "base"))
    return bench, [bench.pairs[i] for i in range(SLICE)]


def train_loop(fixtures: Path, seed: int, seconds: float, track: SpeedTrack) -> list:
    bench, pairs = load_slice(fixtures)
    runs = []
    start = time.perf_counter()
    # stop before a repeat that would end past the deadline
    while not runs or (
        time.perf_counter() + (time.perf_counter() - start) / len(runs)
        <= start + seconds
    ):
        runs.append(train_once(bench, pairs, seed, track))
    track.mark()
    return runs


def train_seed(seed: int) -> int:
    return seed % TRAIN_SEEDS


def record_expected() -> dict:
    """The loss curves of one training run per train seed."""
    import fixtures as fixture_mod

    bench, pairs = load_slice(fixture_mod.ensure())
    out = {}
    for seed in range(TRAIN_SEEDS):
        once = train_once(bench, pairs, seed, SpeedTrack())
        out[str(seed)] = {"train": once["train_losses"], "val": once["val_losses"]}
    return out


def matches_recorded(curve, recorded) -> bool:
    if recorded is None:
        return False
    expected = (recorded["train"], recorded["val"])
    return all(
        len(got) == len(want)
        and all(abs(a - b) <= CURVE_TOLERANCE * max(1.0, abs(b))
                for a, b in zip(got, want))
        for got, want in zip(curve, expected)
    )


# ----- harness side ---------------------------------------------------------


def run(seed: int, seconds: float, trace: bool) -> dict:
    import shutil

    import fixtures as fixture_mod
    import layers
    from layers import load_spans, span_counts

    fixtures = fixture_mod.ensure()
    work = common.scratch_dir("train")
    try:
        params = {"seed": train_seed(seed), "fixtures": str(fixtures),
                  "work": str(work),
                  "seconds": seconds / 2 if trace else seconds}
        if trace:
            params["trace_seconds"] = seconds / 2
        reply = common.run_child("wl_train.py", params, timeout=170)
        spans = load_spans(Path(reply["spans"])) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = reply["untraced"]
    everything = runs + reply.get("traced", [])
    curve = (everything[0]["train_losses"], everything[0]["val_losses"])
    finite = all(math.isfinite(x) for x in curve[0] + curve[1])
    recorded = common.load_expected().get("train", {}).get(str(train_seed(seed)))
    recorded_match = matches_recorded(curve, recorded)
    correct = (
        finite
        and len(curve[0]) == EPOCHS == len(curve[1])
        and curve[0][-1] < curve[0][0]
        and all((r["train_losses"], r["val_losses"]) == curve for r in everything)
        and recorded_match
    )
    rates = [r["tokens"] / r["train_s"] for r in runs]
    step_ms = [ms for r in runs for ms in r["step_ms"]]
    result = {
        "correct": correct,
        "attempted": len(everything),
        "failed": 0,
        "metrics": {
            "setup_s": common.median([r["setup_s"] for r in runs]),
            "peak_rss_mb": common.median([r["peak_rss_mb"] for r in runs]),
            "throughput_per_s": common.median(rates),
            "latency_p50_ms": common.percentile(step_ms, 50),
        },
        "details": {
            "train_seed": train_seed(seed),
            "recorded_match": recorded_match,
            "tokens_per_s": common.median(rates),
            "val_loss": curve[1][-1],
            "train_loss_curve": curve[0],
            "val_loss_curve": curve[1],
            "examples": runs[0]["examples"],
            "repeats": len(runs),
            "steps_per_run": runs[0]["steps"],
            "latency_samples": len(step_ms),
            "latency_p90_ms": common.percentile(step_ms, 90),
            "wall_tokens_per_s": common.median(
                [r["tokens"] / r["train_wall_s"] for r in runs]),
            "wall_setup_s": common.median([r["setup_wall_s"] for r in runs]),
            "process_peak_rss_mb": reply["peak_rss_mb"],
            "speed": reply["speed"],
            "epoch_s": runs[-1]["epoch_s"],
        },
        "layers": None,
    }
    if trace:
        traced_runs = reply["traced"]
        result["layers"] = layer_report(spans, traced_runs)
        result["details"]["layer_samples"] = span_counts(spans)
        result["layers"]["neural.eval.val_loss"] = curve[1][-1]
        traced_rate = common.median([r["tokens"] / r["train_s"] for r in traced_runs])
        traced_wall = sum(r["end"] - r["start"] for r in traced_runs)
        result["layers"]["trace.overhead"] = (
            len(spans) * reply["wrapper_cost_s"] / traced_wall)
        result["details"]["trace_overhead_measured"] = (
            common.median(rates) / traced_rate - 1.0)
        result["details"]["trace_overhead_ok"] = (
            result["layers"]["trace.overhead"] <= layers.OVERHEAD_LIMIT)
    return result


def layer_report(spans, runs) -> dict:
    from layers import EXTRA, PARENT, SID, T0, T1, SpanIndex

    index = SpanIndex(spans)
    wall = sum(r["end"] - r["start"] for r in runs)
    # validation is reported whole (its forward passes included), so
    # neural.forward covers the training steps' forward passes only
    evals = index.layer("neural.eval")
    in_eval = {s[SID] for s in evals}
    steps = {
        layer: [s for s in index.layer(layer) if s[PARENT] not in in_eval]
        for layer in ("neural.forward", "neural.backward", "neural.optim")
    }
    pads = [s[EXTRA] for s in index.layer("neural.forward") if s[EXTRA]]
    eval_s = sum(s[T1] - s[T0] for s in evals)
    out = {
        "neural.pad_ratio": 1.0 - sum(x["real"] for x in pads)
        / max(1.0, sum(x["total"] for x in pads)),
        "neural.eval.busy_s": eval_s / len(runs),
        "neural.eval.busy_s.share": eval_s / wall,
    }
    for layer, spans_of_layer in steps.items():
        self_ms = [index.self_s[s[SID]] * 1000.0 for s in spans_of_layer]
        metric = f"{layer}.busy_ms_p50"
        out[metric] = common.percentile(self_ms, 50) if self_ms else 0.0
        out[f"{metric}.share"] = sum(self_ms) / 1000.0 / wall
    return out


# ----- child side -------------------------------------------------------------


def main(params: dict) -> None:
    fixtures = Path(params["fixtures"])
    track = SpeedTrack()
    reply = {"untraced": train_loop(fixtures, params["seed"], params["seconds"], track)}
    if params.get("trace_seconds"):
        import layers

        recorder = layers.install()
        reply["traced"] = train_loop(fixtures, params["seed"], params["trace_seconds"],
                                     track)
        spans = Path(params["work"]) / "spans.jsonl"
        recorder.dump(spans)
        reply["spans"] = str(spans)
        reply["wrapper_cost_s"] = layers.wrapper_cost_s()
    for run in reply["untraced"] + reply.get("traced", []):
        run.update(timings(run, track))
    reply["speed"] = track.summary()
    reply["peak_rss_mb"] = common.peak_rss_mb()
    Path(params["reply"]).write_text(json.dumps(reply))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
