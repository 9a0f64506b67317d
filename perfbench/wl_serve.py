"""The serving workloads, ``pipeline_wide`` and ``translate_narrow``.

The server is the program's own ``python -m repro serve --workers 1``
(in traced mode the same entry point behind ``serve_launcher.py``),
holding all 153 paper-scale databases and the fixture model.  Load comes
from ``loadgen`` over keep-alive connections.  A run first sends a fixed
check sample (which also warms the server up), then alternates
closed-loop and open-loop blocks, so a slow spell of the machine falls
on both phases alike.

Two correctness gates: the answers to the check sample must equal the
digest recorded for the seed in ``expected.json``; and every answer is
recomputed in this process with the library (``translate_requests`` and
``render_spec``; ``Router.route``, ``Pipeline.run`` and ``judge_chart``)
over the same corpus file and model, and must be equal.
"""

from __future__ import annotations

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional

import numpy as np

import common
import fixtures as fixture_mod
import layers
import loadgen
from layers import EXTRA, KEY, PARENT, T0, T1, SpanIndex, load_spans, span_counts
from speed import CoreSampler, SpeedTrack

MODEL = "bench"
CONNECTIONS = max(1, min(2, len(common.CPUS)))
#: untimed load after the check sample, before the first measured block
WARMUP_S = 1.0
#: closed-loop + open-loop block pairs in a pass: the machine's speed
#: drifts over seconds, so each phase samples the whole pass
ROUNDS = 6
#: server launches per untraced pass; ``setup_s`` is their median
LAUNCHES = 3
#: the check sample's questions come from seed ``seed % CHECK_SEEDS``
CHECK_SEEDS = 16
#: open-loop latencies a pass must collect (so p90 has ≥ 10 beyond it)
MIN_LATENCY_SAMPLES = 100
#: sampled responses whose full route ranking is recomputed in process
ROUTE_SAMPLE = 24
#: keys of a /pipeline reply that are timings, ids or server-side labels,
#: not the answer (the route is checked separately)
_VOLATILE = ("routed", "routes", "stage_timings_ms", "elapsed_ms", "trace_id",
             "latency_ms", "model")
#: keys of a /translate reply that make up the answer
_TRANSLATE_KEYS = ("question", "db", "tokens", "vis", "error", "candidates",
                   "spec", "render_error")


class Workload:
    """What one serving workload sends and how its answers are checked."""

    path: str
    #: share of the measuring time spent in the closed-loop phase
    closed_share: float
    #: open-loop arrivals per second: well under the closed-loop capacity
    #: of 2 connections (on a 2-core machine 20-30 req/s for
    #: pipeline_wide, 90-120 req/s for translate_narrow), with enough
    #: arrivals in the open phase of a 28 s run for 100 latency samples
    rate: float
    #: questions in the check sample
    check_questions: int

    def items(self, fixtures: Path, seed: int) -> Iterator[dict]:
        raise NotImplementedError

    def extract(self, body: dict) -> dict:
        raise NotImplementedError


class PipelineWide(Workload):
    """``POST /pipeline``, database omitted (routed over all 153), k=3, judged."""

    path = "/pipeline"
    closed_share = 0.3
    #: at 50-90 ms a request (fast to slow spells of a shared machine),
    #: arrivals 167 ms apart seldom overlap; at 125 ms apart they queued
    #: in slow spells and p95 swung by half from run to run
    rate = 6.0
    check_questions = 24

    def items(self, fixtures, seed):
        pool = fixture_mod.load_json(fixtures, "wide_questions.json")
        for index in np.random.default_rng(seed).permutation(len(pool)):
            entry = pool[int(index)]
            yield {
                "question": entry["question"],
                "source_db": entry["db"],
                "payload": {"question": entry["question"], "k": 3, "judge": True},
            }

    def extract(self, body):
        routes = body.get("routes") or []
        return {
            "top": routes[0]["db"] if routes else None,
            "routes": common.json_digest(routes),
            "answer": common.json_digest(_strip(body)),
            "stage_ms": body.get("stage_timings_ms", {}),
        }


class TranslateNarrow(Workload):
    """``POST /translate`` over 8 databases: unique questions, no response
    cache, vega-lite, alternating greedy and beam-4 decoding."""

    path = "/translate"
    closed_share = 0.2
    rate = 20.0
    check_questions = 32

    def items(self, fixtures, seed):
        by_db = fixture_mod.load_json(fixtures, "narrow_questions.json")
        pool = [(q, db) for db in sorted(by_db) for q in by_db[db]]
        order = np.random.default_rng(seed).permutation(len(pool))
        for position, index in enumerate(order):
            question, db = pool[int(index)]
            yield {
                "question": question,
                "source_db": db,
                "payload": {
                    "question": question, "db": db, "use_cache": False,
                    "format": "vega-lite",
                    "beam_width": 1 if position % 2 == 0 else 4,
                },
            }

    def extract(self, body):
        return {"answer": common.json_digest({k: body.get(k) for k in _TRANSLATE_KEYS})}


WORKLOADS = {"pipeline_wide": PipelineWide(), "translate_narrow": TranslateNarrow()}


def _strip(body: dict) -> dict:
    return {k: v for k, v in body.items() if k not in _VOLATILE}


# ----- the server process ---------------------------------------------------


class Server:
    """One ``repro serve`` child; ``setup_s`` is launch → first healthy reply."""

    def __init__(self, fixtures: Path, work: Path, spans_out: Optional[Path]):
        self.port = common.free_port()
        args = [
            "serve", "--corpus", str(fixtures / "corpus153.json"),
            "--model", f"{MODEL}={fixtures / 'model.npz'}", "--default", MODEL,
            "--port", str(self.port), "--workers", "1",
        ]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(common.HERE / "serve_launcher.py"),
                       str(spans_out), *args]
        self.log_path = work / f"server-{self.port}.log"
        self.log = open(self.log_path, "w")
        start = self.launched = time.perf_counter()
        # a server that will not drain gets SIGABRT, and the fault
        # handler writes every thread's stack to the log
        env = {**common.child_env(), "PYTHONFAULTHANDLER": "1"}
        self.proc = subprocess.Popen(
            command, env=env, cwd=str(common.ROOT),
            stdout=self.log, stderr=subprocess.STDOUT, preexec_fn=common.own_core,
        )
        try:
            self._wait_healthy(start)
        except BaseException:
            self.stop()
            raise
        self.healthy = time.perf_counter()
        self.setup_s = self.healthy - start
        self.startup_cpu_s = self.cpu_s()

    def _wait_healthy(self, start: float) -> None:
        while time.perf_counter() - start < 120:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}")
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("server not healthy after 120s")

    def peak_rss_mb(self) -> float:
        return common.peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> float:
        return common.cpu_s(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(20)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGABRT)
                try:
                    self.proc.wait(10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(10)
        self.log.close()


def check_items(workload: Workload, fixtures: Path, seed: int) -> List[dict]:
    """The check sample of *seed*: fixed by ``seed % CHECK_SEEDS``."""
    items = workload.items(fixtures, seed % CHECK_SEEDS)
    return [item for item, _ in zip(items, range(workload.check_questions))]


def serve_pass(workload: Workload, fixtures: Path, work: Path, seed: int,
               seconds: float, launches: int, spans_out: Optional[Path]) -> dict:
    """Launch, load (check sample, warm-up, measured blocks), stop."""
    # the load generator keeps the cores the server does not get
    if len(common.CPUS) > 1:
        os.sched_setaffinity(0, common.CPUS[:-1])
    try:
        return _serve_pass(workload, fixtures, work, seed, seconds, launches,
                           spans_out)
    finally:
        os.sched_setaffinity(0, common.CPUS)


def _serve_pass(workload, fixtures, work, seed, seconds, launches, spans_out):
    # speed marks on the server's core, from a helper process beside the
    # server, through every launch and every measured block
    track = SpeedTrack()
    sampler = CoreSampler(common.CPUS[-1] if len(common.CPUS) > 1 else None,
                          work / f"speed-{os.getpid()}-{time.monotonic_ns()}.json")
    try:
        return _load_server(workload, fixtures, work, seed, seconds, launches,
                            spans_out, sampler, track)
    finally:
        sampler.stop(track)


def _load_server(workload, fixtures, work, seed, seconds, launches, spans_out,
                 sampler, track):
    launched = []
    for _ in range(launches - 1):
        launched.append(Server(fixtures, work, None))
        launched[-1].stop()
    server = Server(fixtures, work, spans_out)
    launched.append(server)
    sample = check_items(workload, fixtures, seed)
    asked = {item["question"] for item in sample}
    items = (item for item in workload.items(fixtures, seed)
             if item["question"] not in asked)

    def closed(source, duration):
        return loadgen.closed_loop("127.0.0.1", server.port, workload.path, source,
                                   CONNECTIONS, duration, workload.extract)

    def measured(block):
        """Run a block; record the server's CPU seconds during it."""
        cpu = server.cpu_s()
        result = block()
        result["server_cpu_s"] = server.cpu_s() - cpu
        return result

    try:
        cpu_start = server.cpu_s()
        # untimed: the check sample, then lazy imports and first-call
        # allocations settle
        checked = closed(iter(sample), float("inf"))
        warmup = closed(items, WARMUP_S)
        blocks = []
        for _ in range(ROUNDS):
            blocks.append(measured(lambda: closed(
                items, seconds * workload.closed_share / ROUNDS)))
            blocks.append(measured(lambda: loadgen.open_loop(
                "127.0.0.1", server.port, workload.path, items, CONNECTIONS,
                workload.rate, seconds * (1 - workload.closed_share) / ROUNDS,
                workload.extract,
            )))
        cpu_s = server.cpu_s() - cpu_start
        conn = loadgen.Connection("127.0.0.1", server.port)
        _, server_metrics = conn.get("/metrics")
        conn.close()
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    sampler.stop(track)
    # Reference-speed times (see ``speed``).  Only the server's CPU time
    # is scaled; its waits (the batcher's flush window, idle time between
    # arrivals), the client and the network are not.  Each stretch is
    # scaled by the marks taken during it: a busy core and one that idles
    # between arrivals do not run at the same speed.

    def ref_s(start, end, cpu):
        factor = track.factor(start, end, window=0.0)
        return (end - start) - min(cpu, end - start) * (1.0 - factor)

    for block in blocks:
        block["factor"] = track.factor(block["start"], block["end"], window=0.0)
        block["ref_s"] = ref_s(block["start"], block["end"], block["server_cpu_s"])
        block["cpu_per_request_s"] = (min(block["server_cpu_s"],
                                          block["end"] - block["start"])
                                      / max(1, len(block["records"])))
    closed_blocks, open_blocks = blocks[0::2], blocks[1::2]
    records = checked["records"] + warmup["records"] + [
        r for block in blocks for r in block["records"]]
    shutdown_error = None
    if server.proc.returncode != 0:
        # the load is measured already; a server that does not drain on
        # SIGINT is reported as one failed operation, with its stacks
        shutdown_error = (f"server exited with {server.proc.returncode}:\n"
                          f"{server.log_path.read_text()[-6000:]}")
    closed_records = [r for b in closed_blocks for r in b["records"]]
    open_records = [r for b in open_blocks for r in b["records"]]
    late_ms = [(r.sent - r.due) * 1000.0 for r in open_records]
    completed = sum(r.ok for r in closed_records)
    return {
        "shutdown_error": shutdown_error,
        "setups": [ref_s(s.launched, s.healthy, s.startup_cpu_s) for s in launched],
        "wall_setups": [s.setup_s for s in launched],
        "check": checked["records"],
        "closed_records": closed_records,
        "open_records": open_records,
        # reference-speed figures (see ``speed``)
        "requests_per_s": completed / sum(b["ref_s"] for b in closed_blocks),
        "open_latency_ms": [
            (r.latency_s - b["cpu_per_request_s"] * (1.0 - b["factor"])) * 1000.0
            for b in open_blocks for r in b["records"]],
        "wall_requests_per_s": completed / sum(b["elapsed_s"] for b in closed_blocks),
        "block_requests_per_s": [b["requests_per_s"] for b in closed_blocks],
        "block_factors": [b["factor"] for b in blocks],
        "block_server_busy": [b["server_cpu_s"] / (b["end"] - b["start"])
                              for b in blocks],
        "speed": track.summary(),
        "open": {
            "scheduled": sum(b["scheduled"] for b in open_blocks),
            "shortfall": sum(b["shortfall"] for b in open_blocks),
            "rate": workload.rate,
            "achieved_rate": common.median([b["achieved_rate"] for b in open_blocks]),
            "late_ms_p50": common.percentile(late_ms, 50),
            "late_ms_p95": common.percentile(late_ms, 95),
            "late_ms_max": max(late_ms, default=0.0),
        },
        "exhausted": any(b["exhausted"] for b in [warmup] + blocks),
        "records": records,
        "peak_rss_mb": rss,
        "server_cpu_s": cpu_s,
        "wall_s": max(r.done for r in records) - min(r.sent for r in records),
        "server_metrics": server_metrics,
    }


# ----- in-process reference answers ----------------------------------------


def reference_answers(name: str, fixtures: Path, items: List[dict],
                      tops: Optional[Dict[str, str]] = None) -> Dict:
    """question → reference extract, computed in this process.

    For ``pipeline_wide`` the pipeline runs on ``tops[question]`` (the
    database the server routed to) and the route ranking is recomputed
    for a sample of about ``ROUTE_SAMPLE`` questions; with no *tops*
    every question is routed here and answered on its own top route.
    """
    from repro.serve import NeuralTranslator
    from repro.spider.corpus import load_corpus

    databases = load_corpus(str(fixtures / "corpus153.json")).databases
    translator = NeuralTranslator.from_npz(str(fixtures / "model.npz"))
    unique = list({item["question"]: item for item in items}.values())
    if name == "translate_narrow":
        return _translate_reference(translator, databases, unique)
    return _pipeline_reference(translator, databases, unique, tops)


def _translate_reference(translator, databases, items) -> Dict:
    from repro.serve import DecodeConfig, render_spec
    from repro.storage.executor import ExecutionCache

    cache = ExecutionCache()
    out = {}
    for width in (1, 4):
        group = [item for item in items if item["payload"]["beam_width"] == width]
        for start in range(0, len(group), 32):
            chunk = group[start:start + 32]
            results = translator.translate_requests(
                [(item["question"], databases[item["source_db"]]) for item in chunk],
                decode=DecodeConfig(beam_width=width),
            )
            for item, result in zip(chunk, results):
                spec = render_error = None
                if result.ok:
                    try:
                        spec = render_spec(result, databases[result.db_name],
                                           "vega-lite", cache=cache)
                    except Exception as exc:  # noqa: BLE001 - mirrors the server
                        render_error = f"render failed: {exc}"
                answer = json.loads(json.dumps(
                    {**result.to_json(), "spec": spec, "render_error": render_error}
                ))
                out[item["question"]] = {
                    "answer": common.json_digest(
                        {k: answer.get(k) for k in _TRANSLATE_KEYS})
                }
    return out


def _pipeline_reference(translator, databases, items, tops) -> Dict:
    from repro.eval.judge import judge_chart
    from repro.pipeline import Budget, ExecuteStage, Generator, Pipeline, Router
    from repro.storage.executor import ExecutionCache

    pipeline = Pipeline(
        databases, Generator(translator, model_name=MODEL, max_width=8),
        budget=Budget(k=3, max_rows=1000, repair=True),
        executor=ExecuteStage(cache=ExecutionCache()),
    )
    router = Router()
    questions = sorted(item["question"] for item in items)
    sample = set(questions[::max(1, len(questions) // ROUTE_SAMPLE)])
    out = {}
    for item in items:
        question = item["question"]
        reference = {}
        # the route costs ~30 ms at 153 databases, so on served answers
        # it is checked on a sample; every answer is checked on the
        # server's route
        if tops is None or question in sample:
            routes = [route.to_json() for route in router.route(question, databases)]
            reference["routes"] = common.json_digest(json.loads(json.dumps(routes)))
            top = routes[0]["db"] if routes else None
        if tops is not None:
            top = tops[question]
        result = pipeline.run(question, top)
        body = {**result.to_json(), "judge": [
            {"vis": chart.vis_text, "repaired": chart.repaired,
             **judge_chart(chart.tree, databases[result.db_name]).to_json()}
            for chart in result.charts
        ]}
        reference["answer"] = common.json_digest(_strip(json.loads(json.dumps(body))))
        out[question] = reference
    return out


def sample_digest(name: str, sample: List[dict], answers: Dict) -> str:
    """Digest of the check sample's answers, in sample order."""
    rows = []
    for item in sample:
        answer = answers.get(item["question"]) or {}
        rows.append([item["question"], answer.get("answer"),
                     answer.get("routes") if name == "pipeline_wide" else None])
    return common.json_digest(rows)


def record_expected(name: str) -> Dict[str, str]:
    """Recorded check-sample digests, one per ``seed % CHECK_SEEDS``."""
    workload = WORKLOADS[name]
    fixtures = fixture_mod.ensure()
    out = {}
    for seed in range(CHECK_SEEDS):
        sample = check_items(workload, fixtures, seed)
        out[str(seed)] = sample_digest(
            name, sample, reference_answers(name, fixtures, sample))
    return out


def check_answers(records, reference) -> dict:
    matched = checked = routes_checked = routes_matched = 0
    mismatches = []
    for record in records:
        if not record.ok:
            continue
        expected = reference[record.item["question"]]
        checked += 1
        if record.answer["answer"] == expected["answer"]:
            matched += 1
        elif len(mismatches) < 5:
            mismatches.append(record.item["question"])
        if "routes" in expected:
            routes_checked += 1
            routes_matched += record.answer["routes"] == expected["routes"]
    return {
        "answer_match": matched / checked if checked else 0.0,
        "answers_checked": checked,
        "routes_checked": routes_checked,
        "routes_matched": routes_matched,
        "mismatched_questions": mismatches,
    }


# ----- the workload ---------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    fixtures = fixture_mod.ensure()
    work = common.scratch_dir(name)
    try:
        if not trace:
            main = serve_pass(workload, fixtures, work, seed, seconds, LAUNCHES, None)
            traced = None
        else:
            main = serve_pass(workload, fixtures, work, seed, seconds / 2, 1, None)
            traced = serve_pass(workload, fixtures, work, seed, seconds / 2, 1,
                                work / "spans.jsonl")
            traced["spans"] = load_spans(work / "spans.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = [main] + ([traced] if traced else [])
    records = [r for p in passes for r in p["records"]]
    served = [r for r in records if r.ok]
    tops = ({r.item["question"]: r.answer["top"] for r in served}
            if name == "pipeline_wide" else None)
    reference = reference_answers(name, fixtures, [r.item for r in served], tops)
    check = check_answers(records, reference)

    # the check sample against the digest recorded for this seed
    sample = check_items(workload, fixtures, seed)
    recorded = common.load_expected().get(name, {}).get(str(seed % CHECK_SEEDS))
    sample_digests = [
        sample_digest(name, sample, {r.item["question"]: r.answer
                                     for r in p["check"] if r.ok})
        for p in passes
    ]
    recorded_match = recorded is not None and set(sample_digests) == {recorded}

    open_latency = main["open_latency_ms"]
    shutdown_errors = [p["shutdown_error"] for p in passes if p["shutdown_error"]]
    # inputs that ran out, scheduled requests never sent and too few
    # latency samples (for the end-to-end metrics, which a traced run
    # does not report) are failures, not a silently shorter run
    shortfall = sum(p["open"]["shortfall"] for p in passes)
    exhausted = sum(p["exhausted"] for p in passes)
    few_samples = int(not trace and len(open_latency) < MIN_LATENCY_SAMPLES)
    failed = (sum(not r.ok for r in records) + len(shutdown_errors)
              + shortfall + exhausted + few_samples)
    correct = (
        check["answers_checked"] > 0
        and check["answer_match"] == 1.0
        and check["routes_matched"] == check["routes_checked"]
        and recorded_match
    )
    if traced:
        correct = correct and _digest_of(main["records"], traced["records"])
    oks = [r for r in main["records"] if r.ok]
    route_accuracy = (
        sum(r.answer["top"] == r.item["source_db"] for r in oks) / len(oks)
        if name == "pipeline_wide" and oks else None
    )
    details = {
        **check,
        "check_sample": len(sample),
        "check_sample_digest": sample_digests,
        "recorded_digest": recorded,
        "recorded_match": recorded_match,
        "route_accuracy": route_accuracy,
        "requests_per_s": main["requests_per_s"],
        "wall_requests_per_s": main["wall_requests_per_s"],
        "wall_latency_p50_ms": common.percentile(
            [r.latency_s * 1000.0 for r in main["open_records"]], 50),
        "wall_setup_s": common.median(main["wall_setups"]),
        "block_requests_per_s": main["block_requests_per_s"],
        "block_factors": main["block_factors"],
        "block_server_busy": main["block_server_busy"],
        "speed": main["speed"],
        "closed_requests": len(main["closed_records"]),
        "open_requests": len(open_latency),
        "open_scheduled": main["open"]["scheduled"],
        "open_shortfall": shortfall,
        "inputs_exhausted": exhausted,
        "open_rate": main["open"]["rate"],
        "open_achieved_rate": main["open"]["achieved_rate"],
        "open_late_ms_p50": main["open"]["late_ms_p50"],
        "open_late_ms_p95": main["open"]["late_ms_p95"],
        "open_late_ms_max": main["open"]["late_ms_max"],
        "latency_samples": len(open_latency),
        "latency_p90_ms": common.percentile(open_latency, 90),
        "latency_p95_ms": common.percentile(open_latency, 95),
        "setup_samples": main["setups"],
        "errors": [r.error for r in records if not r.ok][:5],
        "shutdown_errors": shutdown_errors,
    }
    metrics = {
        "setup_s": common.median(main["setups"]),
        "peak_rss_mb": main["peak_rss_mb"],
        "throughput_per_s": main["requests_per_s"],
        "latency_p50_ms": common.percentile(open_latency, 50),
    }
    layer_metrics = None
    if traced:
        layer_metrics = layer_report(name, traced)
        details["layer_samples"] = span_counts(traced["spans"])
        # wrappers' added time (spans x calibrated cost, plus parsing each
        # request body for its key) over the server's CPU time
        added = (len(traced["spans"]) * layers.wrapper_cost_s()
                 + len(traced["records"]) * layers.request_key_cost_s(
                     traced["records"][0].item["payload"]))
        layer_metrics["trace.overhead"] = added / traced["server_cpu_s"]
        details["trace_overhead_measured"] = (
            main["requests_per_s"] / traced["requests_per_s"] - 1.0)
        details["trace_overhead_ok"] = (
            layer_metrics["trace.overhead"] <= layers.OVERHEAD_LIMIT)
        if route_accuracy is not None:
            layer_metrics["pipeline.route.accuracy"] = route_accuracy
        details["crosscheck"] = crosscheck(traced)
    return {
        "correct": correct,
        "attempted": len(records) + len(passes),
        "failed": failed,
        "metrics": metrics,
        "layers": layer_metrics,
        "details": details,
    }


def _digest_of(untraced: List, traced: List) -> bool:
    """Traced and untraced passes answered their common questions alike."""
    first = {r.item["question"]: r.answer["answer"] for r in untraced if r.ok}
    second = {r.item["question"]: r.answer["answer"] for r in traced if r.ok}
    common_questions = sorted(set(first) & set(second))
    return bool(common_questions) and common.json_digest(
        [first[q] for q in common_questions]
    ) == common.json_digest([second[q] for q in common_questions])


# ----- per-layer report -----------------------------------------------------


def layer_report(name: str, traced: dict) -> dict:
    index = SpanIndex(traced["spans"])
    wall = traced["wall_s"]
    out: Dict[str, float] = {}

    def p(values, q):
        return common.percentile(values, q) if values else 0.0

    for layer in ("pipeline.route", "pipeline.generate", "pipeline.verify",
                  "pipeline.execute", "pipeline.repair", "eval.judge"):
        out[f"{layer}.busy_ms_p50"] = p(index.per_request_ms(layer), 50)
    out["pipeline.route.busy_ms_p95"] = p(index.per_request_ms("pipeline.route"), 95)
    routes = index.layer("pipeline.route")
    out["pipeline.route.databases_scored"] = (
        sum(s[EXTRA]["dbs"] for s in routes if s[EXTRA]) / len(routes) if routes else 0.0
    )
    verifies = [s for s in index.layer("pipeline.verify") if s[EXTRA]]
    out["pipeline.verify.pass_ratio"] = (
        sum(s[EXTRA]["status"] == "pass" for s in verifies) / len(verifies)
        if verifies else 0.0
    )
    hits, lookups = index.cache_hits(under="pipeline.execute")
    out["pipeline.execute.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    repairs = index.layer("pipeline.repair")
    out["pipeline.repair.success_ratio"] = (
        sum(bool(s[EXTRA] and s[EXTRA]["ok"]) for s in repairs) / len(repairs)
        if repairs else 0.0
    )
    out["serve.render.busy_ms_p50"] = p(index.per_call_ms("serve.render"), 50)
    decodes = index.layer("neural.decode")
    out["neural.decode.busy_ms_p50"] = p(index.per_call_ms("neural.decode"), 50)
    decoded = sum(len(s[EXTRA]["qs"]) for s in decodes if s[EXTRA])
    out["neural.decode.tokens"] = (
        sum(s[EXTRA]["tokens"] for s in decodes if s[EXTRA]) / decoded if decoded else 0.0
    )
    batched = [s for s in decodes if s[PARENT] is None and s[EXTRA]]
    out["serve.batcher.batch_size_mean"] = (
        sum(len(s[EXTRA]["qs"]) for s in batched) / len(batched) if batched else 0.0
    )
    decode_start = {q: s[T0] for s in batched for q in s[EXTRA]["qs"]}
    waits = [
        (decode_start[s[EXTRA]["q"]] - s[T0]) * 1000.0
        for s in index.layer("serve.batcher")
        if s[EXTRA] and s[EXTRA]["q"] in decode_start
    ]
    out["serve.batcher.wait_ms_p50"] = p(waits, 50)

    # HTTP self time: client-seen request time minus the wrapped layers
    # that served the request (its keyed top-level spans)
    served: Dict[str, float] = {}
    for span in index.spans:
        if span[PARENT] is None and span[KEY] is not None:
            served[span[KEY]] = served.get(span[KEY], 0.0) + span[T1] - span[T0]
    http_self = [
        ((r.done - r.sent) - served.get(r.item["question"], 0.0)) * 1000.0
        for r in traced["records"] if r.ok
    ]
    out["serve.http.self_ms_p50"] = p(http_self, 50)
    out["serve.http.self_ms_p50.share"] = (
        sum(http_self) / 1000.0 / CONNECTIONS / wall if wall else 0.0
    )
    for layer, metric in SHARES.items():
        out[f"{metric}.share"] = index.busy_s(layer) / wall
    return out


#: layer → the busy metric whose ``.share`` reports it (serving layers)
SHARES = {
    "pipeline.route": "pipeline.route.busy_ms_p50",
    "pipeline.generate": "pipeline.generate.busy_ms_p50",
    "pipeline.verify": "pipeline.verify.busy_ms_p50",
    "pipeline.execute": "pipeline.execute.busy_ms_p50",
    "pipeline.repair": "pipeline.repair.busy_ms_p50",
    "eval.judge": "eval.judge.busy_ms_p50",
    "serve.render": "serve.render.busy_ms_p50",
    "neural.decode": "neural.decode.busy_ms_p50",
}


def crosscheck(traced: dict) -> dict:
    """The program's own stage timings and /metrics, beside the spans."""
    stages: Dict[str, List[float]] = {}
    for record in traced["records"]:
        if record.ok and record.answer.get("stage_ms"):
            for stage, ms in record.answer["stage_ms"].items():
                stages.setdefault(stage, []).append(ms)
    return {
        "stage_timings_ms_p50": {k: common.median(v) for k, v in stages.items()},
        "server_metrics": traced["server_metrics"],
    }
