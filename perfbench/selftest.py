"""Self-test of the benchmark's own checks and load generator.

    python3 perfbench/selftest.py

1. A corrupted serving answer is caught by the in-process answer
   comparison and by the recorded check-sample digest.
2. A corrupted shard is caught by the build digest check.
3. A training curve off by more than the tolerance is caught by the
   recorded-curve check.
4. Against a stub server that stalls once, the open loop charges the
   stall to the requests queued behind it (latency from due time),
   where timing from send time would not.
5. An open loop that runs out of inputs reports the requests it never
   sent.

Exits non-zero if any check fails.
"""

from __future__ import annotations

import http.server
import shutil
import sys
import threading
import time

import common


class CheckFailed(Exception):
    pass


def _require(condition, detail) -> None:
    if not condition:
        raise CheckFailed(detail)


def corrupted_answer_is_caught() -> str:
    import fixtures as fixture_mod
    import wl_serve
    from loadgen import Record

    fixtures = fixture_mod.ensure()
    workload = wl_serve.WORKLOADS["translate_narrow"]
    items = wl_serve.check_items(workload, fixtures, 0)
    # answers as the server would send them: the library's own output
    reference = wl_serve.reference_answers("translate_narrow", fixtures, items)
    recorded = common.load_expected()["translate_narrow"]["0"]
    _require(wl_serve.sample_digest("translate_narrow", items, reference) == recorded,
             "clean answers do not match their record")
    records = [
        Record(item, None, 0.0, 0.0, 200, dict(reference[item["question"]]), None)
        for item in items
    ]
    clean = wl_serve.check_answers(records, reference)
    _require(clean["answer_match"] == 1.0, clean)
    body = {"question": items[0]["question"], "db": items[0]["source_db"],
            "tokens": ["visualize", "pie"], "vis": None, "error": None,
            "spec": None, "render_error": None}
    records[0] = Record(items[0], None, 0.0, 0.0, 200, workload.extract(body), None)
    broken = wl_serve.check_answers(records, reference)
    share = (len(items) - 1) / len(items)
    _require(broken["answer_match"] == share, broken)
    _require(broken["mismatched_questions"] == [items[0]["question"]], broken)
    served = {r.item["question"]: r.answer for r in records}
    _require(wl_serve.sample_digest("translate_narrow", items, served) != recorded,
             "corrupted answer matches the recorded digest")
    return (f"corrupted answer: answer_match 1.0 -> {share:.3f}, question named, "
            "recorded check-sample digest differs")


def corrupted_shard_is_caught() -> str:
    import wl_build
    from repro.core.nvbench import paper_scale_config
    from speed import SpeedTrack

    work = common.scratch_dir("selftest")
    try:
        built = wl_build.timed_build(paper_scale_config(seed=0), work / "out",
                                     SpeedTrack())
        expected = wl_build.recorded_digests()["0"]
        _require(built["digest"] == expected, "clean build does not match its record")
        shard = sorted((work / "out" / "shards").glob("*.jsonl"))[0]
        data = bytearray(shard.read_bytes())
        data[len(data) // 2] ^= 0x01
        shard.write_bytes(bytes(data))
        corrupted = common.tree_digest(work / "out", ["shards", "corpus"])
        _require(corrupted != expected, "flipped byte not detected")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return f"corrupted shard: one flipped bit in {shard.name} changes the digest"


def perturbed_curve_is_caught() -> str:
    import wl_train

    recorded = common.load_expected()["train"]["0"]
    curve = (list(recorded["train"]), list(recorded["val"]))
    _require(wl_train.matches_recorded(curve, recorded), "recorded curve rejected")
    curve[1][-1] *= 1 + 10 * wl_train.CURVE_TOLERANCE
    _require(not wl_train.matches_recorded(curve, recorded), "perturbed curve accepted")
    return (f"perturbed curve: final val loss off by {10 * wl_train.CURVE_TOLERANCE:g}"
            " (relative) is rejected")


def _stub_server(stall_at: int, stall_s: float, service_s: float):
    """A one-at-a-time HTTP server that stalls once, at request *stall_at*."""
    lock = threading.Lock()
    stalled = {"at": None}

    class Handler(http.server.BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            with lock:  # one request at a time, like a single-threaded server
                if self.server.requests == stall_at:
                    stalled["at"] = time.perf_counter()
                    time.sleep(stall_s)
                self.server.requests += 1
                time.sleep(service_s)
            body = b'{"ok": true}'
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.requests = 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread, stalled


def _open_loop_against_stub(items, rate, seconds, stall_at=-1, stall_s=0.0):
    import loadgen

    server, thread, stalled = _stub_server(stall_at, stall_s, 0.002)
    try:
        result = loadgen.open_loop("127.0.0.1", server.server_address[1], "/x",
                                   items, 2, rate, seconds, lambda body: body)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(10)
    return result, stalled


def stall_shows_in_open_loop_latency() -> str:
    stall_s, rate = 0.5, 40.0
    items = iter({"payload": {"i": i}} for i in range(1000))
    result, stalled = _open_loop_against_stub(items, rate, 2.0, 10, stall_s)
    start, end = stalled["at"], stalled["at"] + stall_s
    queued = sorted((r for r in result["records"] if start < r.due < end - 0.05),
                    key=lambda r: r.due)
    _require(len(queued) >= 10, f"only {len(queued)} requests fell in the stall")
    for record in queued:
        _require(record.ok, record.error)
        owed = end - record.due
        _require(record.latency_s >= owed - 0.01, (record.latency_s, owed))
    # the first queued request was sent on time and waited in the server;
    # the rest waited in the generator, so their send-time latency is short
    from_send = max(r.done - r.sent for r in queued[2:])
    _require(from_send < stall_s / 2, from_send)
    _require(result["late_ms_max"] > stall_s * 1000 / 2, result["late_ms_max"])
    return (f"stall: {len(queued)} requests due during a {stall_s * 1000:.0f} ms stall "
            f"carry it (max latency from due "
            f"{max(r.latency_s for r in queued) * 1000:.0f} ms; from send at most "
            f"{from_send * 1000:.0f} ms; generator ran up to "
            f"{result['late_ms_max']:.0f} ms late)")


def running_out_of_inputs_is_reported() -> str:
    items = iter({"payload": {"i": i}} for i in range(5))
    result, _ = _open_loop_against_stub(items, 40.0, 1.0)
    _require(result["exhausted"], result)
    _require(result["shortfall"] == result["scheduled"] - 5 > 0, result)
    return (f"inputs ran out: {result['shortfall']} of {result['scheduled']} "
            "scheduled requests reported unsent")


def main() -> int:
    common.require_program()
    failures = 0
    for check in (corrupted_answer_is_caught, corrupted_shard_is_caught,
                  perturbed_curve_is_caught, stall_shows_in_open_loop_latency,
                  running_out_of_inputs_is_reported):
        try:
            print("PASS", check())
        except CheckFailed as exc:
            failures += 1
            print("FAIL", check.__name__, exc)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
