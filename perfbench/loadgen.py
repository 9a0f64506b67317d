"""Load generator: one process, at most ``nproc`` keep-alive connections.

Each connection is a thread with its own ``http.client`` connection that
stays open across requests (the server answers ``keep-alive``).  Two
phases:

* **closed loop** — every connection sends its next request as soon as
  the previous reply is read; the completion rate is the throughput;
* **open loop** — request *i* is due at ``start + i / rate`` whatever the
  server does; a connection takes the next due request, sleeps until it
  is due, and its latency is timed **from the due time**, so a stall
  that delays later requests shows in their latency.  How late each
  request went out (``send - due``) is recorded too.

A request that fails or is refused counts as a failure and gets the
client timeout as its latency (it missed any limit).  Both phases report
``exhausted`` when the question iterator ran dry, and the open loop
reports how many scheduled requests it never sent (``shortfall``), so a
run that ran out of inputs is counted as failed, not silently shortened.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Callable, Iterator, List, Optional

import common

CLIENT_TIMEOUT_S = 60.0


class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, host: str, port: int):
        self._conn = http.client.HTTPConnection(host, port, timeout=CLIENT_TIMEOUT_S)

    def post(self, path: str, payload: dict):
        """``(status, parsed body)``; ``(None, error text)`` on a transport failure."""
        body = json.dumps(payload).encode()
        try:
            self._conn.request("POST", path, body, {"Content-Type": "application/json"})
            response = self._conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._conn.close()  # reconnects on the next request
            return None, f"{type(exc).__name__}: {exc}"
        try:
            return response.status, json.loads(data)
        except ValueError:
            return response.status, None

    def get(self, path: str):
        try:
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError) as exc:
            self._conn.close()
            return None, f"{type(exc).__name__}: {exc}"

    def close(self) -> None:
        self._conn.close()


class Record:
    __slots__ = ("item", "due", "sent", "done", "status", "answer", "error")

    def __init__(self, item, due, sent, done, status, answer, error):
        self.item, self.due, self.sent, self.done = item, due, sent, done
        self.status, self.answer, self.error = status, answer, error

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_s(self) -> float:
        """From due time (open loop) or send time (closed loop)."""
        if not self.ok:
            return CLIENT_TIMEOUT_S
        return self.done - (self.due if self.due is not None else self.sent)


def _send(conn: Connection, path: str, item: dict, extract: Callable,
          due: Optional[float]) -> Record:
    sent = time.perf_counter()
    status, body = conn.post(path, item["payload"])
    done = time.perf_counter()
    answer = error = None
    if status == 200 and isinstance(body, dict):
        answer = extract(body)
    else:
        error = body if isinstance(body, str) else json.dumps(body)[:300]
    return Record(item, due, sent, done, status, answer, error)


def closed_loop(host: str, port: int, path: str, items: Iterator[dict],
                connections: int, seconds: float, extract: Callable) -> dict:
    """Send back to back on *connections* for *seconds*."""
    lock = threading.Lock()
    records: List[Record] = []
    exhausted = []
    start = time.perf_counter()
    stop_at = start + seconds

    def worker() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    if time.perf_counter() >= stop_at:
                        return
                    item = next(items, None)
                if item is None:
                    exhausted.append(True)
                    return
                records.append(_send(conn, path, item, extract, None))
        finally:
            conn.close()

    _run_threads(worker, connections)
    end = max((r.done for r in records), default=time.perf_counter())
    completed = sum(r.ok for r in records)
    return {
        "records": records,
        "start": start,
        "end": end,
        "elapsed_s": end - start,
        "requests_per_s": completed / (end - start),
        "exhausted": bool(exhausted),
    }


def open_loop(host: str, port: int, path: str, items: Iterator[dict],
              connections: int, rate: float, seconds: float,
              extract: Callable) -> dict:
    """Send ``rate * seconds`` requests on a fixed schedule."""
    total = max(1, int(round(rate * seconds)))
    lock = threading.Lock()
    records: List[Record] = []
    counter = iter(range(total))
    exhausted = []
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = Connection(host, port)
        try:
            while True:
                with lock:
                    index = next(counter, None)
                    item = next(items, None) if index is not None else None
                    if index is not None and item is None:
                        exhausted.append(True)
                if item is None:
                    return
                due = start + index / rate
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                records.append(_send(conn, path, item, extract, due))
        finally:
            conn.close()

    _run_threads(worker, connections)
    late_ms = [(r.sent - r.due) * 1000.0 for r in records]
    last_sent = max((r.sent for r in records), default=start)
    return {
        "records": records,
        "start": start,
        "end": max((r.done for r in records), default=time.perf_counter()),
        "scheduled": total,
        "shortfall": total - len(records),
        "exhausted": bool(exhausted),
        "rate": rate,
        "achieved_rate": len(records) / max(last_sent - start + 1.0 / rate, 1e-9),
        "late_ms_p50": common.percentile(late_ms, 50),
        "late_ms_p95": common.percentile(late_ms, 95),
        "late_ms_max": max(late_ms, default=0.0),
    }


def _run_threads(worker: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=worker, daemon=True) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CLIENT_TIMEOUT_S * 4)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
