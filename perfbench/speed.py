"""Host-speed tracking: time the program at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed moves by
half or more over seconds to minutes (other tenants), so a wall-clock
figure mostly says how busy the host was.  Every workload therefore
interleaves short *marks* with the program's work, on the core that
does the work: each mark times a fixed pure-Python loop.  A stretch of
work is then converted to *reference seconds*: its wall time (marks
taken out) times ``REFERENCE_MS / loop_ms``, where ``loop_ms`` is the
median of the marks around it.  On a steady host this is the wall time
at the speed where the loop takes ``REFERENCE_MS``; when the host slows
the loop down, the program's wall time and the marks grow together, and
their ratio stays.

The build and training workloads take their marks in-process, between
shards and between optimizer steps.  The server is another process, so
its core is sampled by a helper process (``CoreSampler``, this file run
as a script) pinned to that core, which wakes every ``SAMPLE_PERIOD_S``
and takes one mark while the server works beside it; there only the
server's CPU time is scaled (see ``wl_serve``).

The loop never calls the program, so a change to the program moves only
the work, never the marks.  Raw wall-clock figures are kept beside the
scaled ones in every results file.
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

#: iterations of the fixed loop one mark times (about half a millisecond,
#: short enough to finish inside one time slice beside a busy server)
LOOP = 5_000
#: loop time (ms) that defines reference speed: about the loop's median
#: on the 2-core machine the benchmark was tuned on, so scaled figures
#: read like that machine's wall-clock ones
REFERENCE_MS = 0.45
#: seconds between the helper's marks on the server's core
SAMPLE_PERIOD_S = 0.05
#: marks this far (s) around a stretch of work set its speed
WINDOW_S = 0.5
#: when fewer marks fall in the window, the nearest this many do
NEAREST = 6


def loop_ms() -> float:
    """Time (ms) of one run of the fixed loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000.0


class SpeedTrack:
    """Marks taken during a run, and conversion of work to reference time."""

    def __init__(self) -> None:
        #: (start, end, loop ms) of every mark, in time order
        self.marks: List[Tuple[float, float, float]] = []

    def mark(self, repeats: int = 4) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            ms = loop_ms()
            self.marks.append((start, time.perf_counter(), ms))

    def loop_ms_at(self, start: float, end: float, window: float = WINDOW_S) -> float:
        """Median loop time of the marks in ``[start - window, end + window]``."""
        if not self.marks:
            raise RuntimeError("no speed marks were taken")
        mids = [(m[0] + m[1]) / 2 for m in self.marks]
        low = bisect.bisect_left(mids, start - window)
        high = bisect.bisect_right(mids, end + window)
        if high - low < NEAREST:
            # widen around the interval, one nearest mark at a time
            middle = (start + end) / 2
            low = high = bisect.bisect_left(mids, middle)
            while high - low < min(NEAREST, len(mids)):
                if high < len(mids) and (
                        low == 0 or mids[high] - middle < middle - mids[low - 1]):
                    high += 1
                else:
                    low -= 1
        near = sorted(m[2] for m in self.marks[low:high])
        half = len(near) // 2
        return near[half] if len(near) % 2 else (near[half - 1] + near[half]) / 2

    def factor(self, start: float, end: float, window: float = WINDOW_S) -> float:
        """Reference seconds per wall second over ``[start, end]``."""
        return REFERENCE_MS / self.loop_ms_at(start, end, window)

    def scaled_s(self, start: float, end: float) -> float:
        """Reference seconds of the work in ``[start, end]``.

        The interval is cut at the marks inside it; the marks' own time
        is left out and each piece is scaled by the speed around it.
        """
        total = 0.0
        cursor = start
        for m_start, m_end, _ in self.marks:
            if m_end <= cursor or m_start >= end:
                continue
            if m_start > cursor:
                total += (m_start - cursor) * self.factor(cursor, m_start)
            cursor = max(cursor, m_end)
        if end > cursor:
            total += (end - cursor) * self.factor(cursor, end)
        return total

    def summary(self) -> dict:
        """Loop-time quartiles over the run, for the results file."""
        times = sorted(m[2] for m in self.marks)
        if not times:
            return {"marks": 0}
        pick = lambda q: times[min(len(times) - 1, int(q * len(times)))]
        return {"marks": len(times), "loop_ms_p25": pick(0.25),
                "loop_ms_p50": pick(0.5), "loop_ms_p75": pick(0.75),
                "reference_ms": REFERENCE_MS}


class CoreSampler:
    """A helper process that marks *core* every ``SAMPLE_PERIOD_S``.

    ``stop()`` ends it, waits for it, and adds its marks to *track*
    (``time.perf_counter`` is the system-wide monotonic clock, so the two
    processes' times compare); calls after the first do nothing.
    """

    def __init__(self, core: Optional[int], out: Path):
        self.out = out
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(out),
             "" if core is None else str(core)],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        self.stopped = False

    def stop(self, track: SpeedTrack) -> None:
        if self.stopped:
            return
        self.stopped = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(10)
        if self.out.is_file():
            track.marks.extend(tuple(m) for m in json.loads(self.out.read_text()))
            track.marks.sort()


def _sample(out: str, core: str) -> None:
    if core:
        os.sched_setaffinity(0, {int(core)})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    parent = os.getppid()
    track = SpeedTrack()
    try:
        # a parent that died without stopping the helper ends it too
        while os.getppid() == parent:
            time.sleep(SAMPLE_PERIOD_S)
            track.mark(1)
    finally:
        Path(out).write_text(json.dumps(track.marks))


if __name__ == "__main__":
    _sample(*sys.argv[1:3])
