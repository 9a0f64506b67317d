"""Shared helpers for the benchmark: paths, statistics, process facts.

Everything here is stdlib-only so ``run.py`` can fail cleanly (non-zero
exit, no result line) in a directory that holds the benchmark but not
the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: fixtures, scratch build directories and span dumps (git-ignored)
CACHE = ROOT / ".perfbench_cache"
CPUS = sorted(os.sched_getaffinity(0))
#: recorded digests and loss curves the correctness gates compare with;
#: rewritten by ``run.py --record``
EXPECTED = HERE / "expected.json"


class ProgramMissing(RuntimeError):
    """The checkout does not contain the program under test."""


def require_program() -> None:
    """Put ``src/`` on ``sys.path``; raise if the package is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for child processes: the program's sources importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH", "")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def own_core() -> None:
    """``preexec_fn`` for the server: pin it to a core of its own.

    The load generator keeps the other cores, so the two do not take
    each other's time slices.  Set before exec, so numpy sees one CPU at
    import.  Build and training children run alone and are not pinned.
    """
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[-1]})


def run_child(script: str, params: dict, timeout: float) -> dict:
    """Run ``perfbench/<script>`` with *params*; return its JSON reply.

    The child writes its reply to a file (stdout stays free for
    diagnostics); a non-zero exit or a missing reply raises.
    """
    work = scratch_dir("child")
    reply = work / "reply.json"
    params = {**params, "reply": str(reply)}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / script), json.dumps(params)],
            env=child_env(), cwd=str(ROOT), timeout=timeout,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        if proc.returncode != 0 or not reply.is_file():
            raise RuntimeError(
                f"{script} exited {proc.returncode}:\n{proc.stdout[-4000:]}"
            )
        return json.loads(reply.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def scratch_dir(tag: str) -> Path:
    """A fresh, empty directory under the cache for one use."""
    path = CACHE / "work" / f"{tag}-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir(parents=True)
    return path


# ----- statistics ---------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of *values*."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


# ----- process facts ------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` (peak resident set) of *pid* (default: this process)."""
    status = Path(f"/proc/{pid or os.getpid()}/status").read_text()
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


def cpu_s(pid: int) -> float:
    """User + system CPU seconds *pid* has used so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def tree_digest(root: Path, subdirs: Iterable[str]) -> str:
    """sha256 over (relative path, bytes) of every file under *subdirs*."""
    digest = hashlib.sha256()
    for sub in subdirs:
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def json_digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def source_fingerprint() -> str:
    """Hash of the program's sources (identifies a checkout without git)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit_id() -> str:
    """The checkout's git commit, or a source hash when it is not a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), timeout=10,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        out = None
    if out is not None and out.returncode == 0 and out.stdout.strip():
        return out.stdout.strip()
    return "src-" + source_fingerprint()


def run_metadata(seed: int) -> dict:
    import numpy

    return {
        "nproc": len(CPUS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit_id(),
        "seed": seed,
    }
