"""Clocks, memory, the host-drift loop and the environment record."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import threading
from pathlib import Path
from time import perf_counter

import numpy


def cpu_s() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _status_kb(pid, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(key):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass  # the child exited between listing and reading
    return 0


def _children() -> list[str]:
    pids = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += (task / "children").read_text().split()
        except FileNotFoundError:
            pass
    return pids


def own_peak_rss_mb() -> float:
    return _status_kb("self", "VmHWM:") / 1024


class TreeRssSampler:
    """Peak of (own RSS + RSS of live children), sampled every 50 ms
    while the block runs, and never below this process's own peak.

    Forked pool workers share pages with the parent; the sum counts a
    shared page once in every process that maps it, as summing `ps` would.
    """

    def __init__(self, interval_s: float = 0.05):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            kb = _status_kb("self", "VmRSS:") + sum(
                _status_kb(pid, "VmRSS:") for pid in _children())
            self.peak_kb = max(self.peak_kb, kb)
            self._stop.wait(self.interval_s)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    @property
    def peak_mb(self) -> float:
        return max(self.peak_kb / 1024, own_peak_rss_mb())


def ref_loop_ms() -> float:
    """Fixed pure-Python loop; reported beside each run, never used to normalise."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i & 7
    return (perf_counter() - t0) * 1e3


def environment(root: Path) -> dict:
    src_files = sorted((root / "src").rglob("*.py"))
    tree = hashlib.sha256()
    lines = 0
    for f in src_files:
        data = f.read_bytes()
        tree.update(str(f.relative_to(root)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "src_sha256": tree.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }
