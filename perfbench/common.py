"""Measurement helpers shared by every workload: clocks, CPU, memory, stats.

Everything here reads the operating system or the Python runtime, never
the program under test, so a change to ``src/`` cannot change how a
number is taken (set-up timing imports the program in child interpreters,
nothing more).
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional, Sequence

#: Repository checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Message types of the protocol's read and write paths (per-kind counts).
READ_TYPES = ("ReadRequest", "ReadReply", "CompleteRead", "Flush", "FlushAck")
WRITE_TYPES = ("GetTs", "TsReply", "WriteRequest", "WriteAck", "WriteNack")


def interpreter_start_s(modules: Sequence[str], repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter that imports ``modules``.

    The process-start share of set-up time (interpreter start plus the
    program's imports), measured ``repeats`` times in child interpreters
    so that its median, not one cold or warm sample, is reported.
    """
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); " + "; ".join(
        f"import {module}" for module in modules
    )
    durations = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcQuiet:
    """Collect and freeze before a timed section; no collector pauses inside.

    The discipline the repository's own load generators use, so a timing
    measures the code under test rather than when the collector ran.
    """

    def __enter__(self) -> None:
        self._prev = gc.get_threshold()
        gc.collect()
        gc.freeze()
        gc.set_threshold(200_000, 100, 100)

    def __exit__(self, *exc: Any) -> None:
        gc.set_threshold(*self._prev)
        gc.unfreeze()
        gc.collect()


class Blocks:
    """A measured window cut into equal blocks of completed work.

    Each finished operation appends ``(is_read, latency_s)`` to
    :attr:`samples` (``latency_s`` is ``None`` for a failed one) and the
    load loop calls :meth:`mark` at every block boundary, sampling wall and
    CPU clocks. Throughput, CPU per operation and latency percentiles are
    computed per block and reported as their median over blocks, so a
    slow phase of a shared machine that covers a minority of the blocks
    does not move them. An interval in which no operation finished is a
    pause between blocks (the load was stopped), not a block.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[bool, Optional[float]]] = []
        self.marks: list[tuple[float, float, int]] = []

    def mark(self) -> None:
        self.marks.append((time.perf_counter(), time.process_time(), len(self.samples)))

    def latencies(self, reads: bool) -> list[float]:
        return [
            lat for is_read, lat in self.samples if is_read is reads and lat is not None
        ]

    def intervals(self) -> list[tuple[tuple[float, float, int], tuple[float, float, int]]]:
        """(start mark, end mark) of every block, pauses left out."""
        return [(a, b) for a, b in zip(self.marks, self.marks[1:]) if b[2] > a[2]]

    def medians(self) -> dict[str, float]:
        per_block: dict[str, list[float]] = {}
        for (t0, c0, i0), (t1, c1, i1) in self.intervals():
            block = self.samples[i0:i1]
            done = sum(lat is not None for _, lat in block)
            reads = sorted(lat for r, lat in block if r and lat is not None)
            writes = sorted(lat for r, lat in block if not r and lat is not None)
            rows = {
                "ops_per_s": done / (t1 - t0),
                "cpu_us_per_op": (c1 - c0) / done * 1e6,
                "read_p50_ms": percentile(reads, 0.50) * 1e3,
                "read_p90_ms": percentile(reads, 0.90) * 1e3,
                "write_p50_ms": percentile(writes, 0.50) * 1e3,
                "write_p90_ms": percentile(writes, 0.90) * 1e3,
            }
            for name, value in rows.items():
                per_block.setdefault(name, []).append(value)
        return {name: statistics.median(vals) for name, vals in per_block.items()}


def percentile(sorted_samples: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile of an already sorted sequence."""
    if not sorted_samples:
        raise ValueError("percentile of no samples")
    pos = q * (len(sorted_samples) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_samples) - 1)
    frac = pos - lo
    return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: a machine-speed diagnostic.

    Recorded beside every result (never as a metric) so a reader can tell
    a slower machine from a slower program. Median of three passes.
    """
    passes = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(200_000):
            acc += i * i % 7
            table[i & 1023] = acc
        passes.append(time.perf_counter() - start)
    return statistics.median(passes)


def source_digest() -> str:
    """Content hash of ``src/`` (identifies the code where no git metadata is)."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git`` directly (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None
