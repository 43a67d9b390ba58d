"""Shared plumbing for the benchmark's workloads.

The scratch directory each run works in (inside the checkout, removed
when the run ends), the seeded key stream, the correctness-check
ledger, the machine block every result carries, the fsync counter, and
the timing helpers: reference bursts that scale raw times to a nominal
host (:class:`HostSpeed`), timed repeats, windowed closed-loop figures
and the per-layer metrics the online workloads share.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

import numpy as np

#: Where runs keep scratch state and write their result and span files,
#: relative to the checkout root.
OUT_DIR = ".perfbench"


def checkout_root() -> str:
    """The checkout the benchmark runs from (parent of ``perfbench/``)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def out_path(*parts: str) -> str:
    """A path under the run-output directory, parents created."""
    path = os.path.join(checkout_root(), OUT_DIR, *parts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


class ScratchDir:
    """A fresh directory under the output directory, removed on exit."""

    def __init__(self, name: str):
        self.path = out_path(f"{name}-{os.getpid()}")

    def __enter__(self) -> "ScratchDir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def sub(self, name: str) -> str:
        """A path inside the scratch directory."""
        return os.path.join(self.path, name)

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted sequence."""
    if not sorted_values:
        raise ValueError("quantile of an empty sample")
    index = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[index]


def latency_summary(latencies_ns: List[int]) -> Dict[str, float]:
    """p50/p99 in microseconds plus the sample count."""
    ordered = sorted(latencies_ns)
    return {
        "p50_us": quantile(ordered, 0.50) / 1000.0,
        "p99_us": quantile(ordered, 0.99) / 1000.0,
        "samples": len(ordered),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Ledger of correctness checks and failed operations.

    Every served operation and every post-run check is one attempt;
    wrong values, exceptions and failed checks are failures. The run is
    correct only when nothing failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        """Account a batch of served operations."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        """Account one post-run check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(f"check failed: {what}")

    @property
    def error_rate(self) -> float:
        """Failed over attempted (0 when nothing was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0


def filesystem_type(path: str) -> str:
    """The filesystem type holding ``path`` (``df`` output), or unknown."""
    try:
        out = subprocess.run(
            ["df", "--output=fstype", path],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out[-1] if len(out) > 1 else "unknown"


def machine_block() -> dict:
    """Host context recorded with every result."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "executable": os.path.basename(sys.executable),
    }


class KeyStream:
    """A seeded YCSB-style stream of ``(is_read, key)`` pairs.

    Keys are Zipf(``alpha``)-ranked over ``universe`` names; each op is
    a read with probability ``read_fraction``, else an update. Drawn in
    numpy chunks from one generator, so the sequence depends only on
    the seed, never on how it is consumed.
    """

    def __init__(self, seed: int, universe: int, alpha: float,
                 read_fraction: float, chunk: int = 1 << 14):
        self._rng = np.random.default_rng(seed)
        weights = np.arange(1, universe + 1, dtype=np.float64) ** -alpha
        self._cdf = np.cumsum(weights) / weights.sum()
        self._names = [f"key:{rank}" for rank in range(universe)]
        self._read_fraction = read_fraction
        self._chunk = chunk
        self._buffer: list = []
        self._position = 0

    def _refill(self) -> None:
        ranks = np.searchsorted(self._cdf, self._rng.random(self._chunk))
        ranks = np.minimum(ranks, len(self._names) - 1)
        reads = self._rng.random(self._chunk) < self._read_fraction
        names = self._names
        self._buffer = [
            (read, names[rank])
            for read, rank in zip(reads.tolist(), ranks.tolist())
        ]
        self._position = 0

    def __iter__(self) -> "KeyStream":
        return self

    def __next__(self) -> tuple:
        if self._position == len(self._buffer):
            self._refill()
        item = self._buffer[self._position]
        self._position += 1
        return item


class CountedFsync:
    """Replaces ``os.fsync`` with a counter for the life of a run.

    The persistence layers fsync on a fixed cadence. On a shared disk a
    device flush takes from a few hundred microseconds to tens of
    milliseconds depending on what other tenants do, which would make
    every latency the benchmark reports a measure of the disk rather
    than of the program. Counting the calls instead (the cost a tmpfs
    directory would give) keeps the program's own work in the timings,
    and ``online.persistence.fsyncs_per_op`` still shows any change in
    how often the program asks for a flush.
    """

    def __init__(self):
        self.calls = 0
        self._real = None

    def _count(self, fd) -> None:
        self.calls += 1

    def __enter__(self) -> "CountedFsync":
        self._real = os.fsync
        os.fsync = self._count
        return self

    def __exit__(self, *exc) -> None:
        os.fsync = self._real


_LOOKUP_TABLE = None


def _reference_lookups() -> int:
    """Random lookups over a table far larger than the CPU caches."""
    global _LOOKUP_TABLE
    if _LOOKUP_TABLE is None:
        _LOOKUP_TABLE = {i: i for i in range(1 << 18)}
    table = _LOOKUP_TABLE
    total = 0
    key = 1
    for _ in range(1500):
        key = (key * 1103515245 + 12345) & ((1 << 18) - 1)
        total += table[key]
    return total


def _reference_calls() -> int:
    """Dict, list and small-object churn behind function calls."""
    table: dict = {}
    recent: list = []
    total = 0
    for i in range(3000):
        key = (i * 7919) & 511
        table[key] = table.get(key, 0) + 1
        recent.append((key, i))
        if len(recent) > 64:
            total += recent.pop(0)[0]
        total += len(str(i))
    return total + len(table)


REFERENCE_KERNELS = {"lookups": _reference_lookups, "calls": _reference_calls}


class HostSpeed:
    """Tracks how fast this host runs fixed slices of interpreter work.

    A shared host drifts between speed regimes (a neighbour loading the
    same physical core slows ours by up to half) for stretches of
    milliseconds to minutes, and every raw timing drifts with them.
    Each phase of a run alternates reference bursts with timed items
    (a burst, item 0, a burst, item 1, ...): measurement windows or
    cells, pieces of a set-up (:class:`Stopwatch`) or recovery repeats.
    :meth:`scale` turns an item's raw time into nominal-host time using
    the two bursts around it. A burst is the geometric mean of two
    kernels' times, one cache-resident and one not, which tracked the
    workloads' own slowdowns more closely than either alone. A change
    to the program moves its raw times and not the reference, so it
    moves the scaled times just as much. Raw values and the
    burst means are kept in every result document.
    """

    #: Burst time on the nominal host: a 2-vCPU VM running CPython 3.11
    #: with its core to itself.
    NOMINAL_NS = 500_000

    def __init__(self):
        self.bursts: List[float] = []
        self.kernel_ns: Dict[str, List[int]] = {
            name: [] for name in REFERENCE_KERNELS
        }
        for kernel in REFERENCE_KERNELS.values():
            kernel()  # untimed: builds the lookup table

    def sample(self) -> None:
        """Time each reference kernel once; record their geometric mean."""
        clock = time.perf_counter_ns
        product = 1.0
        for name, kernel in REFERENCE_KERNELS.items():
            t0 = clock()
            kernel()
            took = clock() - t0
            self.kernel_ns[name].append(took)
            product *= took
        self.bursts.append(product ** (1.0 / len(REFERENCE_KERNELS)))

    def scale(self, index: int, raw: float) -> float:
        """Item ``index``'s raw time in nominal-host time."""
        around = (self.bursts[index] + self.bursts[index + 1]) / 2.0
        return raw * self.NOMINAL_NS / around

    def context(self) -> dict:
        """Mean time per reference kernel, for the result document."""
        return {name: statistics.mean(times)
                for name, times in self.kernel_ns.items() if times}


class Stopwatch:
    """Times a phase run as a sequence of pieces, a reference burst
    after each.

    Each piece is scaled by the bursts on either side of it, as a
    measurement window is, so a phase lasting seconds follows the host's
    speed changes while it runs rather than taking one factor for all of
    it.
    """

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.raw = 0.0
        self.scaled = 0.0
        speed.sample()

    def __call__(self, action, *args):
        """Run ``action(*args)`` as one piece; returns its result."""
        t0 = time.perf_counter()
        result = action(*args)
        took = time.perf_counter() - t0
        self.speed.sample()
        self.raw += took
        self.scaled += self.speed.scale(len(self.speed.bursts) - 2, took)
        return result


def timed_repeats(count: int, action, speed: HostSpeed) -> List[float]:
    """Run ``action(index)`` ``count`` times between reference bursts.

    Returns each run's raw seconds; ``speed.scale(i, ...)`` scales them.
    """
    times = []
    speed.sample()
    for index in range(count):
        t0 = time.perf_counter()
        action(index)
        times.append(time.perf_counter() - t0)
        speed.sample()
    return times


def scaled_median(times: Sequence[float], speed: HostSpeed) -> float:
    """Median of ``times`` after scaling each by its own bursts."""
    return statistics.median(
        speed.scale(index, raw) for index, raw in enumerate(times)
    )


def window_metrics(windows: Sequence[tuple], speed: HostSpeed) -> dict:
    """Throughput and latency of a closed loop measured in windows.

    ``windows`` holds ``(ops, busy_ns, latencies_ns)`` per window, window
    ``i`` run between reference bursts ``i`` and ``i + 1`` of ``speed``;
    each window's times are scaled by those two bursts
    (:meth:`HostSpeed.scale`). The rate is pooled over all windows. The
    percentiles are medians over windows of each window's own
    percentile, so one window caught in a burst of host interference
    cannot move the run's figure.
    """
    ops = sum(w[0] for w in windows)
    raw_busy_s = sum(w[1] for w in windows) / 1e9
    busy_s = sum(speed.scale(i, w[1]) for i, w in enumerate(windows)) / 1e9
    summaries = [latency_summary(w[2]) for w in windows]

    def scaled(key):
        return statistics.median(
            speed.scale(i, s[key]) for i, s in enumerate(summaries))

    return {
        "ops_per_s": ops / busy_s,
        "op_p50_us": scaled("p50_us"),
        "op_p99_us": scaled("p99_us"),
        "raw_ops_per_s": ops / raw_busy_s,
        "raw_op_p50_us": statistics.median(s["p50_us"] for s in summaries),
        "raw_op_p99_us": statistics.median(s["p99_us"] for s in summaries),
        "windows": len(windows),
        "latency_samples": ops,
    }


def online_layer_metrics(totals: dict, ops: int, delta: dict,
                         wal_bytes: int, fsyncs: int) -> dict:
    """The per-layer metrics shared by the online workloads.

    ``totals`` are a traced measure phase's :meth:`Recorder.totals`,
    ``delta`` its counter deltas (``evictions`` and ``snapshots``).
    """
    def self_us_per_op(layer):
        return totals[layer]["self_ns"] / 1000.0 / ops

    def us_per_call(layer):
        return totals[layer]["self_ns"] / 1000.0 / max(1, totals[layer]["calls"])

    return {
        "core.adaptive.victim.calls_per_op":
            totals["core.adaptive.victim"]["calls"] / ops,
        "core.adaptive.victim.us_per_call": us_per_call("core.adaptive.victim"),
        "core.adaptive.observe.us_per_call":
            us_per_call("core.adaptive.observe"),
        "online.shard.self_us_per_op": self_us_per_op("online.shard"),
        "online.shard.evictions_per_op": delta["evictions"] / ops,
        "online.engine.self_us_per_op": self_us_per_op("online.engine"),
        "online.persistence.self_us_per_op":
            self_us_per_op("online.persistence"),
        "online.persistence.wal_bytes_per_op": wal_bytes / ops,
        "online.persistence.fsyncs_per_op": fsyncs / ops,
        "online.persistence.snapshots_per_kop":
            1000.0 * delta["snapshots"] / ops,
    }


class WalBytes:
    """Counts the bytes the persistence layer frames into its WAL.

    :meth:`install` rebinds ``repro.online.persistence.encode_record``
    through a :class:`~perfbench.spans.Recorder`, which puts the real
    one back in :meth:`~perfbench.spans.Recorder.unwrap_all`.
    """

    def __init__(self):
        self.bytes = 0

    def install(self, recorder) -> None:
        """Start counting (until the recorder unwraps)."""
        from repro.online import persistence

        real = persistence.encode_record

        def counting_encode(op):
            frame = real(op)
            self.bytes += len(frame)
            return frame

        recorder.patch(persistence, "encode_record", counting_encode)


def timed_setups(count: int, build, discard, speed: HostSpeed):
    """Build ``count`` times; keep the last.

    ``build(index, watch)`` returns a built stack, doing its work as
    pieces through ``watch``, a fresh :class:`Stopwatch` on ``speed``;
    ``discard(stack)`` releases each earlier one, outside the timing.

    Returns:
        ``(raw_seconds, scaled_seconds, last_stack)``, the times per build.
    """
    raw, scaled = [], []
    stack = None
    for index in range(count):
        if stack is not None:
            discard(stack)
            stack = None
        watch = Stopwatch(speed)
        stack = build(index, watch)
        raw.append(watch.raw)
        scaled.append(watch.scaled)
    return raw, scaled, stack
