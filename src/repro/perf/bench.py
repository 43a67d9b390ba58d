"""The ``repro-experiments perf`` benchmark: kernel + sweep throughput.

Measures the two things the performance work optimizes and records them
to ``BENCH_perf.json``:

* **hot-path throughput** — accesses/sec through
  :meth:`~repro.cache.cache.SetAssociativeCache.access` and the batched
  :meth:`~repro.cache.cache.SetAssociativeCache.access_many`, per
  policy, on a deterministic synthetic stream (60% sequential walk, 40%
  uniform jumps over 4x the cache's line capacity — a mix that misses
  enough to exercise the victim path hard);
* **sweep wall-clock** — one mini-scale policy sweep, serial and at
  each requested ``--workers`` count, through the real
  :func:`~repro.experiments.base.run_policy_sweep` path;
* **online lane** — ops/sec of a single-shard online cache under LRU
  and adaptive at two shard capacities, whose LRU/adaptive ratio shows
  whether the adaptive per-operation cost grows with capacity;
* **front lane** — µs/op of hits through the async serving front over
  a trivial store, with and without a deadline, whose ratio is the
  front's deadline bookkeeping cost (run by the CI gate only, not
  recorded in ``BENCH_perf.json``).

The recorded file also carries the machine context (CPU count, Python
version) because both numbers are meaningless without it; the CI
regression gate (``benchmarks/bench_hotpath.py --quick`` against
``benchmarks/baselines.json``) uses deliberately conservative floors
for exactly that reason.
"""

from __future__ import annotations

import asyncio
import json
import os
import platform
import time
from typing import Dict, List, Optional, Sequence

from repro.cache.cache import SetAssociativeCache
from repro.cache.config import CacheConfig
from repro.perf.kernel import get_default_kernel, kernel_name
from repro.utils.rng import DeterministicRNG

#: Policies timed by the hot-path benchmark: the two cheapest fixed
#: policies (pure kernel cost) and the paper's adaptive policy (kernel
#: plus shadow replays).
HOTPATH_POLICIES = ("lru", "fifo", "adaptive")

#: Default stream length; --quick divides it by 10.
HOTPATH_ACCESSES = 200_000

#: Sweep benchmark coverage: a small, phase-diverse workload subset.
SWEEP_WORKLOADS = ("lucas", "art-1", "ammp", "mcf")

#: Sweep policy specs (label -> simulate_policy kwargs).
SWEEP_SPECS = {
    "LRU": {"policy_kind": "lru"},
    "LFU": {"policy_kind": "lfu"},
    "Adaptive": {"policy_kind": "adaptive"},
}


#: Online lane geometry: per-shard capacities, policies and keystream.
ONLINE_CAPACITIES = (64, 4096)
ONLINE_POLICIES = ("lru", "adaptive")
ONLINE_UNIVERSE = 20_000
ONLINE_OPS = 20_000
ONLINE_SEED = 7

#: Front lane: hits per timed run, distinct keys, its deadline, and
#: timed runs per variant (the best one counts).
FRONT_OPS = 20_000
FRONT_KEYS = 64
FRONT_DEADLINE = 0.1
FRONT_REPEATS = 5


def synthetic_stream(
    accesses: int, config: CacheConfig, seed: int = 7
) -> List[int]:
    """Deterministic byte-address stream for kernel benchmarking.

    60% of references advance a sequential cursor, 40% jump uniformly,
    over a footprint of 4x the cache's line capacity (miss ratio ~0.75
    on the default geometry, so victim selection dominates).
    """
    rng = DeterministicRNG(seed)
    lines = config.num_lines * 4
    line_bytes = config.line_bytes
    addresses = []
    base = 0
    for _ in range(accesses):
        if rng.random() < 0.6:
            base = (base + 1) % lines
        else:
            base = int(rng.random() * lines)
        addresses.append(base * line_bytes)
    return addresses


def bench_hotpath(
    accesses: int = HOTPATH_ACCESSES,
    policies: Sequence[str] = HOTPATH_POLICIES,
    size_kb: int = 64,
    ways: int = 8,
    seed: int = 7,
) -> Dict[str, Dict[str, float]]:
    """Accesses/sec per policy, per entry point.

    Returns ``{policy: {"access_per_sec": ..., "access_many_per_sec":
    ..., "miss_ratio": ...}}``; the miss ratio doubles as a correctness
    canary (both entry points must agree, and the number is pinned by
    the stream's determinism).
    """
    from repro.experiments.base import build_l2_policy

    results: Dict[str, Dict[str, float]] = {}
    for kind in policies:
        config = CacheConfig(size_bytes=size_kb * 1024, ways=ways,
                             line_bytes=64)
        addresses = synthetic_stream(accesses, config, seed=seed)

        cache = SetAssociativeCache(config, build_l2_policy(config, kind))
        access = cache.access
        start = time.perf_counter()
        for address in addresses:
            access(address)
        elapsed = time.perf_counter() - start
        per_call = accesses / elapsed

        # Steady-state measurement: one untimed access_many run on a
        # throwaway cache first, so the batch loop's code object — and,
        # for supported adaptive caches, the generated columnar kernel —
        # is compiled and specialization-warm before the clock starts.
        warm = SetAssociativeCache(config, build_l2_policy(config, kind))
        warm.access_many(addresses)

        batched = SetAssociativeCache(config, build_l2_policy(config, kind))
        kernel = kernel_name(batched, accesses)
        start = time.perf_counter()
        batched.access_many(addresses)
        batched_elapsed = time.perf_counter() - start

        # The per-call loop above always runs scalar, so on columnar
        # caches this doubles as a scalar-vs-kernel miss-count canary.
        if batched.stats.misses != cache.stats.misses:
            raise AssertionError(
                f"access/access_many diverged on {kind}: "
                f"{cache.stats.misses} vs {batched.stats.misses} misses"
            )
        results[kind] = {
            "access_per_sec": round(per_call, 1),
            "access_many_per_sec": round(accesses / batched_elapsed, 1),
            "miss_ratio": round(
                cache.stats.misses / cache.stats.accesses, 6
            ),
            "accesses": accesses,
            "kernel": kernel,
        }
    return results


def bench_online(repeats: int = 3) -> Dict[str, object]:
    """Ops/sec of a single-shard online cache, per capacity and policy.

    A shard is one set with ``capacity`` ways, so victim selection that
    scans the set makes the adaptive cost per miss grow with capacity
    while LRU's stays flat. Each run drives ``zipf_keys(20000, 20000,
    alpha=0.9)`` get-then-put-on-miss through a fresh
    :class:`~repro.online.engine.AdaptiveKVCache` with one shard; the
    best of ``repeats`` runs is kept. ``lru_over_adaptive`` per capacity
    is the ratio that the capacity-independence gate compares.
    """
    from repro.online.engine import AdaptiveKVCache
    from repro.workloads.keystreams import zipf_keys

    keys = zipf_keys(ONLINE_UNIVERSE, ONLINE_OPS, alpha=0.9,
                     seed=ONLINE_SEED)
    rows: Dict[str, Dict[str, object]] = {}
    for capacity in ONLINE_CAPACITIES:
        row: Dict[str, object] = {}
        for kind in ONLINE_POLICIES:
            best = None
            for _ in range(repeats):
                cache = AdaptiveKVCache(
                    capacity_entries=capacity, num_shards=1, policy=kind,
                    seed=ONLINE_SEED,
                )
                get = cache.get
                put = cache.put
                start = time.perf_counter()
                for key in keys:
                    if get(key) is None:
                        put(key, key)
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            stats = cache.stats()
            entry = {
                "ops_per_s": round(ONLINE_OPS / best, 1),
                "hit_ratio": round(stats.hit_ratio, 6),
                "evictions": stats.evictions,
            }
            if kind == "adaptive":
                entry["fallback_evictions"] = (
                    cache.shards[0].policy.fallback_evictions
                )
            row[kind] = entry
        row["lru_over_adaptive"] = round(
            row["lru"]["ops_per_s"] / row["adaptive"]["ops_per_s"], 3
        )
        rows[str(capacity)] = row
    return {
        "ops": ONLINE_OPS,
        "universe": ONLINE_UNIVERSE,
        "alpha": 0.9,
        "num_shards": 1,
        "by_capacity": rows,
    }


class _HitStore:
    """The cheapest store a front can serve: every read hits a dict.

    Stands in for the resilient cache so the front lane times the
    front's own admission, slot and deadline work and nothing below it.
    """

    def __init__(self, keys: int):
        self.values = {key: key for key in range(keys)}

    async def aget_or_compute(self, key, loader, ttl=None,
                              retry_budget=None):
        return self.values[key]

    def serving_fraction(self) -> float:
        return 1.0


def bench_front() -> Dict[str, object]:
    """µs/op of hits through :class:`~repro.serve.front.AsyncServingFront`.

    One task awaits ``FRONT_OPS`` reads in turn through a front over
    :class:`_HitStore` on a fresh real event loop, once without and
    once with a ``FRONT_DEADLINE`` deadline (the serving stack's
    settings otherwise: 8 slots, ``max_pending`` 256). The variants
    alternate and each keeps its best of ``FRONT_REPEATS`` runs.
    ``deadline_overhead`` — with over without — is what the front
    gate compares: both run on the same runner back to back, so the
    ratio does not move with runner speed.
    """
    from repro.serve.front import AsyncServingFront

    keys = [i % FRONT_KEYS for i in range(FRONT_OPS)]
    variants = {"no_deadline": None, "deadline": FRONT_DEADLINE}
    best: Dict[str, float] = {}

    async def drive(front):
        handle = front.handle
        start = time.perf_counter()
        for key in keys:
            await handle(key, None)
        return time.perf_counter() - start

    for _ in range(FRONT_REPEATS):
        for name, deadline in variants.items():
            front = AsyncServingFront(
                _HitStore(FRONT_KEYS), concurrency=8, max_pending=256,
                deadline=deadline,
            )
            loop = asyncio.new_event_loop()
            try:
                elapsed = loop.run_until_complete(drive(front))
            finally:
                loop.close()
            if front.completed != FRONT_OPS:
                raise AssertionError(
                    f"front lane ({name}) completed {front.completed} "
                    f"of {FRONT_OPS} hits"
                )
            best[name] = min(best.get(name, elapsed), elapsed)
    us = {name: best[name] / FRONT_OPS * 1e6 for name in variants}
    return {
        "ops": FRONT_OPS,
        "deadline_s": FRONT_DEADLINE,
        "us_per_op": {name: round(value, 3) for name, value in us.items()},
        "deadline_overhead": round(us["deadline"] / us["no_deadline"], 3),
    }


def bench_sweep(
    workers_counts: Sequence[int] = (1, 4),
    accesses: int = 4000,
    workloads: Sequence[str] = SWEEP_WORKLOADS,
) -> Dict[str, object]:
    """Wall-clock of one mini policy sweep, serial and parallel.

    Each entry re-runs the same deterministic sweep (fresh
    :class:`~repro.experiments.base.WorkloadCache`, no disk trace
    cache, no checkpoint) so the wall-clocks are comparable; the
    results themselves are asserted identical across worker counts.
    """
    from repro.experiments.base import (
        WorkloadCache,
        make_setup,
        run_policy_sweep,
    )
    from repro.experiments.checkpoint import timing_to_dict

    timings: Dict[str, float] = {}
    reference = None
    for workers in workers_counts:
        cache = WorkloadCache(make_setup("mini", accesses=accesses))
        start = time.perf_counter()
        sweep = run_policy_sweep(
            cache, list(workloads), SWEEP_SPECS, workers=workers
        )
        timings[str(workers)] = round(time.perf_counter() - start, 3)
        serialized = {
            name: {label: timing_to_dict(cell)
                   for label, cell in row.items()}
            for name, row in sweep.items()
        }
        if reference is None:
            reference = serialized
        elif serialized != reference:
            raise AssertionError(
                f"sweep results at workers={workers} diverged from serial"
            )
    return {
        "wall_clock_sec_by_workers": timings,
        "workloads": list(workloads),
        "policies": list(SWEEP_SPECS),
        "accesses": accesses,
        "results_identical_across_workers": True,
    }


def run_perf(
    path: str = "BENCH_perf.json",
    quick: bool = False,
    workers_counts: Optional[Sequence[int]] = None,
) -> Dict[str, object]:
    """Run both benchmarks and write the report JSON to ``path``.

    Args:
        path: output file; also returned as a dict.
        quick: CI mode — 10x shorter hot-path stream, smaller sweep.
        workers_counts: sweep worker counts to time (default serial
            plus 4, the acceptance configuration).
    """
    if workers_counts is None:
        workers_counts = (1, 4)
    hot_accesses = HOTPATH_ACCESSES // 10 if quick else HOTPATH_ACCESSES
    sweep_accesses = 2000 if quick else 4000
    report: Dict[str, object] = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "quick": quick,
        "kernel_mode": get_default_kernel(),
        "hotpath": bench_hotpath(accesses=hot_accesses),
        "online": bench_online(repeats=1 if quick else 3),
        "sweep": bench_sweep(
            workers_counts=workers_counts, accesses=sweep_accesses
        ),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return report


def render_online(online: Dict[str, object]) -> List[str]:
    """Report lines for a :func:`bench_online` result."""
    lines = [f"online (1 shard, {online['ops']} ops, ops/sec):"]
    for capacity, row in online["by_capacity"].items():
        lines.append(
            f"  capacity {capacity:>5s}   "
            f"lru {row['lru']['ops_per_s']:>10,.0f}   "
            f"adaptive {row['adaptive']['ops_per_s']:>10,.0f}   "
            f"lru/adaptive {row['lru_over_adaptive']:.2f}x"
        )
    return lines


def render_front(front: Dict[str, object]) -> List[str]:
    """Report lines for a :func:`bench_front` result."""
    us = front["us_per_op"]
    return [
        f"front (hits over a trivial store, {front['ops']} ops, us/op):",
        f"  no deadline {us['no_deadline']:>8.2f}   "
        f"deadline {us['deadline']:>8.2f}   "
        f"deadline/no-deadline {front['deadline_overhead']:.2f}x",
    ]


def render_perf(report: Dict[str, object]) -> str:
    """Human-readable summary of a :func:`run_perf` report."""
    lines = [
        f"machine: {report['machine']['cpu_count']} CPU(s), "
        f"Python {report['machine']['python']}",
        f"kernel mode: {report.get('kernel_mode', 'auto')}",
        "hot path (accesses/sec):",
    ]
    for kind, row in sorted(report["hotpath"].items()):
        lines.append(
            f"  {kind:10s} access {row['access_per_sec']:>12,.0f}   "
            f"access_many {row['access_many_per_sec']:>12,.0f}   "
            f"miss ratio {row['miss_ratio']:.3f}   "
            f"kernel {row.get('kernel', 'scalar')}"
        )
    lines.extend(render_online(report["online"]))
    sweep = report["sweep"]
    lines.append(
        f"sweep ({len(sweep['workloads'])} workloads x "
        f"{len(sweep['policies'])} policies, "
        f"{sweep['accesses']} accesses):"
    )
    for workers, seconds in sorted(
        sweep["wall_clock_sec_by_workers"].items(), key=lambda kv: int(kv[0])
    ):
        lines.append(f"  workers={workers:<3s} {seconds:8.3f}s")
    lines.append(
        "results identical across worker counts: "
        f"{sweep['results_identical_across_workers']}"
    )
    return "\n".join(lines)
