"""Workload ``serve-hot-rw``: a hit-dominated, write-heavy closed loop
through the serving stack on a real asyncio loop.

Two client coroutines drive ``AsyncServingFront`` (the steady regime's
concurrency 8, ``max_pending`` 256, 0.1 s deadline and 32-token retry
budget, ``service_time=0``) over ``ResilientKVCache`` over
``PersistentKVCache`` (default cadences) over an ``AdaptiveKVCache`` of
8 shards x 64 entries. Traffic is YCSB-A (50% reads, 50% updates) with
Zipf 0.99 over 384 keys, so victim selection almost never runs: the
cost is the front, the resilient ladder, the WAL and the engine's hit
and update paths.

The loop is closed because in-process callers wait for each reply; an
open loop on a real event loop is not repeatable (its generator runs
late by up to the timer granularity). After the measured phase the
benchmark runs the stream on until just before a snapshot rotation,
``sync()``s, drops the stack without ``close()`` and times
``live_recover`` plus ``step()`` until every shard serves, so replay
covers one full snapshot interval of WAL.
"""

from __future__ import annotations

import asyncio
import contextlib
import shutil
import time
from dataclasses import asdict, dataclass
from statistics import median
from typing import Optional

from perfbench.common import (
    Checks,
    CountedFsync,
    HostSpeed,
    KeyStream,
    ScratchDir,
    Stopwatch,
    filesystem_type,
    scaled_median,
    timed_repeats,
    WalBytes,
    online_layer_metrics,
    timed_setups,
    window_metrics,
)
from perfbench.spans import Recorder, current_op
from repro.online.engine import AdaptiveKVCache
from repro.online.liverecovery import live_recover
from repro.online.persistence import PersistentKVCache, kv_stats_digest
from repro.online.resilience import (
    CircuitBreaker,
    ResilientKVCache,
    RetryBudget,
    RetryPolicy,
)
from repro.serve.front import AsyncServingFront
from repro.serve.stack import backend_value


#: Fixed workload parameters (recorded in each result's settings block).
SHARDS = 8
ALPHA = 0.99
READ_FRACTION = 0.5
CLIENTS = 2
CONCURRENCY = 8
MAX_PENDING = 256
DEADLINE = 0.1
RETRY_TOKENS = 32
RETRY_ATTEMPTS = 3
RETRY_BACKOFF = 0.005
BREAKER_THRESHOLD = 5
BREAKER_TIMEOUT = 0.5
WAL_FLUSH_OPS = 64
REPLAY_CHUNK_OPS = 256
#: Ops per timed piece of set-up (a reference burst runs between pieces).
PIECE_OPS = 1000


@dataclass(frozen=True)
class Params:
    """Workload scale; the defaults are the benchmark's."""

    capacity: int = 512
    universe: int = 384
    snapshot_every: int = 10_000
    warmup_ops: int = 20_000
    setup_repeats: int = 5
    recover_repeats: int = 15


def all_params(params: Params) -> dict:
    """Every workload parameter: the scale and the fixed ones."""
    return {
        **asdict(params),
        "shards": SHARDS, "alpha": ALPHA, "read_fraction": READ_FRACTION,
        "clients": CLIENTS, "concurrency": CONCURRENCY,
        "max_pending": MAX_PENDING, "deadline": DEADLINE,
        "retry_tokens": RETRY_TOKENS, "retry_attempts": RETRY_ATTEMPTS,
        "retry_backoff": RETRY_BACKOFF,
        "breaker_threshold": BREAKER_THRESHOLD,
        "breaker_timeout": BREAKER_TIMEOUT,
        "wal_flush_ops": WAL_FLUSH_OPS, "replay_chunk_ops": REPLAY_CHUNK_OPS,
    }


def _load(key):
    """The deterministic backend of a key never written, no delay."""
    return backend_value(key)


def crash_image(directory: str, copy: str) -> None:
    """Copy a dropped stack's persistence directory for one recovery."""
    shutil.copytree(directory, copy)


class Stack:
    """One built serving stack, its client streams and outcome ledger.

    Every write stores a value of its own, ``(backend_value(key), id)``
    with ids counting up from 1, into the stack and into a write-through
    model of the backend that read misses load from. A read is correct
    when it returns the value of the last write to its key acknowledged
    before the read began, or of a later one.
    """

    def __init__(self, params: Params, seed: int, directory: str):
        self.params = params
        self.directory = directory
        self.engine = AdaptiveKVCache(
            capacity_entries=params.capacity,
            num_shards=SHARDS,
            seed=seed,
        )
        self.persistent = PersistentKVCache(
            self.engine,
            directory,
            snapshot_every=params.snapshot_every,
            wal_flush_ops=WAL_FLUSH_OPS,
        )
        self.resilient = ResilientKVCache(
            self.persistent,
            retry=RetryPolicy(
                attempts=RETRY_ATTEMPTS,
                backoff=RETRY_BACKOFF,
                budget=DEADLINE,
            ),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=BREAKER_THRESHOLD,
                recovery_timeout=BREAKER_TIMEOUT,
            ),
        )
        self.front = AsyncServingFront(
            self.resilient,
            concurrency=CONCURRENCY,
            max_pending=MAX_PENDING,
            deadline=DEADLINE,
            retry_budget=RetryBudget(RETRY_TOKENS),
            service_time=0.0,
        )
        self.streams = [
            KeyStream(seed * 1000 + client, params.universe, ALPHA,
                      READ_FRACTION)
            for client in range(CLIENTS)
        ]
        self.loader = self.load
        self.attempted = 0
        self.failed = 0
        self.writes = 0
        #: The latest value written per key.
        self.backend: dict = {}
        #: Id of the last acknowledged write per key.
        self.acked: dict = {}

    def load(self, key):
        """The read-through loader: the latest write, else the backend."""
        value = self.backend.get(key)
        return value if value is not None else _load(key)

    def new_write(self, key) -> tuple:
        """The next write's value for ``key``, recorded in the backend."""
        self.writes += 1
        value = (backend_value(key), self.writes)
        self.backend[key] = value
        return value

    def acknowledge(self, key, value: tuple) -> None:
        """Record that the write of ``value`` to ``key`` completed."""
        self.acked[key] = max(self.acked.get(key, 0), value[1])

    def read_ok(self, key, value, acked_before: int) -> bool:
        """Whether a read of ``key`` begun when write ``acked_before``
        (0: none) was its last acknowledged one may return ``value``."""
        if value == backend_value(key):
            return acked_before == 0
        return (isinstance(value, tuple) and len(value) == 2
                and value[0] == backend_value(key)
                and acked_before <= value[1] <= self.writes)

    async def one_op(self, client: int) -> None:
        """Issue client ``client``'s next op; count it and any failure."""
        is_read, key = next(self.streams[client])
        self.attempted += 1
        try:
            if is_read:
                acked_before = self.acked.get(key, 0)
                value = await self.front.handle(key, self.loader)
                if not self.read_ok(key, value, acked_before):
                    self.failed += 1
            else:
                value = self.new_write(key)
                await self.front.write(key, value)
                self.acknowledge(key, value)
        except Exception:  # noqa: BLE001 - every refusal is a failed op
            self.failed += 1

    async def run_ops(self, count: int) -> None:
        """``count`` ops per client, all clients concurrently."""
        async def client(index):
            for _ in range(count):
                await self.one_op(index)
        await asyncio.gather(*(client(i) for i in range(len(self.streams))))

    def counters(self) -> dict:
        """Cumulative counters the metrics are deltas of."""
        stats = self.engine.stats()
        return {
            "gets": stats.gets,
            "hits": stats.hits,
            "evictions": stats.evictions,
            "stale_hits": stats.stale_hits,
            "snapshots": self.persistent.snapshots_taken,
            "shed": self.front.shed,
            "timeouts": self.front.timeouts,
            "breaker_trips": sum(b.trips for b in self.resilient.breakers),
        }


def _build(params: Params, seed: int, directory: str,
           loop: asyncio.AbstractEventLoop, watch: Stopwatch,
           recorder: Optional[Recorder] = None) -> Stack:
    """Build the stack and warm it up through the front, in pieces of
    ``PIECE_OPS`` ops timed by ``watch``."""
    stack = watch(Stack, params, seed, directory)
    if recorder is not None:
        _instrument(stack, recorder)
    for done in range(0, params.warmup_ops, PIECE_OPS):
        piece = min(PIECE_OPS, params.warmup_ops - done)
        watch(loop.run_until_complete, stack.run_ops(piece // CLIENTS))
    return stack


def _instrument(stack: Stack, recorder: Recorder) -> None:
    """Wrap every layer of the stack in spans; count loader retries."""
    for name in ("handle", "write"):
        recorder.wrap(stack.front, name, "serve.front")
    for name in ("aget_or_compute", "put"):
        recorder.wrap(stack.resilient, name, "online.resilience")
    for name in ("get", "put"):
        recorder.wrap(stack.persistent, name, "online.persistence")
        recorder.wrap(stack.engine, name, "online.engine")
    for shard in stack.engine.shards:
        for name in ("get", "put"):
            recorder.wrap(shard, name, "online.shard")
        recorder.wrap(shard.policy, "victim", "core.adaptive.victim")
        recorder.wrap(shard.policy, "observe", "core.adaptive.observe")
    calls = stack.loader_calls = {}
    load = stack.loader

    def counted_load(key):
        op = current_op()
        calls[op] = calls.get(op, 0) + 1
        return load(key)

    stack.loader = counted_load


#: Measured-phase window; a reference burst runs between windows. Short
#: windows let each one's tail be scaled by the host speed around it.
WINDOW_S = 0.05


async def _closed_loop(stack: Stack, seconds: float, latencies: list,
                       recorder: Optional[Recorder]) -> None:
    """Each client issues its next op as soon as the last completes."""
    record = latencies.append
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    bookkeeping = recorder.client if recorder is not None else (
        contextlib.nullcontext
    )

    async def client(index):
        one_op = stack.one_op
        now = clock()
        while now < deadline:
            with bookkeeping():
                if recorder is not None:
                    recorder.set_op(stack.attempted)
                t0 = clock()
            await one_op(index)
            with bookkeeping():
                now = clock()
                record(now - t0)

    await asyncio.gather(*(client(i) for i in range(len(stack.streams))))


def _measure(stack: Stack, seconds: float, loop, speed: HostSpeed,
             recorder: Optional[Recorder] = None) -> dict:
    """Closed-loop windows of ``WINDOW_S`` until ``seconds`` of them."""
    before = stack.counters()
    attempted, failed = stack.attempted, stack.failed
    windows = []
    speed.sample()
    for _ in range(max(1, round(seconds / WINDOW_S))):
        latencies: list = []
        ops = stack.attempted
        t0 = time.perf_counter_ns()
        loop.run_until_complete(
            _closed_loop(stack, WINDOW_S, latencies, recorder)
        )
        windows.append((stack.attempted - ops, time.perf_counter_ns() - t0,
                        latencies))
        speed.sample()
    after = stack.counters()
    delta = {k: after[k] - before[k] for k in after}
    result = window_metrics(windows, speed)
    result.update(
        ops=stack.attempted - attempted,
        failed=stack.failed - failed,
        hit_ratio=delta["hits"] / delta["gets"],
        delta=delta,
    )
    return result


def _crash_point(stack: Stack) -> None:
    """Run client 0's stream on, straight into the persistent layer,
    until just before a snapshot rotation; then sync.

    Every op logs one WAL record, so after the next rotation
    ``snapshot_every - 2`` more ops leave the newest WAL one or two
    records short of the following rotation.
    """
    persistent = stack.persistent
    stream = stack.streams[0]

    def one_op():
        is_read, key = next(stream)
        stack.attempted += 1
        if is_read:
            acked_before = stack.acked.get(key, 0)
            value = persistent.get_or_compute(key, stack.load)
            if not stack.read_ok(key, value, acked_before):
                stack.failed += 1
        else:
            value = stack.new_write(key)
            persistent.put(key, value)
            stack.acknowledge(key, value)

    rotations = persistent.snapshots_taken
    while persistent.snapshots_taken == rotations:
        one_op()
    for _ in range(stack.params.snapshot_every - 2):
        one_op()
    persistent.sync()


def _recover(directory: str, params: Params, checks: Checks,
             digest: str, expected: dict, scratch: ScratchDir,
             speed: HostSpeed, recorder: Optional[Recorder] = None) -> tuple:
    """Raw seconds from ``live_recover`` to every shard serving, per
    repeat, and the first recovery's replay progress.

    ``expected`` maps every key written to its last acknowledged value
    if it was resident at the crash, else to None (absent).
    """
    images = [scratch.sub(f"image-{i}") for i in range(params.recover_repeats)]
    for image in images:
        crash_image(directory, image)
    recovered = []

    def recover(index):
        live = live_recover(images[index], chunk_ops=REPLAY_CHUNK_OPS,
                            snapshot_every=params.snapshot_every,
                            wal_flush_ops=WAL_FLUSH_OPS)
        if recorder is not None:
            recorder.wrap(live, "step", "online.liverecovery.step")
        while live.recovering:
            live.step()
        recovered.append(live)

    times = timed_repeats(params.recover_repeats, recover, speed)
    progress = recovered[0].replay_progress()
    for index, live in enumerate(recovered):
        checks.check(
            kv_stats_digest(live.stats()) == digest,
            "live-recovered stats digest differs from the pre-crash one",
        )
        if index == 0:
            lost = [key for key, value in expected.items()
                    if live.get(key) != value]
            checks.check(
                not lost,
                f"{len(lost)} acknowledged writes did not read back "
                "their last value",
            )
        live.close()
    for image in images:
        shutil.rmtree(image, ignore_errors=True)
    return times, progress


def _crash_and_recover(stack: Stack, params: Params, checks: Checks,
                       scratch: ScratchDir, speed: HostSpeed,
                       recorder: Optional[Recorder] = None) -> tuple:
    _crash_point(stack)
    digest = kv_stats_digest(stack.persistent.stats())
    expected = {key: stack.backend[key] if key in stack.engine else None
                for key in stack.acked}
    directory = stack.directory
    # Drop the stack without close(): whatever sync() made durable is
    # all the recovery gets.
    stack.engine = stack.persistent = stack.resilient = stack.front = None
    return _recover(directory, params, checks, digest, expected, scratch,
                    speed, recorder)


def _settings(params: Params, seed: int, directory: str) -> dict:
    return {
        "seed": seed,
        "params": all_params(params),
        "engine_policy": "adaptive(lru+lfu), partial_bits=16",
        "snapshot_every": params.snapshot_every,
        "wal_flush_ops": WAL_FLUSH_OPS,
        "replay_chunk_ops": REPLAY_CHUNK_OPS,
        "persistence_fs": filesystem_type(directory),
        "fsync": "counted, not issued (see CountedFsync)",
    }


def run(seed: int, seconds: float, params: Params = Params()) -> dict:
    """Untraced run: the end-to-end metrics."""
    checks = Checks()
    speeds = {phase: HostSpeed() for phase in ("setup", "measure", "recover")}
    loop = asyncio.new_event_loop()
    try:
        with ScratchDir("serve-hot-rw") as scratch:
            setup_raw, setup_times, stack = timed_setups(
                params.setup_repeats,
                lambda i, watch: _build(params, seed,
                                        scratch.sub(f"stack-{i}"), loop,
                                        watch),
                lambda old: old.persistent.close(),
                speeds["setup"],
            )
            result = _measure(stack, seconds, loop, speeds["measure"])
            recover_times, _ = _crash_and_recover(stack, params, checks,
                                                  scratch, speeds["recover"])
            checks.ops(stack.attempted, stack.failed, "served ops")
            settings = _settings(params, seed, scratch.path)
    finally:
        loop.close()
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": result["ops_per_s"],
        "op_p50_us": result["op_p50_us"],
        "op_p99_us": result["op_p99_us"],
        "hit_ratio": result["hit_ratio"],
        "recover_s": scaled_median(recover_times, speeds["recover"]),
    }
    info = {
        "ops": result["ops"],
        "windows": result["windows"],
        "latency_samples": result["latency_samples"],
        "raw": {"setup_s": median(setup_raw),
                "ops_per_s": result["raw_ops_per_s"],
                "op_p50_us": result["raw_op_p50_us"],
                "op_p99_us": result["raw_op_p99_us"],
                "recover_s": median(recover_times)},
        "reference_ns": {p: s.context() for p, s in speeds.items()},
    }
    return {"metrics": metrics, "info": info, "checks": checks,
            "settings": settings}


def run_traced(seed: int, seconds: float, recorder: Recorder,
               fsync: CountedFsync, params: Params = Params()) -> dict:
    """Traced run: per-layer counters, plus the untraced rate it costs."""
    checks = Checks()
    wal = WalBytes()
    loop = asyncio.new_event_loop()
    try:
        with ScratchDir("serve-hot-rw") as scratch:
            plain = _build(params, seed, scratch.sub("plain"), loop,
                           Stopwatch(HostSpeed()))
            untraced = _measure(plain, seconds, loop, HostSpeed())
            plain.persistent.close()
            checks.ops(plain.attempted, plain.failed, "untraced ops")

            recorder.set_phase("setup")
            stack = _build(params, seed, scratch.sub("traced"), loop,
                           Stopwatch(HostSpeed()), recorder)
            recorder.set_phase("measure")
            stack.loader_calls.clear()  # count the measured ops only
            wal.install(recorder)
            try:
                fsyncs = fsync.calls
                result = _measure(stack, seconds, loop, HostSpeed(),
                                  recorder)
                fsyncs = fsync.calls - fsyncs
            finally:
                recorder.unwrap_all()
            loader_calls = stack.loader_calls
            recorder.set_phase("recover")
            _, progress = _crash_and_recover(stack, params, checks, scratch,
                                             HostSpeed(), recorder)
            checks.ops(stack.attempted, stack.failed, "traced ops")
            settings = _settings(params, seed, scratch.path)
    finally:
        loop.close()

    totals = recorder.totals("measure")
    recovery = recorder.totals("recover")
    ops = result["ops"]
    delta = result["delta"]

    def self_us_per_op(layer):
        return totals[layer]["self_ns"] / 1000.0 / ops

    steps = recovery["online.liverecovery.step"]
    layer = online_layer_metrics(totals, ops, delta, wal.bytes, fsyncs)
    layer.update({
        "online.liverecovery.step_calls":
            steps["calls"] / params.recover_repeats,
        "online.liverecovery.records_per_s":
            progress["applied_records"] * params.recover_repeats
            / (steps["total_ns"] / 1e9),
        "online.resilience.self_us_per_op":
            self_us_per_op("online.resilience"),
        "online.resilience.retries":
            sum(count - 1 for count in loader_calls.values()),
        "online.resilience.stale_serves": delta["stale_hits"],
        "online.resilience.breaker_trips": delta["breaker_trips"],
        "serve.front.self_us_per_op": self_us_per_op("serve.front"),
        "serve.front.shed": delta["shed"],
        "serve.front.timeouts": delta["timeouts"],
    })
    return {
        "layer": layer,
        "untraced_ops_per_s": untraced["ops_per_s"],
        "traced_ops_per_s": result["ops_per_s"],
        "checks": checks,
        "settings": settings,
    }
