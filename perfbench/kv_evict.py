"""Workload ``kv-evict``: an eviction-heavy closed loop through the
deepest online stack.

One client drives ``client_local_topology`` (a 32-entry LRU local
shard) over a persistent ``ClusterKVCache`` (3 nodes, replication 3,
default cadences) whose members are single-shard adaptive engines of
1024 entries. Traffic is YCSB-B (95% ``get_or_compute`` reads, 5%
``put`` updates) with Zipf 0.9 over 4096 keys, four times a node's
capacity, so about a third of reads miss and every miss runs adaptive
victim selection over 1024 ways on three replicas. Timing starts only
once every node holds a full 1024 entries and a warm-up has run.

The local shard holds 32 entries, not 128: with 128 the local tier
serves about half of all reads (the top 128 of 4096 Zipf-0.9 keys carry
half the mass), so the median op sat on the boundary between local-hit
and cluster-hit latency and flipped between the two from run to run.
At 32 it serves about a third, and the median is a cluster read.

``recover_s`` copies one node's synced directory just before a snapshot
rotation (so its WAL holds nearly a full snapshot interval) and times
rebuilding the node's store from it, as ``recover_from_disk`` does,
averaged over several such crash points.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import asdict, dataclass
from statistics import mean, median
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
from perfbench.spans import Recorder
from repro.cluster.cache import ClusterKVCache, WriteQuorumError
from repro.online.persistence import kv_stats_digest, recover
from repro.serve.stack import backend_value
from repro.tiers.kv import client_local_topology


#: Fixed workload parameters (recorded in each result's settings block).
NODES = 3
REPLICATION = 3
ALPHA = 0.9
READ_FRACTION = 0.95
WAL_FLUSH_OPS = 8
#: Measured ops per requested second of ``--seconds``.
OPS_PER_SECOND = 2000
WINDOW_OPS = 1000
RECOVER_POINTS = 24
MAX_FILL_OPS = 200_000
#: Ops per timed piece of set-up (a reference burst runs between pieces).
PIECE_OPS = 250


@dataclass(frozen=True)
class Params:
    """Workload scale; the defaults are the benchmark's."""

    node_capacity: int = 1024
    local_capacity: int = 32
    universe: int = 4096
    snapshot_every: int = 400
    warmup_ops: int = 4000
    setup_repeats: int = 3
    recover_repeats: int = 3


def all_params(params: Params) -> dict:
    """Every workload parameter: the scale and the fixed ones."""
    return {
        **asdict(params),
        "nodes": NODES, "replication": REPLICATION, "alpha": ALPHA,
        "read_fraction": READ_FRACTION, "wal_flush_ops": WAL_FLUSH_OPS,
        "ops_per_second": OPS_PER_SECOND, "window_ops": WINDOW_OPS,
        "recover_points": RECOVER_POINTS, "max_fill_ops": MAX_FILL_OPS,
    }


def _load(key):
    """The read-through loader: the deterministic backend."""
    return backend_value(key)


class Stack:
    """One built cluster stack and the stream that drives it."""

    def __init__(self, params: Params, seed: int, directory: str):
        self.params = params
        self.cluster = ClusterKVCache(
            num_nodes=NODES,
            replication=REPLICATION,
            capacity_per_node=params.node_capacity,
            seed=seed,
            directory=directory,
            snapshot_every=params.snapshot_every,
            wal_flush_ops=WAL_FLUSH_OPS,
        )
        self.topology = client_local_topology(
            self.cluster,
            local_capacity=params.local_capacity,
            cluster_capacity=params.node_capacity,
            seed=seed,
        )
        self.stream = KeyStream(seed, params.universe, ALPHA, READ_FRACTION)
        self.attempted = 0
        self.failed = 0

    def one_op(self) -> None:
        """Issue the stream's next op; count it and any failure."""
        is_read, key = next(self.stream)
        self.attempted += 1
        try:
            if is_read:
                if self.topology.get_or_compute(key, _load) != backend_value(key):
                    self.failed += 1
            else:
                self.topology.put(key, backend_value(key))
        except WriteQuorumError:
            self.failed += 1

    def full(self) -> bool:
        """Whether every node holds its full capacity."""
        return all(len(node.engine) >= self.params.node_capacity
                   for node in self.cluster.nodes.values())

    def fill(self, watch: Stopwatch) -> None:
        """Run the stream until every node is full, then warm up, in
        pieces of at most ``PIECE_OPS`` ops timed by ``watch``."""
        def fill_piece():
            for _ in range(PIECE_OPS):
                if self.full():
                    return
                self.one_op()

        def warm_piece(count):
            for _ in range(count):
                self.one_op()

        while not self.full():
            if self.attempted >= MAX_FILL_OPS:
                raise RuntimeError("nodes did not fill within MAX_FILL_OPS")
            watch(fill_piece)
        for done in range(0, self.params.warmup_ops, PIECE_OPS):
            watch(warm_piece, min(PIECE_OPS, self.params.warmup_ops - done))

    def counters(self) -> dict:
        """Cumulative counters the metrics are deltas of."""
        tiers = self.topology.stats()
        cluster = self.cluster.stats()
        nodes = self.cluster.nodes.values()
        return {
            "gets": tiers["gets"],
            "tier_hits": tiers["tier_hits"],
            "local_hits": tiers["serves"]["local"],
            "failed_writes": cluster.failed_writes,
            "hedged_reads": cluster.hedged_reads,
            "read_repairs": cluster.read_repairs,
            "evictions": sum(n.engine.stats().evictions for n in nodes),
            "snapshots": sum(n.store.snapshots_taken for n in nodes),
        }

    def close(self) -> None:
        """Flush and release every node's persistence."""
        self.cluster.close()


def _build(params: Params, seed: int, directory: str, watch: Stopwatch,
           recorder: Optional[Recorder] = None) -> Stack:
    stack = watch(Stack, params, seed, directory)
    if recorder is not None:
        _instrument(stack, recorder)
    stack.fill(watch)
    return stack


def _instrument(stack: Stack, recorder: Recorder) -> None:
    """Wrap every layer of the stack in spans."""
    for name in ("get_or_compute", "put"):
        recorder.wrap(stack.topology, name, "tiers")
    for name in ("get", "put"):
        recorder.wrap(stack.cluster, name, "cluster")
    for node in stack.cluster.nodes.values():
        for name in ("get", "put", "peek"):
            recorder.wrap(node, name, "cluster.node")
        for name in ("get", "put"):
            recorder.wrap(node.store, name, "online.persistence")
            recorder.wrap(node.engine, name, "online.engine")
        shard = node.engine.shards[0]
        for name in ("get", "put"):
            recorder.wrap(shard, name, "online.shard")
        recorder.wrap(shard.policy, "victim", "core.adaptive.victim")
        recorder.wrap(shard.policy, "observe", "core.adaptive.observe")


def _measure(stack: Stack, seconds: float, speed: HostSpeed,
             recorder: Optional[Recorder] = None) -> dict:
    """The closed loop: one op at a time, ``OPS_PER_SECOND * seconds``
    ops in windows of ``WINDOW_OPS``, a reference burst between windows.

    The phase is a fixed op count, not a fixed time: the hit ratio keeps
    climbing as the nodes' adaptive state converges, so a time-bounded
    phase would measure a later, cheaper state on a faster host.
    """
    before = stack.counters()
    attempted, failed = stack.attempted, stack.failed
    one_op = stack.one_op
    clock = time.perf_counter_ns
    total = max(1, round(seconds * OPS_PER_SECOND))
    windows = []
    op = 0
    speed.sample()
    while op < total:
        latencies = []
        record = latencies.append
        for _ in range(min(WINDOW_OPS, total - op)):
            if recorder is not None:
                recorder.set_op(op)
            op += 1
            t0 = clock()
            one_op()
            record(clock() - t0)
        windows.append((len(latencies), sum(latencies), latencies))
        speed.sample()
    after = stack.counters()
    delta = {k: after[k] - before[k] for k in after}
    result = window_metrics(windows, speed)
    result.update(
        ops=stack.attempted - attempted,
        failed=stack.failed - failed,
        hit_ratio=delta["tier_hits"] / delta["gets"],
        delta=delta,
    )
    return result


def _recover(stack: Stack, params: Params, checks: Checks,
             scratch: ScratchDir) -> list:
    """Time node n0's recovery from disk at ``RECOVER_POINTS`` successive
    crash points, each just before a snapshot rotation.

    Each recovery rebuilds the node's store, as ``recover_from_disk``
    does, from its own copy of n0's synced directory, so the live node
    keeps serving and never needs a catch-up rebalance. Each crash point
    leaves a different WAL to replay, and replay cost depends on how many
    of its records evict, so the figure averages over several. Returns,
    per crash point, the raw seconds of each of ``recover_repeats``
    recoveries and the :class:`HostSpeed` they ran between.
    """
    node = stack.cluster.nodes["n0"]
    points = []
    for point in range(RECOVER_POINTS):
        rotations = node.store.snapshots_taken
        while node.store.snapshots_taken == rotations:
            stack.one_op()
        mark = len(node.op_log)
        # One client op reaches a node at most a few times (read, fill,
        # repair), so stopping 8 short keeps the rotation ahead.
        while len(node.op_log) - mark < params.snapshot_every - 8:
            stack.one_op()
        node.store.sync()
        digest = kv_stats_digest(node.engine.stats())
        images = [scratch.sub(f"n0-{point}-{i}")
                  for i in range(params.recover_repeats)]
        for image in images:
            shutil.copytree(node.directory, image)
        stores = []

        def recover_node(index):
            stores.append(recover(images[index],
                                  snapshot_every=node.snapshot_every,
                                  wal_flush_ops=node.wal_flush_ops))

        speed = HostSpeed()
        points.append((timed_repeats(params.recover_repeats, recover_node,
                                     speed), speed))
        for store in stores:
            checks.check(
                kv_stats_digest(store.cache.stats()) == digest,
                "recovered node's stats digest differs from the pre-crash "
                "one",
            )
            store.close()
        for image in images:
            shutil.rmtree(image, ignore_errors=True)
    return points


def _settings(params: Params, seed: int, directory: str) -> dict:
    return {
        "seed": seed,
        "params": all_params(params),
        "node_policy": "adaptive(lru+lfu), partial_bits=16, 1 shard",
        "local_policy": "lru",
        "snapshot_every": params.snapshot_every,
        "wal_flush_ops": WAL_FLUSH_OPS,
        "persistence_fs": filesystem_type(directory),
        "fsync": "counted, not issued (see CountedFsync)",
    }


def run(seed: int, seconds: float, params: Params = Params()) -> dict:
    """Untraced run: the end-to-end metrics."""
    checks = Checks()
    speeds = {phase: HostSpeed() for phase in ("setup", "measure")}
    with ScratchDir("kv-evict") as scratch:
        setup_raw, setup_times, stack = timed_setups(
            params.setup_repeats,
            lambda i, watch: _build(params, seed, scratch.sub(f"cluster-{i}"),
                                    watch),
            Stack.close,
            speeds["setup"],
        )
        result = _measure(stack, seconds, speeds["measure"])
        checks.check(result["delta"]["failed_writes"] == 0,
                     f"{result['delta']['failed_writes']} failed quorum writes")
        points = _recover(stack, params, checks, scratch)
        stack.close()
        checks.ops(stack.attempted, stack.failed, "served ops")
        settings = _settings(params, seed, scratch.path)
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": result["ops_per_s"],
        "op_p50_us": result["op_p50_us"],
        "op_p99_us": result["op_p99_us"],
        "hit_ratio": result["hit_ratio"],
        "recover_s": mean(scaled_median(times, speed)
                          for times, speed in points),
    }
    info = {
        "ops": result["ops"],
        "windows": result["windows"],
        "latency_samples": result["latency_samples"],
        "raw": {"setup_s": median(setup_raw),
                "ops_per_s": result["raw_ops_per_s"],
                "op_p50_us": result["raw_op_p50_us"],
                "op_p99_us": result["raw_op_p99_us"],
                "recover_s": mean(median(times) for times, _ in points)},
        "reference_ns": {p: s.context() for p, s in speeds.items()},
    }
    return {"metrics": metrics, "info": info, "checks": checks,
            "settings": settings}


def run_traced(seed: int, seconds: float, recorder: Recorder,
               fsync: CountedFsync, params: Params = Params()) -> dict:
    """Traced run: per-layer counters, plus the untraced rate it costs."""
    checks = Checks()
    wal = WalBytes()
    with ScratchDir("kv-evict") as scratch:
        plain = _build(params, seed, scratch.sub("plain"),
                       Stopwatch(HostSpeed()))
        untraced = _measure(plain, seconds, HostSpeed())
        plain.close()
        checks.ops(plain.attempted, plain.failed, "untraced ops")

        recorder.set_phase("setup")
        stack = _build(params, seed, scratch.sub("traced"),
                       Stopwatch(HostSpeed()), recorder)
        recorder.set_phase("measure")
        wal.install(recorder)
        try:
            fsyncs = fsync.calls
            result = _measure(stack, seconds, HostSpeed(), recorder)
            fsyncs = fsync.calls - fsyncs
        finally:
            recorder.unwrap_all()
        recorder.set_phase("recover")
        _recover(stack, params, checks, scratch)
        stack.close()
        checks.ops(stack.attempted, stack.failed, "traced ops")
        settings = _settings(params, seed, scratch.path)

    totals = recorder.totals("measure")
    ops = result["ops"]
    delta = result["delta"]

    def self_us_per_op(layer):
        return totals[layer]["self_ns"] / 1000.0 / ops

    layer = online_layer_metrics(totals, ops, delta, wal.bytes, fsyncs)
    layer.update({
        "tiers.self_us_per_op": self_us_per_op("tiers"),
        "tiers.local_hit_ratio": delta["local_hits"] / delta["gets"],
        "cluster.self_us_per_op": self_us_per_op("cluster"),
        "cluster.node.self_us_per_op": self_us_per_op("cluster.node"),
        "cluster.node_calls_per_op": totals["cluster.node"]["calls"] / ops,
        "cluster.hedged_reads": delta["hedged_reads"],
        "cluster.read_repairs": delta["read_repairs"],
    })
    return {
        "layer": layer,
        "untraced_ops_per_s": untraced["ops_per_s"],
        "traced_ops_per_s": result["ops_per_s"],
        "checks": checks,
        "settings": settings,
    }
