"""Workload ``sim-sweep``: the paper's own use of the simulator.

Six primary-suite traces, one per locality class, each replayed through
LRU, LFU and Adaptive(LRU, LFU) on the ``scaled`` 64 KB 8-way L2 via
:meth:`WorkloadCache.simulate_policy`, serially. Work happens in
``workloads`` (trace build), ``cpu`` (compile and timing replay),
``cache`` (the scalar L2 path of the LRU/LFU cells) and ``perf.kernel``
(the columnar path of the adaptive cells); no online layer runs.

An op is one simulated L2 access. The measured phase replays whole
passes over the 18 cells until ``seconds`` of cell time have run, so
every run measures the same cell mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional, Tuple

from perfbench.common import (
    Checks,
    CountedFsync,
    HostSpeed,
    ScratchDir,
    Stopwatch,
    scaled_median,
    timed_repeats,
    timed_setups,
)
from perfbench.spans import Recorder
from repro.cache.cache import SetAssociativeCache
from repro.cpu.timing import L2_LOAD
from repro.experiments import base
from repro.experiments.base import (
    WorkloadCache,
    build_l2_policy,
    make_setup,
    run_policy_sweep,
)
from repro.experiments.checkpoint import (
    SweepCheckpoint,
    active_checkpoint,
    timing_to_dict,
)
from repro.oracle.stack import StackDistanceEngine
from repro.perf import kernel
from repro.workloads.suite import build_workload

#: One trace per locality class: LRU, LFU, MRU, phase, stream, dither.
TRACES = ("lucas", "art-1", "gcc-1", "ammp", "swim", "unepic")
POLICIES = (("LRU", "lru"), ("LFU", "lfu"), ("Adaptive", "adaptive"))
#: Experiment label the checkpoint keys carry.
EXPERIMENT = "perfbench-sim-sweep"


@dataclass(frozen=True)
class Params:
    """Workload scale; the defaults are the benchmark's."""

    scale: str = "scaled"
    accesses: Optional[int] = None
    traces: Tuple[str, ...] = TRACES
    setup_repeats: int = 3
    recover_repeats: int = 25
    check_prefix: int = 4000


class SeededWorkloadCache(WorkloadCache):
    """A :class:`WorkloadCache` whose traces are drawn from the run seed.

    ``build_workload``'s ``seed_offset`` perturbs each workload's own
    seed, so every ``--seed`` yields an independent sample of the same
    six locality classes.
    """

    def __init__(self, setup, seed: int):
        super().__init__(setup, trace_dir=None)
        self.seed = seed
        self._seeded: Dict[str, object] = {}

    def trace(self, name: str):
        """The workload's trace for this seed, built on first use."""
        if name not in self._seeded:
            self._seeded[name] = build_workload(
                name, self.setup.l2, accesses=self.setup.accesses,
                seed_offset=self.seed,
            )
        return self._seeded[name]


def _l2_cache(setup, kind: str) -> SetAssociativeCache:
    return SetAssociativeCache(setup.l2, build_l2_policy(setup.l2, kind))


def _set_up(params: Params, seed: int, watch: Stopwatch,
            recorder: Optional[Recorder] = None) -> SeededWorkloadCache:
    """Build and compile every trace, then warm the columnar kernel, one
    piece timed by ``watch`` per trace and one for the kernel."""
    setup = make_setup(params.scale, params.accesses)
    cache = watch(SeededWorkloadCache, setup, seed)
    if recorder is not None:
        recorder.wrap(cache, "trace", "workloads.build")
        recorder.wrap(cache, "compiled", "cpu.compile")
    for name in params.traces:
        watch(cache.compiled, name)
    record = cache.compiled(params.traces[0]).l2_records[:1]

    def warm_kernel():
        probe = _l2_cache(setup, "adaptive")
        kernel.columnar_access_many(probe, [r[2] for r in record])

    # The duel kernel is generated and compiled on first use and then
    # kept for the process; drop it and build it here, so every set-up
    # pays for code generation and the measured phase never does.
    kernel._DUEL_FNS.clear()
    watch(warm_kernel)
    return cache


def _measure(cache: SeededWorkloadCache, params: Params, seconds: float,
             speed: HostSpeed):
    """Whole passes over every cell until ``seconds`` of cell time.

    A reference burst runs before the first cell and after each one,
    outside the cells' timings, and scales the cell's time
    (:meth:`HostSpeed.scale`). Returns ``{(trace, label): [(raw_ns,
    scaled_ns, result), ...]}``, the raw busy seconds and the pass
    count.
    """
    cells: Dict[Tuple[str, str], List] = {}
    busy = 0
    passes = 0
    runs = 0
    speed.sample()
    while busy < seconds * 1e9 or passes == 0:
        for name in params.traces:
            for label, kind in POLICIES:
                t0 = time.perf_counter_ns()
                result = cache.simulate_policy(name, kind)
                took = time.perf_counter_ns() - t0
                busy += took
                speed.sample()
                cells.setdefault((name, label), []).append(
                    (took, speed.scale(runs, took), result))
                runs += 1
        passes += 1
    return cells, busy / 1e9, passes


#: Columns of a measured cell run: its raw and its scaled time.
RAW, SCALED = 0, 1


def _summarize(cells, column: int) -> dict:
    """End-to-end figures of the measured cells from the ``RAW`` or the
    ``SCALED`` times of their runs."""
    accesses = {cell: runs[0][-1].l2_accesses for cell, runs in cells.items()}
    per_cell_us = sorted(
        median([run[column] for run in runs]) / 1000.0 / accesses[cell]
        for cell, runs in cells.items()
    )
    adaptive = [runs[0][-1] for (_, label), runs in cells.items()
                if label == "Adaptive"]
    adaptive_accesses = sum(r.l2_accesses for r in adaptive)
    adaptive_misses = sum(r.l2_misses for r in adaptive)
    passes = len(next(iter(cells.values())))
    ops = sum(accesses.values()) * passes
    busy_s = sum(run[column] for runs in cells.values() for run in runs) / 1e9
    return {
        "ops": ops,
        "ops_per_s": ops / busy_s,
        "op_p50_us": median(per_cell_us),
        "op_p99_us": per_cell_us[-1],
        "hit_ratio": 1.0 - adaptive_misses / adaptive_accesses,
        "sim_adaptive_mpki": sum(r.mpki for r in adaptive) / len(adaptive),
        "adaptive_ops": adaptive_accesses * passes,
    }


def _check_cells(cache: SeededWorkloadCache, cells, params: Params,
                 checks: Checks) -> None:
    """Oracle checks on the measured cells."""
    setup = cache.setup
    offset_bits, index_mask, tag_shift = setup.l2.decomposition()
    for (name, label), runs in cells.items():
        first = timing_to_dict(runs[0][-1])
        checks.check(
            all(timing_to_dict(run[-1]) == first for run in runs),
            f"{name}/{label} differs between passes",
        )
    for name in params.traces:
        records = cache.compiled(name).l2_records
        # LRU cells against the Mattson stack-distance oracle.
        engine = StackDistanceEngine(setup.l2.num_sets)
        for _, _, address in records:
            engine.record(address >> offset_bits)
        lru = cells[(name, "LRU")][0][-1]
        checks.check(
            engine.misses_for_ways(setup.l2.ways) == lru.l2_misses,
            f"{name}/LRU misses {lru.l2_misses} != stack-distance "
            f"{engine.misses_for_ways(setup.l2.ways)}",
        )
        # Adaptive cells: columnar kernel against the scalar path.
        prefix = records[:params.check_prefix]
        addresses = [r[2] for r in prefix]
        writes = [r[1] != L2_LOAD for r in prefix]
        columnar = _l2_cache(setup, "adaptive")
        hits = [False] * len(prefix)
        kernel.columnar_access_many(columnar, addresses, writes, record=hits)
        scalar = _l2_cache(setup, "adaptive")
        access = scalar.access_decomposed
        scalar_hits = [
            access((a >> offset_bits) & index_mask, a >> tag_shift, w).hit
            for a, w in zip(addresses, writes)
        ]
        checks.check(
            hits == scalar_hits,
            f"{name}/Adaptive columnar hit stream differs from scalar",
        )


def _recover(cache: SeededWorkloadCache, cells, params: Params,
             checks: Checks, speed: HostSpeed) -> list:
    """Seconds for an interrupted sweep to resume from its checkpoint,
    per repeat."""
    specs = {label: {"policy_kind": kind} for label, kind in POLICIES}
    setup = cache.setup
    with ScratchDir("sim-checkpoint") as scratch:
        path = scratch.sub("sweep.json")
        written = SweepCheckpoint(path)
        for (name, label), runs in cells.items():
            key = written.cell_key("cell", EXPERIMENT, setup.name,
                                   setup.accesses, name, label)
            written.put(key, timing_to_dict(runs[0][-1]))
        resumed = []

        def resume(_):
            checkpoint = SweepCheckpoint.open_or_reset(path)
            with active_checkpoint(checkpoint, EXPERIMENT):
                resumed.append(run_policy_sweep(cache, params.traces, specs,
                                                workers=1))

        times = timed_repeats(params.recover_repeats, resume, speed)
    results = resumed[-1]
    checks.check(
        all(timing_to_dict(results[name][label])
            == timing_to_dict(cells[(name, label)][0][-1])
            for name, label in cells),
        "cells resumed from the checkpoint differ from the measured ones",
    )
    return times


def _settings(params: Params, seed: int) -> dict:
    """The workload's settings block."""
    setup = make_setup(params.scale, params.accesses)
    probe_batch = kernel.AUTO_MIN_BATCH
    return {
        "seed": seed,
        "scale": setup.name,
        "accesses_per_trace": setup.accesses,
        "l2": {"size_bytes": setup.l2.size_bytes, "ways": setup.l2.ways,
               "line_bytes": setup.l2.line_bytes},
        "traces": list(params.traces),
        "kernel_mode": kernel.get_default_kernel(),
        "kernel_per_cell": {
            label: kernel.kernel_name(_l2_cache(setup, kind), probe_batch)
            for label, kind in POLICIES
        },
        "setup_repeats": params.setup_repeats,
        "recover_repeats": params.recover_repeats,
    }


def run(seed: int, seconds: float, params: Params = Params()) -> dict:
    """Untraced run: the end-to-end metrics."""
    checks = Checks()
    speeds = {phase: HostSpeed() for phase in ("setup", "measure", "recover")}
    setup_raw, setup_times, cache = timed_setups(
        params.setup_repeats, lambda _, watch: _set_up(params, seed, watch),
        lambda _: None, speeds["setup"],
    )
    cells, busy, passes = _measure(cache, params, seconds, speeds["measure"])
    summary = _summarize(cells, SCALED)
    _check_cells(cache, cells, params, checks)
    recover_times = _recover(cache, cells, params, checks, speeds["recover"])
    metrics = {
        "setup_s": median(setup_times),
        "ops_per_s": summary["ops_per_s"],
        "op_p50_us": summary["op_p50_us"],
        "op_p99_us": summary["op_p99_us"],
        "hit_ratio": summary["hit_ratio"],
        "recover_s": scaled_median(recover_times, speeds["recover"]),
    }
    raw = _summarize(cells, RAW)
    info = {
        "passes": passes,
        "busy_s": busy,
        "ops": summary["ops"],
        "sim_accesses_per_s": summary["ops_per_s"],
        "sim_adaptive_mpki": summary["sim_adaptive_mpki"],
        "raw": {"setup_s": median(setup_raw),
                "ops_per_s": raw["ops_per_s"],
                "op_p50_us": raw["op_p50_us"],
                "op_p99_us": raw["op_p99_us"],
                "recover_s": median(recover_times)},
        "reference_ns": {p: s.context() for p, s in speeds.items()},
    }
    return {"metrics": metrics, "info": info, "checks": checks,
            "settings": _settings(params, seed)}


def run_traced(seed: int, seconds: float, recorder: Recorder,
               fsync: CountedFsync, params: Params = Params()) -> dict:
    """Traced run: per-layer counters, plus the untraced rate it costs."""
    checks = Checks()
    plain = _set_up(params, seed, Stopwatch(HostSpeed()))
    untraced = _summarize(_measure(plain, params, seconds, HostSpeed())[0],
                          SCALED)
    plain = None

    recorder.set_phase("setup")
    cache = _set_up(params, seed, Stopwatch(HostSpeed()), recorder)
    traced_simulate = recorder.traced(base.simulate, "cpu.simulate")

    def simulate(compiled, l2, processor):
        recorder.wrap(l2, "access_decomposed", "cache.access")
        return traced_simulate(compiled, l2, processor)

    recorder.set_phase("measure")
    recorder.patch(base, "simulate", simulate)
    recorder.wrap(kernel, "columnar_hit_stream", "perf.kernel")
    try:
        cells, _, _ = _measure(cache, params, seconds, HostSpeed())
    finally:
        recorder.unwrap_all()
    summary = _summarize(cells, SCALED)
    _check_cells(cache, cells, params, checks)

    setup_totals = recorder.totals("setup")
    totals = recorder.totals("measure")
    ops = summary["ops"]
    access = totals.get("cache.access", {"calls": 0, "self_ns": 0})
    layer = {
        "workloads.build_s": setup_totals["workloads.build"]["self_ns"] / 1e9,
        "cpu.compile_s": setup_totals["cpu.compile"]["self_ns"] / 1e9,
        "cpu.simulate.self_us_per_access":
            totals["cpu.simulate"]["self_ns"] / 1000.0 / ops,
        "cache.access.calls": access["calls"],
        "cache.access.self_us_per_call":
            access["self_ns"] / 1000.0 / max(1, access["calls"]),
        "perf.kernel.self_us_per_access":
            totals["perf.kernel"]["self_ns"] / 1000.0
            / summary["adaptive_ops"],
    }
    return {
        "layer": layer,
        "untraced_ops_per_s": untraced["ops_per_s"],
        "traced_ops_per_s": summary["ops_per_s"],
        "checks": checks,
        "settings": _settings(params, seed),
    }
