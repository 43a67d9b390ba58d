"""Tests of the benchmark itself: tiny-scale smoke runs of every
workload (untraced and traced), negative tests proving the correctness
checks fire, the span recorder's self-time derivation, and agreement
between BENCHMARK.json, perfbench/spec.json and the workload Params.

Run from the checkout root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import kv_evict, run, serve_hot_rw, sim_sweep  # noqa: E402
from perfbench.spans import Recorder  # noqa: E402
from repro.online.persistence import iter_wal  # noqa: E402

TINY = {
    "sim-sweep": sim_sweep.Params(
        scale="mini", accesses=3000, traces=("lucas", "art-1"),
        setup_repeats=1, recover_repeats=2, check_prefix=600,
    ),
    "kv-evict": kv_evict.Params(
        node_capacity=64, local_capacity=16, universe=256,
        snapshot_every=40, warmup_ops=100, setup_repeats=2,
        recover_repeats=1,
    ),
    "serve-hot-rw": serve_hot_rw.Params(
        capacity=64, universe=48, snapshot_every=300, warmup_ops=100,
        setup_repeats=2, recover_repeats=2,
    ),
}
MODULES = {"sim-sweep": sim_sweep, "kv-evict": kv_evict,
           "serve-hot-rw": serve_hot_rw}


def _spec():
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as handle:
        return json.load(handle)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_untraced_smoke(workload):
    result = run.run(workload, seed=3, seconds=0.3, trace=False,
                     params=TINY[workload])
    assert result["correct"], result["check_messages"]
    assert result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in _benchmark()["end_to_end"]]
    assert list(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
    assert result["settings"]["seed"] == 3
    assert result["machine"]["nproc"] >= 1


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_smoke(workload):
    result = run.run(workload, seed=4, seconds=0.3, trace=True,
                     params=TINY[workload])
    assert result["correct"], result["check_messages"]
    names = [m["name"] for m in _benchmark()["per_layer"]]
    assert list(result["metrics"]) == names
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert os.path.exists(result["spans_file"])


def test_traced_kv_evict_shows_victim_selection():
    layer = run.run("kv-evict", seed=5, seconds=0.5, trace=True,
                    params=TINY["kv-evict"])["metrics"]
    assert layer["core.adaptive.victim.calls_per_op"]["value"] > 0.1
    assert layer["cluster.node_calls_per_op"]["value"] >= 1
    assert layer["online.persistence.fsyncs_per_op"]["value"] > 0


def test_same_seed_same_inputs():
    first, again = (
        run.run("sim-sweep", seed=6, seconds=0.1, trace=False,
                params=TINY["sim-sweep"])
        for _ in range(2)
    )
    assert (first["metrics"]["hit_ratio"]["value"]
            == again["metrics"]["hit_ratio"]["value"])
    other = run.run("sim-sweep", seed=9, seconds=0.1, trace=False,
                    params=TINY["sim-sweep"])
    assert (other["metrics"]["hit_ratio"]["value"]
            != first["metrics"]["hit_ratio"]["value"])


@pytest.mark.parametrize("workload", ["kv-evict", "serve-hot-rw"])
def test_corrupted_served_value_fails_the_run(workload, monkeypatch):
    module = MODULES[workload]
    real = module._load

    def corrupt(key):
        value = real(key)
        return ("corrupt", key) if key.endswith("7") else value

    monkeypatch.setattr(module, "_load", corrupt)
    result = run.run(workload, seed=7, seconds=0.3, trace=False,
                     params=TINY[workload])
    assert not result["correct"]
    assert result["failed"] > 0


def _drop_last_write(image: str) -> None:
    """Cut the newest WAL of a crash image just before its last write
    (a ``put`` of a client's ``(backend_value, id)`` value)."""
    wals = sorted(name for name in os.listdir(image)
                  if name.startswith("wal-"))
    path = os.path.join(image, wals[-1])
    last_write = None
    previous = 0
    for record, end in iter_wal(path):
        if record[0] == "put" and isinstance(record[2][1], int):
            last_write = previous
        previous = end
    assert last_write is not None, "no acknowledged write in the WAL"
    with open(path, "r+b") as handle:
        handle.truncate(last_write)


def test_dropped_acknowledged_write_fails_readback(monkeypatch):
    real = serve_hot_rw.crash_image

    def drop_last_write(directory, copy):
        real(directory, copy)
        _drop_last_write(copy)

    monkeypatch.setattr(serve_hot_rw, "crash_image", drop_last_write)
    # The stats digest would fail too; only the readback is under test.
    monkeypatch.setattr(serve_hot_rw, "kv_stats_digest", lambda stats: "")
    result = run.run("serve-hot-rw", seed=8, seconds=0.2, trace=False,
                     params=TINY["serve-hot-rw"])
    assert not result["correct"]
    assert result["check_messages"] == [
        "check failed: 1 acknowledged writes did not read back their "
        "last value"
    ]


def test_overwritten_value_fails_readback(monkeypatch):
    # Each write stores a value of its own, so a write whose value is
    # lost (here: replaced by the key's never-written backend value)
    # reads back wrong even when the key stays resident.
    real = serve_hot_rw.PersistentKVCache.put

    def forgetful_put(self, key, value, ttl=None, size=None):
        if isinstance(value[1], int) and value[1] % 5 == 0:
            value = serve_hot_rw.backend_value(key)
        real(self, key, value, ttl=ttl, size=size)

    monkeypatch.setattr(serve_hot_rw.PersistentKVCache, "put", forgetful_put)
    result = run.run("serve-hot-rw", seed=8, seconds=0.2, trace=False,
                     params=TINY["serve-hot-rw"])
    assert not result["correct"]
    assert result["failed"] > 0


def test_cli_fails_without_program_sources(tmp_path):
    command = [sys.executable, "perfbench/run.py", "--workload",
               "serve-hot-rw", "--seed", "1", "--seconds", "0.2"]
    # Only the benchmark's own files: the run must fail without a result.
    bare = tmp_path / "bare"
    shutil.copytree(os.path.join(ROOT, "perfbench"), bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare / "BENCHMARK.json")
    started = time.monotonic()
    done = subprocess.run(command, cwd=bare, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert time.monotonic() - started < 180


def test_self_time_partitions_nested_spans():
    recorder = Recorder()

    def spin(ns):
        end = time.perf_counter_ns() + ns
        while time.perf_counter_ns() < end:
            pass

    inner = recorder.traced(lambda: spin(200_000), "inner")

    def outer_body():
        spin(100_000)
        inner()
        spin(100_000)

    outer = recorder.traced(outer_body, "outer")
    recorder.set_phase("measure")
    for _ in range(5):
        outer()
    totals = recorder.totals("measure")
    assert totals["outer"]["calls"] == 5 and totals["inner"]["calls"] == 5
    assert totals["inner"]["self_ns"] == totals["inner"]["total_ns"]
    assert (totals["outer"]["self_ns"] + totals["inner"]["self_ns"]
            == totals["outer"]["total_ns"])
    assert totals["outer"]["self_ns"] >= 5 * 200_000


def test_spec_agrees_with_benchmark_json_and_params():
    spec, bench = _spec(), _benchmark()
    assert [w["name"] for w in bench["workloads"]] == sorted(
        run.WORKLOADS, key=[w["name"] for w in spec["workloads"]].index)
    assert bench["workloads"] == [
        {"name": w["name"], "why": w["why"]} for w in spec["workloads"]
    ]
    assert bench["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")}
        for m in spec["end_to_end"]
    ]
    assert bench["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")}
        for m in spec["per_layer"]
    ]
    for entry in spec["workloads"]:
        module = MODULES[entry["name"]]
        params = getattr(module, "all_params", dataclasses.asdict)(
            module.Params())
        params = {k: list(v) if isinstance(v, tuple) else v
                  for k, v in params.items()}
        assert entry["params"] == params, entry["name"]
