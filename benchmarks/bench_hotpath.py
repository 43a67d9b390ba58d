"""Bench + regression gate: hot-path kernel throughput (accesses/sec).

Two faces:

* under pytest (``pytest benchmarks/bench_hotpath.py``) it times the
  per-call and batched cache entry points per policy with
  pytest-benchmark, honouring the shared ``--quick`` flag;
* as a script (``python benchmarks/bench_hotpath.py --quick``) it is
  the CI bench-regression gate — it measures accesses/sec, compares
  each number against the pinned floors in ``benchmarks/baselines.json``
  and exits non-zero when any falls more than the allowed margin below
  its floor. The floors are deliberately conservative (roughly half of
  a 1-CPU container's measurement) so runner-to-runner variance does
  not flake the gate, while a regression to the pre-optimization
  kernel — several times slower — still trips it.

The script also runs the online lane
(:func:`repro.perf.bench.bench_online`: one shard, LRU and adaptive, at
capacities 64 and 4096) and gates capacity independence: the
LRU/adaptive ops ratio at 4096 may be at most the baselines'
``online.max_ratio_growth`` times the ratio at 64. Both policies run
on the same runner, so the ratio does not move with runner speed.

It also runs the front lane (:func:`repro.perf.bench.bench_front`:
hits through the async serving front over a trivial store, with and
without a deadline) and gates the front's deadline bookkeeping: the
deadline run may cost at most the baselines'
``front.max_deadline_overhead`` times the run without one.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import pytest

from repro.perf.bench import (
    HOTPATH_POLICIES,
    ONLINE_CAPACITIES,
    bench_front,
    bench_hotpath,
    bench_online,
    render_front,
    render_online,
    synthetic_stream,
)

BASELINES_PATH = pathlib.Path(__file__).resolve().parent / "baselines.json"

#: Stream lengths for the two modes.
FULL_ACCESSES = 200_000
QUICK_ACCESSES = 20_000


@pytest.fixture(scope="module")
def hotpath_stream(request):
    """A deterministic address stream sized by ``--quick``."""
    from repro.cache.config import CacheConfig

    quick = bool(request.config.getoption("--quick"))
    config = CacheConfig(size_bytes=64 * 1024, ways=8, line_bytes=64)
    accesses = QUICK_ACCESSES if quick else FULL_ACCESSES
    return config, synthetic_stream(accesses, config)


@pytest.mark.parametrize("kind", HOTPATH_POLICIES)
def test_hotpath_access(benchmark, hotpath_stream, kind):
    """Per-call entry point throughput, per policy."""
    from repro.cache.cache import SetAssociativeCache
    from repro.experiments.base import build_l2_policy

    config, addresses = hotpath_stream

    def drive():
        cache = SetAssociativeCache(config, build_l2_policy(config, kind))
        access = cache.access
        for address in addresses:
            access(address)
        return cache.stats.misses

    misses = benchmark.pedantic(drive, rounds=1, iterations=1)
    benchmark.extra_info["misses"] = misses
    benchmark.extra_info["accesses"] = len(addresses)
    assert misses > 0


@pytest.mark.parametrize("kind", HOTPATH_POLICIES)
def test_hotpath_access_many(benchmark, hotpath_stream, kind):
    """Batched entry point throughput; decisions must match per-call."""
    from repro.cache.cache import SetAssociativeCache
    from repro.experiments.base import build_l2_policy

    config, addresses = hotpath_stream

    def drive():
        cache = SetAssociativeCache(config, build_l2_policy(config, kind))
        cache.access_many(addresses)
        return cache.stats.misses

    batched_misses = benchmark.pedantic(drive, rounds=1, iterations=1)

    reference = SetAssociativeCache(config, build_l2_policy(config, kind))
    for address in addresses:
        reference.access(address)
    assert batched_misses == reference.stats.misses


def load_baselines(path: pathlib.Path = BASELINES_PATH) -> dict:
    """The pinned throughput floors (accesses/sec) and margin."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_against_baselines(
    measured: dict, baselines: dict
) -> "list[str]":
    """Compare a :func:`bench_hotpath` result against the pinned floors.

    Returns a list of violation messages (empty = pass). A policy/entry
    point regresses when its measured accesses/sec falls below
    ``floor * (1 - margin)``.
    """
    margin = float(baselines.get("regression_margin", 0.15))
    violations = []
    for kind, floors in baselines["floors"].items():
        row = measured.get(kind)
        if row is None:
            violations.append(f"{kind}: not measured")
            continue
        for metric, floor in floors.items():
            value = row.get(metric)
            threshold = floor * (1.0 - margin)
            if value is None or value < threshold:
                violations.append(
                    f"{kind}.{metric}: {value:,.0f}/s is below "
                    f"{threshold:,.0f}/s (floor {floor:,.0f} - "
                    f"{margin:.0%} margin)"
                )
    return violations


def check_online(online: dict, baselines: dict) -> "list[str]":
    """Gate a :func:`bench_online` result on capacity independence.

    Returns a violation message when the LRU/adaptive ops ratio at the
    larger capacity exceeds ``baselines["online"]["max_ratio_growth"]``
    times the ratio at the smaller one.
    """
    growth = baselines["online"]["max_ratio_growth"]
    small, large = (str(c) for c in ONLINE_CAPACITIES)
    rows = online["by_capacity"]
    base = rows[small]["lru_over_adaptive"]
    grown = rows[large]["lru_over_adaptive"]
    if grown > growth * base:
        return [
            f"online: lru/adaptive ops ratio {grown:.2f}x at capacity "
            f"{large} exceeds {growth} x the {base:.2f}x at capacity "
            f"{small}"
        ]
    return []


def check_front(front: dict, baselines: dict) -> "list[str]":
    """Gate a :func:`bench_front` result on the deadline's cost.

    Returns a violation message when a hit under a deadline costs more
    than ``baselines["front"]["max_deadline_overhead"]`` times a hit
    without one.
    """
    bound = baselines["front"]["max_deadline_overhead"]
    overhead = front["deadline_overhead"]
    if overhead > bound:
        us = front["us_per_op"]
        return [
            f"front: a hit under a deadline costs {overhead:.2f}x one "
            f"without ({us['deadline']:.2f} vs {us['no_deadline']:.2f} "
            f"us/op), over the {bound}x bound"
        ]
    return []


def main(argv=None) -> int:
    """CI gate entry point: measure, compare, report, exit non-zero on
    regression."""
    parser = argparse.ArgumentParser(
        description="Hot-path throughput regression gate."
    )
    parser.add_argument("--quick", action="store_true",
                        help="10x shorter stream (CI mode)")
    parser.add_argument("--kernel", choices=["scalar", "columnar", "auto"],
                        default="auto",
                        help="batch kernel mode for access_many "
                        "(default auto)")
    parser.add_argument("--baselines", default=str(BASELINES_PATH),
                        help="floors file (default benchmarks/baselines.json)")
    parser.add_argument("--json-out", default=None, metavar="PATH",
                        help="also write the measurements as JSON")
    args = parser.parse_args(argv)

    from repro.perf.kernel import set_default_kernel

    set_default_kernel(args.kernel)
    baselines = load_baselines(pathlib.Path(args.baselines))
    accesses = QUICK_ACCESSES if args.quick else FULL_ACCESSES
    start = time.perf_counter()
    measured = bench_hotpath(accesses=accesses)
    elapsed = time.perf_counter() - start

    print(f"hot-path throughput ({accesses} accesses/policy, "
          f"{elapsed:.1f}s total, kernel mode {args.kernel}):")
    for kind, row in sorted(measured.items()):
        print(f"  {kind:10s} access {row['access_per_sec']:>12,.0f}/s   "
              f"access_many {row['access_many_per_sec']:>12,.0f}/s   "
              f"miss ratio {row['miss_ratio']:.3f}   "
              f"kernel {row.get('kernel', 'scalar')}")

    online = bench_online()
    print("\n".join(render_online(online)))
    front = bench_front()
    print("\n".join(render_front(front)))
    report = dict(measured, online=online, front=front)

    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")

    violations = check_against_baselines(measured, baselines)
    violations += check_online(online, baselines)
    violations += check_front(front, baselines)
    if violations:
        print("REGRESSION: pinned performance gates failed:",
              file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print("all floors cleared "
          f"(margin {baselines.get('regression_margin', 0.15):.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
