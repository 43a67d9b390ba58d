"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload kv-evict --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes the traced run that gives the per-layer metrics and
the tracing overhead. Every metric is printed by name with its unit;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The full result (settings and
machine block, check messages) is also written under ``.perfbench/``,
and a traced run writes its spans there. The exit code is 0 only when
every correctness check passed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "sim-sweep": "sim_sweep",
    "kv-evict": "kv_evict",
    "serve-hot-rw": "serve_hot_rw",
}


def _spec() -> dict:
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as handle:
        return json.load(handle)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _import_program():
    """Put the checkout's sources on the path; fail if they are absent."""
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program sources under {ROOT}/src; "
            "run from the root of a full checkout"
        )
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]


def run(workload: str, seed: int, seconds: float, trace: bool,
        params=None) -> dict:
    """Run one workload; returns the full result document.

    ``params`` overrides the workload's :class:`Params` (the tests run
    every workload at a tiny scale this way).
    """
    from perfbench import common
    from perfbench.spans import Recorder

    spec = _spec()
    module = importlib.import_module(f"perfbench.{WORKLOADS[workload]}")
    params = params if params is not None else module.Params()
    if trace:
        recorder = Recorder()
        with common.CountedFsync() as fsync:
            outcome = module.run_traced(seed, seconds, recorder, fsync,
                                        params)
        wanted = spec["per_layer"]
        values = dict.fromkeys((m["name"] for m in wanted), 0.0)
        values.update(outcome["layer"])
        values["trace.untraced_ops_per_s"] = outcome["untraced_ops_per_s"]
        values["trace.traced_ops_per_s"] = outcome["traced_ops_per_s"]
        values["trace.overhead_ratio"] = (
            outcome["untraced_ops_per_s"] / outcome["traced_ops_per_s"]
        )
        spans_file = common.out_path("spans", f"{workload}-seed{seed}.npz")
        recorder.save(spans_file)
        totals = recorder.totals("measure")
        outcome.setdefault("info", {})["measure_self_s"] = {
            layer: totals[layer]["self_ns"] / 1e9
            for layer in sorted(totals, key=lambda name: -totals[name]["self_ns"])
        }
    else:
        with common.CountedFsync():
            outcome = module.run(seed, seconds, params)
        wanted = spec["end_to_end"]
        values = dict(outcome["metrics"])
        values["peak_rss_mb"] = common.peak_rss_mb()
        spans_file = None
    unknown = set(values) - {m["name"] for m in wanted}
    if unknown:
        raise RuntimeError(f"workload reported undeclared metrics {unknown}")
    checks = outcome["checks"]
    return {
        "workload": workload,
        "trace": int(trace),
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": checks.error_rate,
        "check_messages": checks.messages,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
        "info": outcome.get("info", {}),
        "settings": outcome["settings"],
        "machine": common.machine_block(),
        "spans_file": spans_file,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench.common import out_path

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} error_rate = {result['error_rate']:.6g} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for name, value in result["info"].items():
        print(f"{args.workload} info {name} = {value}")
    for message in result["check_messages"]:
        print(f"{args.workload} FAILED {message}")
    print("settings " + json.dumps(
        {"settings": result["settings"], "machine": result["machine"]},
        sort_keys=True))
    path = out_path("results", f"{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
