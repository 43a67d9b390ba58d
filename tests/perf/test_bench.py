"""Unit tests for the perf benchmark helpers and the regression gate.

Covers :mod:`repro.perf.bench` (stream determinism, hot-path and sweep
measurement plumbing, report round-trip) and the floor-comparison logic
of ``benchmarks/bench_hotpath.py``, loaded by path since ``benchmarks``
is not a package.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.cache.config import CacheConfig
from repro.perf.bench import (
    bench_front,
    bench_hotpath,
    bench_sweep,
    render_front,
    render_perf,
    run_perf,
    synthetic_stream,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Front-lane results: deadline bookkeeping at 1.4x and at 6.2x (the
#: per-request ``asyncio.wait_for`` the deadline queue replaced).
FLAT_FRONT = {"ops": 1, "deadline_overhead": 1.4,
              "us_per_op": {"no_deadline": 3.21, "deadline": 4.49}}
COSTLY_FRONT = {"ops": 1, "deadline_overhead": 6.2,
                "us_per_op": {"no_deadline": 3.21, "deadline": 19.9}}


def load_gate():
    """Import benchmarks/bench_hotpath.py as a module, by file path."""
    path = REPO_ROOT / "benchmarks" / "bench_hotpath.py"
    spec = importlib.util.spec_from_file_location("bench_hotpath_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSyntheticStream:
    def test_deterministic_and_line_aligned(self):
        config = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)
        first = synthetic_stream(500, config, seed=7)
        second = synthetic_stream(500, config, seed=7)
        assert first == second
        assert len(first) == 500
        footprint = config.num_lines * 4 * config.line_bytes
        assert all(a % config.line_bytes == 0 for a in first)
        assert all(0 <= a < footprint for a in first)

    def test_seed_changes_stream(self):
        config = CacheConfig(size_bytes=4 * 1024, ways=4, line_bytes=64)
        assert synthetic_stream(500, config, seed=7) != synthetic_stream(
            500, config, seed=8
        )


class TestBenchHotpath:
    def test_reports_all_policies(self):
        rows = bench_hotpath(accesses=400, size_kb=4, ways=4)
        assert set(rows) == {"lru", "fifo", "adaptive"}
        for row in rows.values():
            assert row["access_per_sec"] > 0
            assert row["access_many_per_sec"] > 0
            assert 0.0 < row["miss_ratio"] < 1.0
            assert row["accesses"] == 400

    def test_miss_ratio_is_entry_point_invariant(self):
        """The function itself asserts access/access_many agreement; a
        clean return is the canary passing."""
        rows = bench_hotpath(accesses=300, policies=("lru",), size_kb=4,
                             ways=4)
        assert "lru" in rows


class TestBenchSweep:
    def test_serial_only_sweep(self):
        report = bench_sweep(workers_counts=(1,), accesses=600,
                             workloads=("lucas",))
        assert set(report["wall_clock_sec_by_workers"]) == {"1"}
        assert report["results_identical_across_workers"] is True
        assert report["workloads"] == ["lucas"]


class TestBenchFront:
    def test_reports_both_variants(self, monkeypatch):
        import repro.perf.bench as bench_mod

        monkeypatch.setattr(bench_mod, "FRONT_OPS", 500)
        monkeypatch.setattr(bench_mod, "FRONT_REPEATS", 1)
        front = bench_front()
        assert front["ops"] == 500
        us = front["us_per_op"]
        assert set(us) == {"no_deadline", "deadline"}
        assert all(value > 0 for value in us.values())
        assert front["deadline_overhead"] == pytest.approx(
            us["deadline"] / us["no_deadline"], rel=0.01
        )
        assert "deadline/no-deadline" in "\n".join(render_front(front))


class TestRunPerf:
    def test_writes_report_json(self, tmp_path, monkeypatch):
        import repro.perf.bench as bench_mod

        monkeypatch.setattr(bench_mod, "HOTPATH_ACCESSES", 3000)
        out = tmp_path / "perf.json"
        report = run_perf(path=str(out), quick=True, workers_counts=(1,))
        on_disk = json.loads(out.read_text())
        assert on_disk["quick"] is True
        assert on_disk["machine"]["cpu_count"] >= 1
        assert set(on_disk["hotpath"]) == {"lru", "fifo", "adaptive"}
        assert set(on_disk["online"]["by_capacity"]) == {"64", "4096"}
        rendered = render_perf(report)
        assert "hot path" in rendered
        assert "lru/adaptive" in rendered
        assert "workers=1" in rendered


class TestRegressionGate:
    def test_floors_cleared(self):
        gate = load_gate()
        baselines = {"regression_margin": 0.1,
                     "floors": {"lru": {"access_per_sec": 100}}}
        measured = {"lru": {"access_per_sec": 95.0}}
        assert gate.check_against_baselines(measured, baselines) == []

    def test_regression_detected(self):
        gate = load_gate()
        baselines = {"regression_margin": 0.1,
                     "floors": {"lru": {"access_per_sec": 100}}}
        measured = {"lru": {"access_per_sec": 80.0}}
        violations = gate.check_against_baselines(measured, baselines)
        assert len(violations) == 1
        assert "lru.access_per_sec" in violations[0]

    def test_missing_policy_is_a_violation(self):
        gate = load_gate()
        baselines = {"floors": {"fifo": {"access_per_sec": 1}}}
        assert gate.check_against_baselines({}, baselines) == [
            "fifo: not measured"
        ]

    def test_pinned_baselines_file_is_wellformed(self):
        gate = load_gate()
        baselines = gate.load_baselines()
        assert 0.0 < baselines["regression_margin"] < 1.0
        assert set(baselines["floors"]) == {"lru", "fifo", "adaptive"}
        for floors in baselines["floors"].values():
            assert set(floors) == {"access_per_sec", "access_many_per_sec"}
            assert all(v > 0 for v in floors.values())

    def test_main_passes_on_generous_floors(self, tmp_path, capsys,
                                            monkeypatch):
        import repro.perf.bench as bench_mod

        # The online and front lanes run for real, on shorter streams.
        monkeypatch.setattr(bench_mod, "ONLINE_OPS", 2000)
        monkeypatch.setattr(bench_mod, "FRONT_OPS", 2000)
        gate = load_gate()
        easy = tmp_path / "floors.json"
        easy.write_text(json.dumps(
            {"regression_margin": 0.15,
             "online": {"max_ratio_growth": 1000.0},
             "front": {"max_deadline_overhead": 1000.0},
             "floors": {"lru": {"access_per_sec": 1}}}
        ))
        out = tmp_path / "measured.json"
        code = gate.main(["--quick", "--baselines", str(easy),
                          "--json-out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "all floors cleared" in captured
        assert "lru/adaptive" in captured
        measured = json.loads(out.read_text())
        assert "lru" in measured
        assert set(measured["online"]["by_capacity"]) == {"64", "4096"}
        assert "deadline/no-deadline" in captured
        assert measured["front"]["ops"] == 2000
        assert set(measured["front"]["us_per_op"]) == {"no_deadline",
                                                       "deadline"}

    def test_main_fails_on_capacity_cliff(self, tmp_path, capsys,
                                          monkeypatch):
        gate = load_gate()
        cliff = {"ops": 1, "by_capacity": {
            capacity: {"lru": {"ops_per_s": ratio},
                       "adaptive": {"ops_per_s": 1.0},
                       "lru_over_adaptive": ratio}
            for capacity, ratio in (("64", 4.9), ("4096", 23.5))
        }}
        monkeypatch.setattr(gate, "bench_online", lambda: cliff)
        monkeypatch.setattr(gate, "bench_front", lambda: FLAT_FRONT)
        easy = tmp_path / "floors.json"
        easy.write_text(json.dumps(
            {"online": {"max_ratio_growth": 1.5},
             "front": {"max_deadline_overhead": 2.0},
             "floors": {"lru": {"access_per_sec": 1}}}
        ))
        code = gate.main(["--quick", "--baselines", str(easy)])
        assert code == 1
        assert "capacity 4096" in capsys.readouterr().err

    def test_main_needs_the_online_gate(self, tmp_path, monkeypatch):
        gate = load_gate()
        monkeypatch.setattr(gate, "bench_online", lambda: {
            "ops": 1, "by_capacity": {},
        })
        monkeypatch.setattr(gate, "bench_front", lambda: FLAT_FRONT)
        no_gate = tmp_path / "floors.json"
        no_gate.write_text(json.dumps(
            {"floors": {"lru": {"access_per_sec": 1}}}
        ))
        with pytest.raises(KeyError, match="online"):
            gate.main(["--quick", "--baselines", str(no_gate)])

    def test_online_gate_passes_flat_ratio(self):
        gate = load_gate()
        baselines = {"online": {"max_ratio_growth": 1.5}}
        online = {"by_capacity": {"64": {"lru_over_adaptive": 3.0},
                                  "4096": {"lru_over_adaptive": 4.4}}}
        assert gate.check_online(online, baselines) == []

    def test_online_gate_catches_capacity_cliff(self):
        gate = load_gate()
        baselines = {"online": {"max_ratio_growth": 1.5}}
        online = {"by_capacity": {"64": {"lru_over_adaptive": 4.9},
                                  "4096": {"lru_over_adaptive": 23.5}}}
        (violation,) = gate.check_online(online, baselines)
        assert "capacity 4096" in violation

    def test_pinned_online_gate(self):
        baselines = load_gate().load_baselines()
        assert 1.0 < baselines["online"]["max_ratio_growth"] <= 2.0

    def test_main_fails_on_costly_deadlines(self, tmp_path, capsys,
                                            monkeypatch):
        gate = load_gate()
        flat = {"ops": 1, "by_capacity": {
            capacity: {"lru": {"ops_per_s": 3.0},
                       "adaptive": {"ops_per_s": 1.0},
                       "lru_over_adaptive": 3.0}
            for capacity in ("64", "4096")
        }}
        monkeypatch.setattr(gate, "bench_online", lambda: flat)
        monkeypatch.setattr(gate, "bench_front", lambda: COSTLY_FRONT)
        easy = tmp_path / "floors.json"
        easy.write_text(json.dumps(
            {"online": {"max_ratio_growth": 1.5},
             "front": {"max_deadline_overhead": 2.0},
             "floors": {"lru": {"access_per_sec": 1}}}
        ))
        code = gate.main(["--quick", "--baselines", str(easy)])
        assert code == 1
        assert "under a deadline costs 6.20x" in capsys.readouterr().err

    def test_main_needs_the_front_gate(self, tmp_path, monkeypatch):
        gate = load_gate()
        flat = {"ops": 1, "by_capacity": {
            capacity: {"lru": {"ops_per_s": 1.0},
                       "adaptive": {"ops_per_s": 1.0},
                       "lru_over_adaptive": 1.0}
            for capacity in ("64", "4096")
        }}
        monkeypatch.setattr(gate, "bench_online", lambda: flat)
        monkeypatch.setattr(gate, "bench_front", lambda: FLAT_FRONT)
        no_gate = tmp_path / "floors.json"
        no_gate.write_text(json.dumps(
            {"online": {"max_ratio_growth": 1.5},
             "floors": {"lru": {"access_per_sec": 1}}}
        ))
        with pytest.raises(KeyError, match="front"):
            gate.main(["--quick", "--baselines", str(no_gate)])

    def test_front_gate_passes_cheap_deadlines(self):
        gate = load_gate()
        baselines = {"front": {"max_deadline_overhead": 2.0}}
        assert gate.check_front(FLAT_FRONT, baselines) == []

    def test_front_gate_catches_costly_deadlines(self):
        gate = load_gate()
        baselines = {"front": {"max_deadline_overhead": 2.0}}
        (violation,) = gate.check_front(COSTLY_FRONT, baselines)
        assert "6.20x" in violation
        assert "19.90 vs 3.21 us/op" in violation

    def test_pinned_front_gate(self):
        baselines = load_gate().load_baselines()
        assert 1.0 < baselines["front"]["max_deadline_overhead"] <= 3.0

    def test_main_fails_on_impossible_floors(self, tmp_path, capsys,
                                             monkeypatch):
        import repro.perf.bench as bench_mod

        monkeypatch.setattr(bench_mod, "ONLINE_OPS", 2000)
        monkeypatch.setattr(bench_mod, "FRONT_OPS", 2000)
        gate = load_gate()
        hard = tmp_path / "floors.json"
        hard.write_text(json.dumps(
            {"regression_margin": 0.0,
             "online": {"max_ratio_growth": 1000.0},
             "front": {"max_deadline_overhead": 1000.0},
             "floors": {"lru": {"access_per_sec": 10 ** 12}}}
        ))
        code = gate.main(["--quick", "--baselines", str(hard)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().err


class TestCliPerfVerb:
    def test_perf_verb_writes_report(self, tmp_path, capsys, monkeypatch):
        import repro.perf.bench as bench_mod
        from repro.experiments.cli import main

        monkeypatch.setattr(bench_mod, "HOTPATH_ACCESSES", 3000)
        out = tmp_path / "BENCH_perf.json"
        code = main(["perf", "--quick", "--perf-out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["quick"] is True
        captured = capsys.readouterr().out
        assert "hot path" in captured
        assert str(out) in captured
