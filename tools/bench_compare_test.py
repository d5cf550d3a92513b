#!/usr/bin/env python3
"""Unit tests for bench_compare.py, the bench-regression gate.

Each case seeds a baseline/current pair of reports and checks the gate's
verdict: a layout change under an unchanged tag, a dropped derived metric,
an unknown tag and a ratio below its floor fail; a pair that differs only
in numbers and list lengths (quick vs canonical) passes. Run directly:

    python3 tools/bench_compare_test.py
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_compare as bc  # noqa: E402


def mode(name: str, fps: float, shards: int) -> dict:
    return {
        "mode": name,
        "throughput_mean_fps": fps,
        "latency_p99_ms": 100.0 / fps,
        "stats": [{"completed": 16, "latency_p99_ms": 40.0}] * shards,
    }


def report(fps: float = 30.0, workers: tuple[int, ...] = (1, 2, 4)) -> dict:
    """A v8 report with a micro section and two service sections."""
    return {
        "schema": "gaurast-bench-pipeline/v8",
        "quick": False,
        "micro": {
            "schema": "gaurast-bench-micro/v1",
            "results": [
                {"name": "raster_fast", "median_ms": 60.0},
                {"name": "raster_reference", "median_ms": 300.0},
            ],
            "derived": {"raster_fast_speedup": 10.0},
        },
        "service": {
            "schema": "gaurast-bench-service/v2",
            "modes": [mode(f"w{w}", fps * w, 1) for w in workers],
            "derived": {"sweep_speedup": float(workers[-1])},
        },
        "fleet": {
            "schema": "gaurast-bench-service-fleet/v2",
            "modes": [mode("direct", fps, 2), mode("routed", fps, 2)],
            "derived": {
                "routed_relative_throughput": 1.0,
                "route_overhead_mean_ms": 5.0,
            },
        },
    }


class BenchCompareTest(unittest.TestCase):
    def test_quick_vs_canonical_pair_passes(self) -> None:
        # Different numbers and fewer sweep points: only the tags, the
        # layout (derived keys included) and benchmark names are compared.
        current = report(fps=90.0, workers=(1, 2))
        current["quick"] = True
        self.assertEqual(bc.check_shape(report(), current), [])

    def test_renamed_mode_key_under_same_tag_fails(self) -> None:
        current = report()
        for record in current["fleet"]["modes"]:
            record["latency_tail_ms"] = record.pop("latency_p99_ms")
        errors = bc.check_shape(report(), current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("section 'fleet' changed layout", errors[0])
        self.assertIn("-modes[].latency_p99_ms", errors[0])
        self.assertIn("+modes[].latency_tail_ms", errors[0])

    def test_renamed_key_with_tag_bump_is_schema_drift_not_layout(self) -> None:
        current = report()
        current["fleet"]["schema"] = "gaurast-bench-service-fleet/v1"
        current["fleet"]["modes"][0]["extra"] = 1
        errors = bc.check_shape(report(), current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("schema drift", errors[0])

    def test_dropped_derived_key_fails(self) -> None:
        current = report()
        del current["fleet"]["derived"]["routed_relative_throughput"]
        errors = bc.check_shape(report(), current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("section 'fleet' changed layout", errors[0])
        self.assertIn("-derived.routed_relative_throughput", errors[0])

    def test_unknown_tag_fails(self) -> None:
        baseline = report()
        current = copy.deepcopy(baseline)
        current["service"]["schema"] = "gaurast-bench-service/v9"
        errors = bc.check_shape(baseline, current)
        self.assertTrue(
            any("current: unknown service schema" in e for e in errors), errors
        )

    def test_ratio_at_or_above_its_floor_passes(self) -> None:
        current = report()
        floor = dict(((s, k), f) for s, k, f in bc.FLOORS)
        current["micro"]["derived"]["raster_fast_speedup"] = floor[
            ("micro", "raster_fast_speedup")
        ]
        self.assertEqual(bc.check_floors(current), [])

    def test_ratio_below_its_floor_fails(self) -> None:
        # A 2x slower fast kernel halves its speedup over the reference.
        current = report()
        current["micro"]["derived"]["raster_fast_speedup"] /= 2.0
        errors = bc.check_floors(current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("micro.raster_fast_speedup = 5.000", errors[0])
        self.assertIn("below its floor", errors[0])

    def test_key_paths_merge_array_elements(self) -> None:
        paths = bc.key_paths({"a": [{"b": 1}, {"c": [{"d": 2}]}], "e": 3})
        self.assertEqual(paths, {"a", "a[].b", "a[].c", "a[].c[].d", "e"})

    def test_cli_exit_codes(self) -> None:
        script = Path(__file__).resolve().parent / "bench_compare.py"
        with tempfile.TemporaryDirectory(prefix="bench_compare_test_") as tmp:
            base = Path(tmp) / "base.json"
            good = Path(tmp) / "good.json"
            bad = Path(tmp) / "bad.json"
            summary = Path(tmp) / "summary.md"
            base.write_text(json.dumps(report()), encoding="utf-8")
            good.write_text(json.dumps(report(fps=60.0)), encoding="utf-8")
            slow = Path(tmp) / "slow.json"
            # One new key in one array element is a new merged key path.
            broken = report()
            broken["fleet"]["modes"][1]["stats"][0] = {"queue_ms": 1.0}
            bad.write_text(json.dumps(broken), encoding="utf-8")
            halved = report()
            halved["micro"]["derived"]["raster_fast_speedup"] = 5.0
            slow.write_text(json.dumps(halved), encoding="utf-8")
            for current, code in ((good, 0), (bad, 1), (slow, 1)):
                run = subprocess.run(
                    [sys.executable, script, base, current, "--summary", summary],
                    capture_output=True,
                    text=True,
                    check=False,
                )
                self.assertEqual(run.returncode, code, run.stderr)


if __name__ == "__main__":
    unittest.main()
