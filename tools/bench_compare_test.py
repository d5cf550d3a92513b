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
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_compare as bc  # noqa: E402


def mode(workers: int, fps: float) -> dict:
    return {
        "workers": workers,
        "throughput_mean_fps": fps,
        "latency_p99_ms": 100.0 / fps,
        "stats": {"completed": 16, "latency_p99_ms": 40.0},
    }


def report(fps: float = 30.0, workers: tuple[int, ...] = (1, 2, 4)) -> dict:
    """A v9 report: a micro section and the service worker sweep."""
    return {
        "schema": "gaurast-bench-pipeline/v9",
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
            "schema": "gaurast-bench-service/v3",
            "modes": [mode(w, fps * w) for w in workers],
            "derived": {"sweep_speedup": float(workers[-1])},
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
        for record in current["service"]["modes"]:
            record["latency_tail_ms"] = record.pop("latency_p99_ms")
        errors = bc.check_shape(report(), current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("section 'service' changed layout", errors[0])
        self.assertIn("-modes[].latency_p99_ms", errors[0])
        self.assertIn("+modes[].latency_tail_ms", errors[0])

    def test_renamed_key_with_tag_bump_is_schema_drift_not_layout(self) -> None:
        # The PR that bumps a tag registers the new one; until the baseline
        # is re-recorded the pair differs in tag, not in layout.
        current = report()
        current["service"]["schema"] = "gaurast-bench-service/v4"
        current["service"]["modes"][0]["extra"] = 1
        known = {"service": {"gaurast-bench-service/v3", "gaurast-bench-service/v4"}}
        with mock.patch.dict(bc.KNOWN_SCHEMAS, known):
            errors = bc.check_shape(report(), current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("schema drift", errors[0])

    def test_dropped_derived_key_fails(self) -> None:
        current = report()
        del current["service"]["derived"]["sweep_speedup"]
        errors = bc.check_shape(report(), current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("section 'service' changed layout", errors[0])
        self.assertIn("-derived.sweep_speedup", errors[0])

    def test_unknown_tag_fails(self) -> None:
        baseline = report()
        current = copy.deepcopy(baseline)
        current["service"]["schema"] = "gaurast-bench-service/v2"
        errors = bc.check_shape(baseline, current)
        self.assertTrue(
            any("current: unknown service schema" in e for e in errors), errors
        )

    def test_ratio_at_or_above_its_floor_passes(self) -> None:
        for section, key, floor in bc.FLOORS:
            with self.subTest(f"{section}.{key}"):
                current = report()
                current[section]["derived"][key] = floor
                self.assertEqual(bc.check_floors(current), [])

    def test_ratio_below_its_floor_fails(self) -> None:
        # A 2x slower fast kernel halves its speedup over the reference.
        current = report()
        current["micro"]["derived"]["raster_fast_speedup"] /= 2.0
        errors = bc.check_floors(current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("micro.raster_fast_speedup = 5.000", errors[0])
        self.assertIn("below its floor", errors[0])

    def test_serialized_sweep_below_its_floor_fails(self) -> None:
        # Workers that render one at a time gain nothing from more of them.
        current = report()
        current["service"]["derived"]["sweep_speedup"] = 1.0
        errors = bc.check_floors(current)
        self.assertEqual(len(errors), 1, errors)
        self.assertIn("service.sweep_speedup = 1.000", errors[0])
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
            broken["service"]["modes"][1]["stats"] = {"queue_ms": 1.0}
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
