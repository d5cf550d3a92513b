#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh bench report against the committed one.

Usage: bench_compare.py BASELINE.json CURRENT.json [--summary FILE]

BASELINE is the committed canonical trajectory (BENCH_pipeline.json at the
repo root); CURRENT is a fresh run, typically CI's quick-mode
BENCH_pipeline.quick.json. The two run different configurations (canonical
vs quick), so absolute timings are not comparable. The gate enforces the
current report's within-run ratio floors (FLOORS below: a ratio of two
timings taken in one run compares across configs) and the report's
*shape*:

  * every schema tag (top-level and per-section) is one this gate knows;
    unknown schemas are rejected uniformly, in both reports, so a tag typo
    or an unregistered new section fails loudly instead of gating nothing,
  * identical top-level schema tag (schema drift must bump the committed
    baseline in the same PR),
  * every aggregated section the baseline has (micro / service / wire /
    fleet / faults / scene_store) present with its expected per-section
    schema tag,
  * a section whose tag equals the baseline's keeps the baseline's layout:
    the same set of JSON key paths, array elements merged (a layout change
    must bump the section's tag). Derived metrics are keys under
    "derived", so a dropped headline (raster_fast_speedup, sweep_speedup,
    wire_relative_throughput, routed_relative_throughput, ...) fails here,
  * every micro benchmark name in the baseline still reported (a silently
    dropped benchmark is how perf trajectories rot; names are values, not
    keys, so the layout rule cannot see them).

It also writes an informational current/baseline ratio table (markdown) to
--summary, or to $GITHUB_STEP_SUMMARY when set, or stdout — so every CI run
shows the timing trajectory next to the gate verdict. Exits non-zero on any
floor or shape violation.
"""

import argparse
import json
import os
import sys


# Every schema tag this gate understands. A report (baseline or current)
# carrying any other tag is rejected outright — one rule for the top level
# and every section, so new reports must be registered here to pass.
SECTIONS = (
    "micro",
    "service",
    "wire",
    "fleet",
    "faults",
    "scene_store",
)

KNOWN_SCHEMAS = {
    "": {
        "gaurast-bench-pipeline/v2",
        "gaurast-bench-pipeline/v3",
        "gaurast-bench-pipeline/v4",
        "gaurast-bench-pipeline/v5",
        "gaurast-bench-pipeline/v6",
        "gaurast-bench-pipeline/v7",
        "gaurast-bench-pipeline/v8",
    },
    "micro": {"gaurast-bench-micro/v1"},
    "service": {"gaurast-bench-service/v1", "gaurast-bench-service/v2"},
    "wire": {"gaurast-bench-service-wire/v1", "gaurast-bench-service-wire/v2"},
    "fleet": {"gaurast-bench-service-fleet/v1", "gaurast-bench-service-fleet/v2"},
    "faults": {
        "gaurast-bench-service-faults/v1",
        "gaurast-bench-service-faults/v2",
    },
    "scene_store": {
        "gaurast-bench-service-scenes/v1",
        "gaurast-bench-service-scenes/v2",
    },
}


# (section, derived key, floor): the current report's value must be at
# least the floor. Each floor is stated once, next to the range it came
# from; loosening one is a gate change CHANGES.md must justify.
FLOORS = (
    # Fast vs reference Step-3 kernel, single thread, in the quick config
    # (4000 splats at 160x120, medians of 5), on a 4-vCPU x86-64 VM: 10
    # consecutive quick runs of the band-skip kernel read 11.0-12.7x, and
    # 11.3-19.5x under `ctest -j4`. The same kernel with a 2x busy-wait
    # read 4.8-5.9x; the kernel before the band skip read 4.4-7.8x.
    ("micro", "raster_fast_speedup", 8.0),
)


def unknown_schema_errors(label, report):
    """Uniform unknown-schema rejection for one report."""
    errors = []

    def check(where, tag):
        known = KNOWN_SCHEMAS[where]
        if tag not in known:
            errors.append(
                f"{label}: unknown {'top-level' if not where else where} "
                f"schema '{tag}' (known: {', '.join(sorted(known))})"
            )

    check("", report.get("schema"))
    for section in SECTIONS:
        if section in report:
            check(section, report[section].get("schema"))
    return errors


def fail(errors):
    for err in errors:
        print(f"bench_compare: FAIL: {err}", file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        fail([f"cannot load {path}: {err}"])


def micro_medians(report):
    """name -> median_ms for a gaurast-bench-micro report."""
    return {
        r["name"]: r.get("median_ms")
        for r in report.get("results", [])
        if "name" in r
    }


def key_paths(node, prefix=""):
    """Every key path in a JSON value ("modes[].stats[].completed");
    array elements merge into one "[]" step, so list lengths never count."""
    if isinstance(node, dict):
        paths = set()
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            paths.add(path)
            paths |= key_paths(value, path)
        return paths
    if isinstance(node, list):
        paths = set()
        for value in node:
            paths |= key_paths(value, prefix + "[]")
        return paths
    return set()


def check_shape(baseline, current):
    errors = []
    errors += unknown_schema_errors("baseline", baseline)
    errors += unknown_schema_errors("current", current)
    base_schema = baseline.get("schema")
    cur_schema = current.get("schema")
    if base_schema != cur_schema:
        errors.append(
            f"top-level schema drift: baseline '{base_schema}' vs current "
            f"'{cur_schema}' (bump the committed baseline in the same PR)"
        )
    for section in SECTIONS:
        if section not in baseline:
            continue  # an older baseline never gates sections it lacks
        if section not in current:
            errors.append(f"section '{section}' missing from current report")
            continue
        base_tag = baseline[section].get("schema")
        cur_tag = current[section].get("schema")
        if base_tag != cur_tag:
            errors.append(
                f"section '{section}' schema drift: baseline '{base_tag}' "
                f"vs current '{cur_tag}'"
            )
            continue
        base_paths = key_paths(baseline[section])
        cur_paths = key_paths(current[section])
        if base_paths != cur_paths:
            changes = [f"-{p}" for p in sorted(base_paths - cur_paths)]
            changes += [f"+{p}" for p in sorted(cur_paths - base_paths)]
            errors.append(
                f"section '{section}' changed layout under unchanged tag "
                f"'{cur_tag}' (bump the tag): " + ", ".join(changes)
            )

    base_micro = micro_medians(baseline.get("micro", {}))
    cur_micro = micro_medians(current.get("micro", {}))
    missing = sorted(set(base_micro) - set(cur_micro))
    if missing:
        errors.append(
            "micro benchmarks missing from current report: " + ", ".join(missing)
        )
    return errors


def check_floors(current):
    errors = []
    for section, key, floor in FLOORS:
        value = current.get(section, {}).get("derived", {}).get(key)
        if value is None:
            errors.append(f"{section}.{key} missing: cannot check its floor")
        elif value < floor:
            errors.append(
                f"{section}.{key} = {value:.3f} is below its floor {floor:.3f}"
            )
    return errors


def ratio_table(baseline, current):
    """Markdown: per-benchmark current/baseline timing ratios + headlines."""
    lines = [
        "### Bench trajectory (current / committed baseline)",
        "",
        "Configs differ (quick vs canonical), so timing ratios are "
        "informational; the floor column holds the gate's thresholds.",
        "",
        "| benchmark | baseline median | current median | ratio |",
        "|---|---|---|---|",
    ]
    base_micro = micro_medians(baseline.get("micro", {}))
    cur_micro = micro_medians(current.get("micro", {}))
    for name in sorted(base_micro):
        base_ms = base_micro[name]
        cur_ms = cur_micro.get(name)
        if not base_ms or cur_ms is None:
            ratio = "n/a"
        else:
            ratio = f"{cur_ms / base_ms:.3f}x"
        cur_text = "missing" if cur_ms is None else f"{cur_ms:.3f} ms"
        lines.append(f"| {name} | {base_ms:.3f} ms | {cur_text} | {ratio} |")

    lines += [
        "",
        "| derived metric | baseline | current | floor |",
        "|---|---|---|---|",
    ]
    floors = {(section, key): floor for section, key, floor in FLOORS}

    def fmt(value):
        return "n/a" if value is None else f"{value:.3f}x"

    for section, key in (
        ("micro", "raster_fast_speedup"),
        ("micro", "raster_mt_speedup"),
        ("micro", "sort_parallel_speedup"),
        ("service", "sweep_speedup"),
        ("wire", "wire_relative_throughput"),
        ("fleet", "routed_relative_throughput"),
        ("faults", "faulted_relative_throughput"),
        ("scene_store", "budgeted_relative_throughput"),
        ("scene_store", "budgeted_hit_rate"),
    ):
        base_val = baseline.get(section, {}).get("derived", {}).get(key)
        cur_val = current.get(section, {}).get("derived", {}).get(key)
        if base_val is None and cur_val is None:
            continue
        floor = floors.get((section, key))
        floor_text = "" if floor is None else fmt(floor)
        lines.append(
            f"| {section}.{key} | {fmt(base_val)} | {fmt(cur_val)} "
            f"| {floor_text} |"
        )
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("baseline", help="committed canonical BENCH_pipeline.json")
    parser.add_argument("current", help="freshly produced report to gate")
    parser.add_argument(
        "--summary",
        default=os.environ.get("GITHUB_STEP_SUMMARY"),
        help="write the markdown ratio table here "
        "(default: $GITHUB_STEP_SUMMARY, else stdout)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)

    table = ratio_table(baseline, current)
    if args.summary:
        with open(args.summary, "a", encoding="utf-8") as f:
            f.write(table)
    else:
        print(table)

    errors = check_floors(current) + check_shape(baseline, current)
    if errors:
        fail(errors)
    print(
        f"bench_compare: OK — {args.current} clears every floor and matches "
        f"the shape of {args.baseline}"
    )


if __name__ == "__main__":
    main()
