"""Smoke run of the benchmark harness; takes seconds, not minutes.

Run from the repository root:

    python3 perfbench/smoke.py

Runs a scaled-down instance (``--smoke``: fewer reps, about a second of
measuring) of every workload in BENCHMARK.json, untraced and traced, and
checks the result line: its keys, that the run is correct, that exactly
the metrics BENCHMARK.json names are emitted, each with its unit and a
finite value, that every name matches [A-Za-z0-9_.-]+, and that the
traced estimator self time is non-negative. Exits 1 on any failure.
"""
from __future__ import annotations

import json
import math
import re
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9_.-]+")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_result(label: str, result: dict, declared: dict) -> list[str]:
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"not correct: failed {result.get('failed')} of {result.get('attempted')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted = {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    for name in sorted(set(declared) ^ set(metrics)):
        problems.append(f"{name} is {'missing' if name in declared else 'not declared'}")
    for name, m in metrics.items():
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name} unit {m.get('unit')!r}, declared {declared[name]!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} value {m.get('value')!r}")
    self_ms = metrics.get("estimator.self.ms_per_estimate", {}).get("value", 0.0)
    if self_ms < 0.0:
        problems.append(f"estimator.self.ms_per_estimate is negative: {self_ms}")
    return [f"{label}: {p}" for p in problems]


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in spec["workloads"]:
        if not NAME.fullmatch(wl["name"]):
            problems.append(f"bad workload name {wl['name']!r}")
        for trace in (0, 1):
            label = f"{wl['name']} --trace {trace}"
            cmd = [sys.executable, *spec["command"][1:], "--workload", wl["name"], "--seed", "0",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems += check_result(label, result, declared[trace])
            print(f"{label}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, {result['failed']} failed")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
