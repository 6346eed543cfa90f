"""Repeat the benchmark over seeds and record median and spread per metric.

Run from the repository root:

    python3 perfbench/record.py --runs 10 --out perfbench/baseline.json

For each seed 1..runs, every workload of BENCHMARK.json runs once
(workloads interleaved, so a slow spell of the machine hits all of them
alike) with its command and ``run_seconds``. Each end-to-end metric
gets its median, quartiles and spread (quartile distance over median),
printed against its bound and a third of it; the largest spread over
bound, ``setup_s`` included, closes the report. ``--traced`` adds one
traced run per workload and records its per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] in ("python", "python3") else cmd[0]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"] if len(lines) > 1 else {}
    return result


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in names}
    t0 = time.monotonic()
    for seed in range(1, args.runs + 1):
        for w in names:
            res = run_once(spec["command"], w, seed, seconds, 0)
            if not res["correct"]:
                print(f"{w} seed {seed}: failed {res['failed']} of {res['attempted']}", file=sys.stderr)
            results[w].append(res)
        print(f"seed {seed} done after {time.monotonic() - t0:.0f} s", file=sys.stderr)

    # the environment of the first workload's first run; only the worker
    # count differs between workloads (see WORKLOADS in run.py)
    summary = {"command": spec["command"], "run_seconds": seconds, "runs": args.runs,
               "seeds": [1, args.runs],
               "env": results[names[0]][0]["env"], "workloads": {}}
    worst = 0.0
    for w in names:
        entry = {"correct_runs": sum(r["correct"] for r in results[w]), "end_to_end": {}}
        for m, meta in bounds.items():
            s = summarize([r["metrics"][m]["value"] for r in results[w]])
            s["unit"] = meta["unit"]
            s["bound"] = meta["bound"]
            entry["end_to_end"][m] = s
            flag = ("" if s["spread"] < meta["bound"] / 3 else
                    "  <-- above bound/3" if s["spread"] <= meta["bound"] else "  <-- OVER BOUND")
            worst = max(worst, s["spread"] / meta["bound"])
            print(f"{w:14s} {m:16s} median {s['median']:12.5g} {meta['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {meta['bound']}){flag}")
        if args.traced:
            res = run_once(spec["command"], w, 0, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
            entry["per_layer_units"] = {k: v["unit"] for k, v in res["metrics"].items()}
        summary["workloads"][w] = entry
    print(f"largest spread / bound: {worst:.3f}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
