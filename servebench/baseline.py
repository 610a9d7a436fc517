#!/usr/bin/env python3
"""Repeated runs of the serving benchmark, summarized per metric.

Runs every workload `--runs` times, each with its own seed, in `--sets`
sets, and prints for each end-to-end metric its median, quartiles
(`statistics.quantiles(values, n=4)`) and spread (quartile distance over the
median), per set. With `--out`, writes the summary and every run's values as
JSON. Run from the repository root:

    python3 servebench/baseline.py --sets 2 --runs 10 --out servebench/BASELINE.json
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{done.stdout[-2000:]}")
    steal = re.search(r"host steal ([0-9.]+)% of CPU time", done.stdout)
    return ({name: m["value"] for name, m in result["metrics"].items()},
            float(steal.group(1)) if steal else None)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    args = parser.parse_args()
    bench = json.load(open(os.path.join(HERE, os.pardir, "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"run_seconds": seconds, "host": {"nproc": os.cpu_count()}, "sets": []}
    for s in range(args.sets):
        summary = {}
        for workload in workloads:
            runs, steals = [], []
            for r in range(args.runs):
                seed = 1000 * (s + 1) + r
                started = time.time()
                metrics, steal = run_once(workload, seed, seconds, 0)
                runs.append(metrics)
                steals.append(steal)
                print(f"set {s + 1} {workload} seed {seed}: {time.time() - started:.0f}s steal {steal}% "
                      + " ".join(f"{k}={v:.4g}" for k, v in metrics.items()), flush=True)
            summary[workload] = {
                name: {**summarize([run[name] for run in runs]),
                       "values": [run[name] for run in runs]}
                for name in runs[0]
            }
            summary[workload]["host_steal_percent"] = steals
            for name in runs[0]:
                st = summary[workload][name]
                flag = "" if st["spread"] is None or name == "setup_s" or \
                    st["spread"] <= bounds[name] / 3 else "  <-- above a third of its bound"
                print(f"set {s + 1} {workload:13s} {name:13s} median {st['median']:12.4f} "
                      f"q1 {st['q1']:12.4f} q3 {st['q3']:12.4f} spread {st['spread']:.4f} "
                      f"(bound {bounds[name]}){flag}", flush=True)
        out["sets"].append(summary)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    for later in out["sets"][1:]:
        for workload in workloads:
            for name in bounds:
                first = out["sets"][0][workload][name]["median"]
                worse = (later[workload][name]["median"] - first) / first
                if better[name] == "higher":
                    worse = -worse
                flag = "  <-- worse by more than its bound" if worse > bounds[name] else ""
                print(f"drift {workload:13s} {name:13s} {worse:+.4f} (bound {bounds[name]}){flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
