#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report its spread.

Run from the repository root:

    python3 perfbench/spread.py --runs 10 --workloads wan64_graded
    python3 perfbench/spread.py --runs 10 --record

For each workload and end-to-end metric it prints the median of the runs,
their quartiles, and the spread (Q3 - Q1) / median as a share of the
metric's bound. With --record it also makes one traced run per workload and
writes BENCHMARK.json (the benchmark definition from `perfbench -spec`) and
perfbench/RECORD.json (host facts, the layer map and every number measured).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args):
    """Runs perfbench through run.py and returns its final JSON line."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def regime_checks(workloads):
    """The per-layer figures that show each workload is in its regime."""
    layer = {name: w.get("per_layer", {}) for name, w in workloads.items()}
    wan, coarse = layer.get("wan64_graded"), layer.get("coarse64_traffic")
    if not wan or not coarse:
        return {}
    return {
        "cpu.eventq higher on wan64_graded than on coarse64_traffic":
            wan["cpu.eventq"] > coarse["cpu.eventq"],
        "cpu.host higher on coarse64_traffic than on wan64_graded":
            coarse["cpu.host"] > wan["cpu.host"],
        "cluster.fast_node_share is 0 on coarse64_traffic":
            coarse["cluster.fast_node_share"] == 0,
        "cluster.fast_partial_share is 1 on wan64_graded":
            wan["cluster.fast_partial_share"] == 1,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seconds", type=float, default=0, help="default: run_seconds")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    spec = json.loads(subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--spec"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout)
    definition = spec["benchmark"]
    seconds = args.seconds or definition["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in definition["workloads"]]
    record = {"host": spec["host"], "layers": spec["layers"], "run_seconds": seconds,
              "seeds": [args.first_seed, args.first_seed + args.runs - 1], "workloads": {}}
    worst = 0.0
    for name in names:
        values = {m["name"]: [] for m in definition["end_to_end"]}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = json.loads(bench("--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", "0"))
            failed += res["failed"]
            attempted += res["attempted"]
            for metric, v in res["metrics"].items():
                values[metric].append(v["value"])
        print(f"{name}: {args.runs} runs; failed_frac {failed / attempted:.6f} ({failed} of {attempted} calls)")
        entry = {"failed": failed, "attempted": attempted, "end_to_end": {}}
        for m in definition["end_to_end"]:
            s = summarize(values[m["name"]])
            entry["end_to_end"][m["name"]] = s
            share = s["spread"] / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            print(f"  {m['name']:14} median {s['median']:14.6f} {m['unit']:6} "
                  f"q1 {s['q1']:14.6f} q3 {s['q3']:14.6f} spread {s['spread']:.4f} "
                  f"= {share:.2f} of bound {m['bound']}")
            print("    " + " ".join(f"{v:.6g}" for v in s["values"]))
        if args.record:
            traced = json.loads(bench("--workload", name, "--seed", str(args.first_seed),
                                      "--seconds", str(seconds), "--trace", "1"))
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    print(f"largest spread, setup_s excepted: {worst:.2f} of its bound")
    if args.record:
        record["regime_checks"] = regime_checks(record["workloads"])
        for check, ok in record["regime_checks"].items():
            print(f"{'ok  ' if ok else 'FAIL'} {check}")
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(definition, f, indent=2)
            f.write("\n")
        with open(os.path.join(HERE, "RECORD.json"), "w") as f:
            json.dump(record, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
