"""Repeat the benchmark over seeds; report each metric's median, quartiles and spread.

    python3 perfbench/proof.py --seeds 1-10 [--workloads gf64-cli,q3-dual]
                               [--trace 0|1] [--out results.json]

Runs perfbench/run.py once per (workload, seed), one run at a time, with the
run length from BENCHMARK.json.  Spread is (q3 - q1) / median with quartiles
from statistics.quantiles(values, n=4).  For an end-to-end metric the report
marks a spread at or above a third of the metric's bound.  With --trace 1 it
also reports whether each count metric repeats exactly across runs of one
seed.  Exits nonzero if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "spread": 0.0}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seconds": spec["run_seconds"], "trace": args.trace, "seeds": seeds,
              "workloads": {}}
    failed_runs = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                failed_runs += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                continue
            result = json.loads(lines[-1])
            meta = json.loads(next(l for l in lines if l.startswith("meta "))[5:])
            runs.append({"seed": seed, "meta": meta, **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()
                if args.trace == 0), flush=True)
        metrics = {}
        for name in (runs[0]["metrics"] if runs else {}):
            values = [r["metrics"][name]["value"] for r in runs]
            entry = {"unit": runs[0]["metrics"][name]["unit"], "values": values,
                     **summarize(values)}
            if name in bounds:
                entry["bound"] = bounds[name]
                entry["steady"] = entry["spread"] < bounds[name] / 3
            if args.trace and entry["unit"] != "s" and name != "trace.overhead":
                by_seed = {}
                for r in runs:
                    by_seed.setdefault(r["seed"], set()).add(r["metrics"][name]["value"])
                entry["repeats_exactly"] = all(len(v) == 1 for v in by_seed.values())
            metrics[name] = entry
        report["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, entry in metrics.items():
            flag = ""
            if "steady" in entry:
                flag = "" if entry["steady"] else "  <-- spread >= bound/3"
            if entry.get("repeats_exactly") is False:
                flag = "  <-- count differs between runs of one seed"
            print(f"{workload:14s} {name:42s} median={entry['median']:<12.6g} "
                  f"q1={entry['q1']:<12.6g} q3={entry['q3']:<12.6g} "
                  f"spread={entry['spread']:.4f}{flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1))
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
