"""Timed process of the qcover benchmark; started by run.py, one per run.

It imports qcover from the checkout's `src/`, runs the workload's warm-up
cycle, prints READY (run.py times set-up up to that line), then measures:

- untraced (`--trace 0`): one caller in a closed loop runs whole cycles of
  ops until `--seconds` have passed, timing the speed reference loop before
  each op; nothing is patched;
- traced (`--trace 1`): the first cycle runs once with field arithmetic
  counted, then untraced and with spans, in alternation, until `--seconds`
  have passed.  The tracing overhead is span-traced over untraced time.

The last line of its output is one JSON object with the raw samples.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import speed
import workloads

MAX_ERRORS_KEPT = 5


def run_ops(ops, state: dict, reference: bool = False) -> float:
    """Run ops in order, recording latency, failures and certified targets.

    With reference, the speed reference is timed before each op.
    """
    began = time.perf_counter()
    for op in ops:
        if reference:
            state["reference_ms"].append(speed.reference_ms())
        start = time.perf_counter()
        try:
            certified = op()
        except Exception:  # every failure of an op is counted, none stops the run
            state["failed"] += 1
            if len(state["errors"]) < MAX_ERRORS_KEPT:
                state["errors"].append(traceback.format_exc(limit=3))
        else:
            state["targets"] += certified
        state["latencies_s"].append(time.perf_counter() - start)
        state["attempted"] += 1
    return time.perf_counter() - began


def new_state() -> dict:
    return {"attempted": 0, "failed": 0, "targets": 0, "latencies_s": [],
            "reference_ms": [], "errors": []}


def measure(workload, seconds: float) -> dict:
    state = new_state()
    began = time.perf_counter()
    cycles = 0
    while cycles == 0 or time.perf_counter() - began < seconds:
        ops = workload.cycle(cycles)
        if ops is None:
            break
        run_ops(ops, state, reference=True)
        cycles += 1
    state["wall_s"] = time.perf_counter() - began
    state["cycles"] = cycles
    return state


def measure_traced(workload, seconds: float, trace_path: Path, meta: dict) -> dict:
    from tracer import Tracer
    tracer = Tracer()
    state = new_state()
    ops = workload.cycle(0)
    untraced_s = traced_s = 0.0
    began = time.perf_counter()
    metrics = tracer.field_counts(lambda: run_ops(ops, state))
    first = None
    self_s = {}
    pairs = 0
    counts_repeat = True
    while pairs == 0 or time.perf_counter() - began < seconds:
        untraced_s += run_ops(ops, state)
        tracer.reset()
        with tracer.patched():
            traced_s += run_ops(ops, state)
        layers = tracer.layer_metrics()
        if first is None:
            first = layers
            tracer.write(trace_path, dict(meta, missing=sorted(tracer.missing)))
        elif any(layers[k] != first[k] for k in first if first[k][1] != "s"):
            counts_repeat = False  # the program kept state from an earlier cycle
        for key, (value, unit) in layers.items():
            if unit == "s":
                self_s.setdefault(key, []).append(value)
        pairs += 1
    metrics.update(first)
    for key, values in self_s.items():
        metrics[key] = (statistics.median(values), "s")
    metrics["trace.overhead"] = (traced_s / untraced_s, "x")
    state.update(wall_s=time.perf_counter() - began, cycles=pairs,
                 layers={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                 missing=sorted(tracer.missing), counts_repeat=counts_repeat)
    return state


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import qcover
    src = (args.root / "src").resolve()
    if src not in Path(qcover.__file__).resolve().parents:
        print(f"qcover imported from {qcover.__file__}, not {src}", file=sys.stderr)
        return 2
    workload = workloads.make_workload(args.workload, args.seed, args.work,
                                       args.work / "inputs")
    warm = new_state()
    run_ops(workload.warmup, warm)
    if warm["failed"]:
        print("".join(warm["errors"]), file=sys.stderr)
        return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        meta = {"workload": args.workload, "seed": args.seed}
        result = measure_traced(workload, args.seconds, args.trace_file, meta)
    else:
        result = measure(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
