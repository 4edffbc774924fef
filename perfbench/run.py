"""qcover benchmark: one workload per invocation, one caller in a closed loop.

    python3 perfbench/run.py --workload gf64-cli --seed 1 --seconds 20 --trace 0

Run from the root of a qcover checkout.  The command generates the
workload's inputs from --seed (outside the timed process), times set-up in
fresh interpreters, then starts perfbench/worker.py, which imports qcover from
`src/` and measures.  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run and the tracing overhead.
Every op's output is checked; the last line of output is one JSON object and
the exit status is nonzero when any op failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".perfbench-work"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 8          # fresh interpreters timed besides the measuring one
RUN_TIMEOUT_S = 170       # a run must end within 180 s
CENSUS_CYCLES_PER_S = 4   # random-census input cycles per second of run; ~3x headroom
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def start_worker(args, work: Path, *extra):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(ROOT), "--work", str(work),
           *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)


def run_worker(args, work: Path, *extra):
    """Start a worker; returns (seconds until READY, reference loop time just
    before the start, its result or None)."""
    reference_ms = speed.reference_ms()
    began = time.perf_counter()
    proc = start_worker(args, work, *extra)
    killer = threading.Timer(max(args.deadline - time.monotonic(), 1), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - began
        rest = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"worker exited with {code} (ready line {ready!r})")
    if "--setup-only" in extra:
        return setup_s, reference_ms, None
    try:
        return setup_s, reference_ms, json.loads(rest[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"worker printed no result: {rest[-1:]!r}") from exc


def tail(samples):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it.

    A run too short to have such a percentile reports its maximum.
    """
    ordered = sorted(samples)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def source_metadata() -> dict:
    """Commit (when the checkout is a git repository) and src/ line count."""
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (ROOT / "src").rglob("*.py"))
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"commit": commit, "src_lines": lines}


def end_to_end(setups, result) -> tuple:
    """End-to-end metrics, with times scaled to the nominal reference speed.

    Each op's latency is scaled by the reference timed just before it.  A
    set-up time varies more from one interpreter to the next than the
    reference can follow, so the median set-up time is scaled by the median
    of the references timed before each interpreter started.  `setups` holds
    (seconds, reference ms) pairs.
    """
    latencies_ms = [s * 1000 for s in result["latencies_s"]]
    scaled_ms = [lat * speed.NOMINAL_MS / ref
                 for lat, ref in zip(latencies_ms, result["reference_ms"])]
    tail_ms, tail_pct = tail(scaled_ms)
    # certified targets over the time the ops took, which is the loop's wall
    # time without the reference loop
    metrics = {
        "op_p50_ms": (statistics.median(scaled_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "targets_per_s": (result["targets"] * 1000 / sum(scaled_ms), "1/s"),
        "setup_s": (statistics.median(t for t, _ in setups) * speed.NOMINAL_MS
                    / statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    raw = {
        "op_p50_ms": statistics.median(latencies_ms),
        "op_tail_ms": tail(latencies_ms)[0],
        "targets_per_s": result["targets"] * 1000 / sum(latencies_ms),
        "setup_s": statistics.median(t for t, _ in setups),
        "reference_ms": statistics.median(result["reference_ms"]),
    }
    extra = {"tail_percentile": round(tail_pct, 2), "samples": len(latencies_ms),
             "raw": raw, "setup_samples_s": setups}
    return metrics, extra


def run(args) -> int:
    if not (ROOT / "src" / "qcover" / "__init__.py").is_file():
        raise BenchError(f"no qcover sources under {ROOT / 'src'}")
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        if args.workload == "random-census":
            inputs = work / "inputs"
            workloads.write_census_inputs(inputs / "warmup", workloads.WARMUP_SEED, 1)
            workloads.write_census_inputs(
                inputs / "measured", args.seed,
                max(1, int(args.seconds * CENSUS_CYCLES_PER_S)))
        else:
            work.mkdir(parents=True)
        if args.trace:
            OUT_DIR.mkdir(exist_ok=True)
            trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            result = run_worker(args, work, "--trace-file", str(trace_file))[2]
            metrics = {k: (v["value"], v["unit"]) for k, v in result["layers"].items()}
            extra = {"trace_file": str(trace_file.relative_to(ROOT)),
                     "traced_cycles": result["cycles"],
                     "counts_repeat": result["counts_repeat"],
                     "missing_functions": result["missing"]}
        else:
            setups = [run_worker(args, work, "--setup-only")[:2]
                      for _ in range(SETUP_PROBES)]
            setup_s, reference_ms, result = run_worker(args, work)
            setups.append((setup_s, reference_ms))
            metrics, extra = end_to_end(setups, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    errors = result["errors"]
    for error in errors:
        print(f"error: {error.rstrip()}", file=sys.stderr)
    correct = failed == 0 and not errors
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), **source_metadata(),
            "wall_s": result["wall_s"], "cycles": result["cycles"], **extra}
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} ops failed)")
    print("meta " + json.dumps(meta))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_TIMEOUT_S
    # a terminated run still stops its worker and removes its scratch files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
