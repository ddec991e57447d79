"""entangler-lab benchmark: one seeded workload per call, every result checked.

Usage:
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...    # every workload in turn

W is one of WORKLOADS.  Each workload runs in its own worker process
(bench/worker.py) with BLAS/OpenMP pinned to one thread and a memory ceiling;
a single closed-loop client sends the next op only after the previous one
finished.  The same seed gives the same inputs.

With --trace 0 the end-to-end metrics are measured with tracing off.
setup_s is the median over SETUP_REPEATS fresh worker processes of the time
from process start to ready-to-time.  With --trace 1 a traced run reports
per-layer metrics (see bench/README.md).

Stdout: a human-readable report, then as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when every
worker finished, whatever the checks found; a run that cannot start or
finish exits non-zero without the JSON line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("classify-ladder", "three-party-crosscheck", "gate-braid-sweep", "cli-files")
SETUP_REPEATS = 3
# A run must end within DEADLINE_BASE_S + DEADLINE_PER_SECOND * --seconds
# (170 s at --seconds 20); a worker still running then is killed.
DEADLINE_BASE_S = 90.0
DEADLINE_PER_SECOND = 4.0


class BenchError(Exception):
    """The benchmark could not run to the end; no result is printed."""


def declared_metrics() -> tuple[dict, set, set]:
    """From BENCHMARK.json: unit per metric, end-to-end names, per-layer names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def run_worker(args, deadline: float, setup_only: bool = False) -> tuple[float, dict | None]:
    """Start one worker; return (seconds until it was ready, its result message)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            message = json.loads(line)
            if message["event"] == "ready":
                ready = time.perf_counter() - t0
            elif message["event"] == "result":
                result = message
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (result is None and not setup_only):
        raise BenchError(f"worker for {args.workload} exited with code {code}")
    return ready, result


def measure(args, declared: set) -> dict:
    """Run one workload; return {"correct", "attempted", "failed", "metrics", "info", ...}."""
    deadline = time.monotonic() + DEADLINE_BASE_S + DEADLINE_PER_SECOND * args.seconds
    setups = []
    if not args.trace:
        setups = [run_worker(args, deadline, setup_only=True)[0] for _ in range(SETUP_REPEATS - 1)]
    ready, result = run_worker(args, deadline)
    setups.append(ready)
    failed, attempted = result["failed"], result["attempted"]
    checked = result["oracle_checked"]
    ratios = {
        "error_ratio": failed / attempted,
        "disagree_ratio": result["disagree"] / checked if checked else 0.0,
    }
    if args.trace:
        metrics = {**result["metrics"], **ratios}
    else:
        metrics = {"setup_s": statistics.median(setups), **result["metrics"]}
    if set(metrics) != declared:
        raise BenchError(f"measured metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ declared)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {**metrics, **ratios},
        "info": {**result["info"], "setup_runs_s": setups, "oracle_checked": checked},
    }


def print_report(workload: str, measured: dict, units: dict) -> None:
    info = measured["info"]
    print(f"== {workload}  seed={info['seed']}  trace={'on' if 'trace.traced_ms' in measured['metrics'] else 'off'}")
    print("   " + "  ".join(f"{k}={info[k]}" for k in ("python", "numpy", "blas", "blas_threads", "nproc", "ceiling_mb")))
    print(f"   attempted={measured['attempted']}  failed={measured['failed']}  rounds={info['rounds']}"
          f"  oracle_checked={info['oracle_checked']}")
    for name, value in measured["report"].items():
        print(f"   {name:<48} {value:>14.6g} {units[name]}")
    if "tail_percentile" in info:
        print(f"   latency_tail_ms is p{info['tail_percentile']:.2f} of n={info['tail_samples']}"
              f" (the first {info['tail_rounds']} rounds)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "entangler_lab" / "__init__.py").is_file():
        print(f"error: no entangler_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units, end_to_end, per_layer = declared_metrics()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            measured = measure(argparse.Namespace(**{**vars(args), "workload": name}),
                               per_layer if args.trace else end_to_end)
            print_report(name, measured, units)
            summary["correct"] &= measured["correct"]
            summary["attempted"] += measured["attempted"]
            summary["failed"] += measured["failed"]
            prefix = "" if len(names) == 1 else f"{name}/"
            summary["metrics"].update(
                {prefix + k: {"value": v, "unit": units[k]} for k, v in measured["metrics"].items()}
            )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
