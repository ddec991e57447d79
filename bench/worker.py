"""One benchmark workload in one process, as a single closed-loop client.

Usage: python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

The process pins BLAS/OpenMP to one thread before numpy is imported and caps
its own address space at CEILING_MB.  It builds one round of the workload
from the seed, runs one untimed warm-up op per distinct input shape, and
prints {"event": "ready"}; the parent times setup up to that line.  It then
runs whole rounds, each op sent only after the previous one finished, until
the time is up and at least the workload's TAIL_ROUNDS have run, and prints
{"event": "result", ...} as its last line.  latency_tail_ms is taken over the
first TAIL_ROUNDS rounds only, so its sample does not grow with speed.

With --trace 1 untraced and traced rounds alternate until the time is up:
the span tracer is installed before each traced round and removed after it,
so a slow spell of the machine hits both alike.  Per-layer numbers are per
traced round; the tracing overhead is the median traced round minus the
median untraced round.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import COMPUTED_METRICS, ROOT_SPAN, Tracer, span_names  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".bench_tmp"
CEILING_MB = 3072
TAIL_BEYOND = 10  # samples that must lie above the tail percentile
FAILURES_SHOWN = 5
IMPORT_PROBES = 3

os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
sys.path.insert(0, str(SRC))


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def blas_info() -> dict:
    """BLAS name and the thread count it reports, read from the loaded library."""
    import numpy as np

    name, threads = "unknown", None
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line and line.rstrip().endswith(".so")}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {"numpy": np.__version__, "blas": name, "blas_threads": threads}


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies, reverse=True)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 100.0
    return ordered[TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


class Phase:
    """Closed loop over whole rounds: at least `rounds` rounds and `seconds` seconds."""

    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.latencies = []
        self.round_ends = []  # len(latencies) after each round
        self.round_walls = []
        self.attempted = self.failed = self.rounds = 0
        self.wall = 0.0
        self.failures = []

    def run_op(self, op) -> None:
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                op.run()
            else:
                self.tracer.call(ROOT_SPAN, op.run)
        except Exception as exc:  # every failure is counted; none stops the run
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
        else:
            self.latencies.append(time.perf_counter() - t0)

    def run(self, seconds: float = 0.0, rounds: int = 1) -> "Phase":
        t0 = time.perf_counter()
        while self.rounds < rounds or time.perf_counter() - t0 < seconds:
            t_round = time.perf_counter()
            for op in self.ops:
                self.run_op(op)
            self.round_walls.append(time.perf_counter() - t_round)
            self.round_ends.append(len(self.latencies))
            self.rounds += 1
        self.wall += time.perf_counter() - t0
        return self


def report_failures(phases) -> None:
    for phase in phases:
        for failure in phase.failures:
            print(f"op failed: {failure}", file=sys.stderr)


def import_ms() -> float:
    """Median wall time of `import entangler_lab.cli` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import entangler_lab.cli; print(time.perf_counter() - t)"
    runs = [
        float(subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True).stdout)
        for _ in range(IMPORT_PROBES)
    ]
    return 1000.0 * statistics.median(runs)


def layer_metrics(tracer, traced: Phase, untraced: Phase, runner, cache_hits: int, cache_lookups: int) -> dict:
    """Per-layer numbers per traced round, plus the tracing overhead."""
    rounds = traced.rounds
    stats = {name: tracer.stats.get(name, (0, 0.0, 0.0, 0)) for name in span_names()}
    out = {}
    for name, (calls, _total, self_s, _bytes) in stats.items():
        out[f"{name}.calls"] = calls / rounds
        out[f"{name}.self_ms"] = 1000.0 * self_s / rounds
    for metric, spans in COMPUTED_METRICS.items():
        out[metric] = sum(stats[span][3] for span in spans) / 2**20 / rounds
    out["class_operators.cache_hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
    out["cli.import_ms"] = import_ms()
    out["cli.process_overhead_ms"] = 1000.0 * runner.process_overhead_s / rounds if runner else 0.0
    out["trace.untraced_ms"] = 1000.0 * statistics.median(untraced.round_walls)
    out["trace.traced_ms"] = 1000.0 * statistics.median(traced.round_walls)
    out["trace.overhead_ms"] = out["trace.traced_ms"] - out["trace.untraced_ms"]
    # Library spans' self time over the traced wall time.  The rest is bench.op
    # self time (result checks, process start for the CLI, and any library work
    # outside the wrapped functions) plus the loop itself.
    library_s = sum(v[2] for name, v in tracer.stats.items() if name != ROOT_SPAN)
    out["trace.library_share"] = library_s / traced.wall
    return out


def cache_counts() -> tuple[int, int]:
    """(hits, misses) of the class-operator cache, or zeros once it no longer exists."""
    from entangler_lab import class_operators

    info = getattr(getattr(class_operators, "_class_operator_cached", None), "cache_info", None)
    if info is None:
        return 0, 0
    current = info()
    return current.hits, current.misses


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    ceiling = CEILING_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))

    import numpy as np

    import workloads

    info = {
        **blas_info(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "ceiling_mb": CEILING_MB,
    }
    if info["blas_threads"] is None:
        info["blas_threads"] = "unverified"  # no known thread-count symbol; only the env vars pin it
    elif info["blas_threads"] != 1:
        raise RuntimeError(f"BLAS reports {info['blas_threads']} threads, expected 1")
    TMP_PARENT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT)
    try:
        tally = workloads.Tally()
        ops, runner = workloads.build(args.workload, np.random.default_rng(args.seed), tally, ROOT, tmpdir)
        warmup = Phase(ops)
        seen = set()
        for op in ops:
            if op.key not in seen:
                seen.add(op.key)
                warmup.run_op(op)
        emit("ready")
        if args.setup_only:
            return 0
        phases = [warmup]
        if not args.trace:
            tail_rounds = workloads.TAIL_ROUNDS[args.workload]
            timed = Phase(ops).run(seconds=args.seconds, rounds=tail_rounds)
            phases.append(timed)
            tail_sample = timed.latencies[: timed.round_ends[tail_rounds - 1]]
            if not tail_sample:
                report_failures(phases)
                raise RuntimeError("every timed op failed")
            value, percentile = tail(tail_sample)
            usage = resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF
            metrics = {
                # the median round resists a passing slowdown of the machine better than the mean
                "ops_per_s": len(timed.latencies) / timed.rounds / statistics.median(timed.round_walls),
                "latency_p50_ms": 1000.0 * statistics.median(timed.latencies),
                "latency_tail_ms": 1000.0 * value,
                "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
            }
            info.update(tail_percentile=percentile, tail_samples=len(tail_sample), tail_rounds=tail_rounds,
                        samples=len(timed.latencies), rounds=timed.rounds)
        else:
            tracer = Tracer()
            untraced, traced = Phase(ops), Phase(ops, tracer)
            hits = lookups = 0
            t0 = time.perf_counter()
            while traced.rounds < 1 or time.perf_counter() - t0 < args.seconds:
                untraced.run(rounds=untraced.rounds + 1)
                tracer.install()
                if runner:
                    runner.tracer = tracer
                before = cache_counts()
                traced.run(rounds=traced.rounds + 1)
                after = cache_counts()
                tracer.uninstall()
                if runner:
                    runner.tracer = None
                hits += after[0] - before[0]
                lookups += after[0] - before[0] + after[1] - before[1]
            phases += [untraced, traced]
            metrics = layer_metrics(tracer, traced, untraced, runner, hits, lookups)
            info.update(rounds=traced.rounds)
        report_failures(phases)
        emit(
            "result",
            attempted=sum(p.attempted for p in phases),
            failed=sum(p.failed for p in phases),
            oracle_checked=tally.oracle_checked,
            disagree=tally.disagree,
            metrics=metrics,
            info=info,
        )
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
