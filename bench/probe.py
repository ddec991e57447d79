"""Computed dense bytes per rung, and a probe of the rungs kept out of the timed mix.

Usage: python3 bench/probe.py

Prints, for every rung the workloads time, the dense bytes it computes
(formulas from shapes, labelled "computed"; nothing here is measured),
including the class-operator cache's resident bytes over one classify-ladder
round, simulated as the 256-entry LRU cache it is.  Then runs each rung over
the memory ceiling in its own process under that ceiling and a time limit,
and counts every one that does not complete as a failure.  Exits 0 when the
probe ran, whatever it counted.
"""

import math
import subprocess
import sys
from collections import OrderedDict
from itertools import combinations

import worker  # pins BLAS threads and puts the library on sys.path before numpy loads

import workloads  # noqa: E402

import numpy as np  # noqa: E402

import entangler_lab as el  # noqa: E402

MB = 2**20
CACHE_ENTRIES = 256
PROBE_TIMEOUT_S = 60


def proposition_check_4096():
    el.proposition_check(el.EntanglerSpec(12, 2, np.ones(4096)), el.ClassKind.GHZ)


def braid_relations_d2_n12():
    el.check_braid_relations(el.StrandRep(12, el.build_r(el.EntanglerSpec(2, 2, np.ones(4))).mat))


# rungs over the ceiling at the seed: name -> (computed bytes, the op).  The
# braid rung holds 11 generators plus the three d x d temporaries of one relation.
OVER_CEILING = {
    "proposition_check d=4096 (m=12 N=2)": (2 * math.comb(12, 2) * 4096**2 * 16, proposition_check_4096),
    "StrandRep + check_braid_relations d=2 n=12": ((11 + 3) * 4096**2 * 16, braid_relations_d2_n12),
}


def classify_rows():
    """(rung, operators per classify, bytes per operator)."""
    shapes = [(2,) * m for m in workloads.LADDER_QUBITS] + [(3,) * m for m in workloads.LADDER_QUTRITS]
    shapes += [(2,) * m for m in workloads.LADDER_STRUCTURED] * 3
    return [(dims, 2 * math.comb(len(dims), 2), math.prod(dims) ** 2 * 16) for dims in shapes]


def cache_residency(rows, rounds: int = 2) -> int:
    """Peak resident bytes of the LRU operator cache over repeated ladder rounds."""
    cache, resident, peak = OrderedDict(), 0, 0
    for _ in range(rounds):
        for dims, _count, nbytes in rows:
            for kind in ("EPR", "GHZ"):
                for pair in combinations(range(len(dims)), 2):
                    key = (dims, kind, pair)
                    if key in cache:
                        cache.move_to_end(key)
                        continue
                    cache[key] = nbytes
                    resident += nbytes
                    if len(cache) > CACHE_ENTRIES:
                        resident -= cache.popitem(last=False)[1]
                    peak = max(peak, resident)
    return peak


def print_table() -> None:
    rows = classify_rows()
    print("computed dense bytes per rung (formulas, not measurements)")
    seen = set()
    for dims, count, nbytes in rows:
        if dims in seen:
            continue
        seen.add(dims)
        print(f"  classify dims={list(dims)}: {count} class operators x {nbytes / MB:.3f} MB"
              f" = {count * nbytes / MB:.1f} MB")
    print(f"  class-operator cache, peak resident over a classify-ladder round: {cache_residency(rows) / MB:.1f} MB")
    for m, N in workloads.GATE_SHAPES:
        d = N**m
        # build_r x5 (decomposition, unitarity, apply, two OUTPUT checks), P, P@R, R@P, R R^dagger, I
        print(f"  gate m={m} N={N} d={d}: 10 dense d x d matrices per op = {10 * d * d * 16 / MB:.3f} MB")
    for N, strands in workloads.BRAID_STRANDS.items():
        for n in strands:
            print(f"  braid d={N} n={n}: generators (n-1)*d^(2n)*16 = {(n - 1) * N ** (2 * n) * 16 / MB:.3f} MB")


def run_rung(name: str) -> None:
    import resource

    ceiling = worker.CEILING_MB * MB
    resource.setrlimit(resource.RLIMIT_AS, (ceiling, ceiling))
    OVER_CEILING[name][1]()


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--rung":
        run_rung(sys.argv[2])
        return 0
    print_table()
    failed = 0
    print(f"over-ceiling probe (ceiling {worker.CEILING_MB} MB, {PROBE_TIMEOUT_S} s each)")
    for name, (nbytes, _op) in OVER_CEILING.items():
        try:
            proc = subprocess.run([sys.executable, __file__, "--rung", name], capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, check=False)
            outcome = "completed" if proc.returncode == 0 else (proc.stderr.strip().splitlines() or ["killed"])[-1]
        except subprocess.TimeoutExpired:
            outcome = f"timed out after {PROBE_TIMEOUT_S} s"
        failed += outcome != "completed"
        print(f"  {name}: computed {nbytes / MB:.0f} MB -> {outcome}")
    print(f"  probe attempted={len(OVER_CEILING)} failed={failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
