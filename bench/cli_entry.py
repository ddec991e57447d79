"""Run `entangler_lab.cli.main`, the function behind the `entangler-lab` command.

Usage: [BENCH_TRACE_OUT=<spans.json>] python3 bench/cli_entry.py <cli args...>

Behaves like the `entangler-lab` command (same stdout, stderr and exit code).
The cli-files workload starts every CLI process through this file, traced or
not, so both phases pay the same start-up.  When BENCH_TRACE_OUT is set, the
span tracer is installed before `main` runs and, on exit, the aggregated
spans are written to that file as {name: [calls, total_s, self_s,
computed_bytes]}.
"""

import json
import os
import sys


def main() -> int:
    import entangler_lab.cli as cli

    out = os.environ.get("BENCH_TRACE_OUT")
    if out is None:
        return cli.main(sys.argv[1:])

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats, fh)


if __name__ == "__main__":
    sys.exit(main())
