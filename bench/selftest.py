"""Self-test: a planted wrong result must be counted as a failed op.

Usage: python3 bench/selftest.py

For each workload, one round runs clean (no op may fail) and one round runs
with a wrong result planted in the library's answers (at least one op must
fail).  Exits 0 when every plant was caught, 1 otherwise.
"""

import dataclasses
import os
import sys
import tempfile

import worker  # pins BLAS threads and puts the library on sys.path before numpy loads

import numpy as np  # noqa: E402

import entangler_lab as el  # noqa: E402
import workloads  # noqa: E402


def wrong_verdict(classify):
    def planted(state, *args, **kwargs):
        report = classify(state, *args, **kwargs)
        flipped = el.Verdict.W_CLASS_CONDITIONS if report.verdict is el.Verdict.BOTH else el.Verdict.BOTH
        return dataclasses.replace(report, verdict=flipped)

    return planted


def wrong_expansion(expansion):
    return lambda state, pair: 1.5 * expansion(state, pair)


def wrong_output(apply_entangler):
    def planted(spec, state):
        out = apply_entangler(spec, state)
        return el.PureState(out.dims, np.roll(out.amps, 1))

    return planted


# workload -> (attribute of entangler_lab to replace, planted replacement), or an env var for the CLI
PLANTS = {
    "classify-ladder": ("classify", wrong_verdict),
    "three-party-crosscheck": ("epr_expansion_3q", wrong_expansion),
    "gate-braid-sweep": ("apply_entangler", wrong_output),
    "cli-files": ("ENTANGLER_LAB_TOL", "0.5"),  # a different tolerance changes every report
}


def failures(name: str, tmpdir: str) -> int:
    ops, _runner = workloads.build(name, np.random.default_rng(0), workloads.Tally(), worker.ROOT, tmpdir)
    phase = worker.Phase(ops).run(rounds=1)
    return phase.failed


def main() -> int:
    ok = True
    worker.TMP_PARENT.mkdir(exist_ok=True)
    for name, (target, plant) in PLANTS.items():
        with tempfile.TemporaryDirectory(dir=worker.TMP_PARENT) as tmpdir:
            clean = failures(name, tmpdir)
            if isinstance(plant, str):
                os.environ[target] = plant
                try:
                    planted = failures(name, tmpdir)
                finally:
                    del os.environ[target]
            else:
                original = getattr(el, target)
                setattr(el, target, plant(original))
                try:
                    planted = failures(name, tmpdir)
                finally:
                    setattr(el, target, original)
        caught = clean == 0 and planted > 0
        ok &= caught
        print(f"{name:<24} clean failures={clean}  planted failures={planted}  {'ok' if caught else 'NOT CAUGHT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
