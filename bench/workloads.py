"""Seeded inputs, operations and result checks for the four benchmark workloads.

`build(name, rng, tally, root, tmpdir)` returns one round of the workload:
a fixed, ordered list of `Op`s whose input values come from `rng`.  The
shapes and the order of a round never depend on the seed, so every seed asks
for the same work; only the numbers differ.  Each op calls the library
through the `entangler_lab` package attributes (so a tracer installed later
sees the calls) and checks the result against what the input was built to
be, raising `CheckFailed` when it is wrong.

Why each workload exists:

* classify-ladder -- `classify` over the rungs qubits m=3..10 and qutrits
  m=3..6: 396 distinct class operators against a 256-entry operator cache,
  so dense operator construction and the bilinear form dominate.
* three-party-crosscheck -- many small 3-party states: both explicit
  expansions per pair and, for qubits, the independent oracle.  The dims
  repeat, so every operator lookup hits the cache; Python-level expansions
  and the oracle dominate.  It includes the near-product band on which the
  oracle is known to disagree with certified verdicts.
* gate-braid-sweep -- gates up to d=1024 on few subsystems through
  decomposition, unitarity, apply and `proposition_check`, plus YBE, braid
  relations and the quasitriangular relation for m=2 gates: the only
  workload where `entangler` and `braid` do most of the work.
* cli-files -- one `entangler-lab ... --json` process at a time on bundled,
  generated and malformed files: process start, import, parse and render.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import entangler_lab as el

TOL = el.DEFAULT_TOL

# classify-ladder rungs
LADDER_QUBITS = range(3, 11)
LADDER_QUTRITS = range(3, 7)
LADDER_STRUCTURED = range(3, 10)  # GHZ, W and product states

# three-party-crosscheck mix per round
CROSSCHECK_RANDOM_QUBITS = 48
CROSSCHECK_PER_CLASS = 8  # GHZ, W, LU-rotated GHZ, LU-rotated W, product
CROSSCHECK_QUDITS = range(3, 7)  # one random (N, N, N) state each
# |111> + eps*GHZ and |111> + eps*W: conditions certify entanglement while the
# oracle calls the state PRODUCT.  Fixed points, independent of the seed.
NEAR_PRODUCT_GHZ = (1e-5, 1e-6, 1e-7, 1e-8)
NEAR_PRODUCT_W = (1e-3, 1e-4)

# gate-braid-sweep mix per round: (m, N) gates, d up to 1024 on few subsystems,
# and strands n per braid N
GATE_SHAPES = (
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (2, 8), (3, 4), (5, 2), (2, 16), (3, 8), (2, 32), (3, 10),
)
BRAID_STRANDS = {2: range(3, 9), 3: range(3, 6), 4: range(3, 5)}

# relative tolerance of the identity operator route = +-2 x expansion
EXPANSION_RTOL = 1e-10


class CheckFailed(Exception):
    """An operation returned a result other than the one its input was built to give."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Tally:
    """Oracle cross-check outcomes, kept apart from failures."""

    oracle_checked: int = 0
    disagree: int = 0

    def record(self, agreement: str) -> None:
        self.oracle_checked += 1
        self.disagree += agreement == "DISAGREE"


@dataclass
class Op:
    key: str  # input shape; the first op of each key is the warm-up
    run: Callable[[], None]


# ---------------------------------------------------------------------------
# input builders


def random_amps(rng, d: int) -> np.ndarray:
    scale = 10.0 ** rng.uniform(-2, 2)
    return scale * (rng.normal(size=d) + 1j * rng.normal(size=d))


def random_state(rng, dims) -> el.PureState:
    return el.PureState(dims, random_amps(rng, math.prod(dims)))


def scaled(rng, state: el.PureState) -> el.PureState:
    return el.PureState(state.dims, random_amps(rng, 1)[0] * state.amps)


def random_product(rng, m: int) -> el.PureState:
    return el.product_state([random_state(rng, (2,)) for _ in range(m)])


def haar_unitary(rng, n: int) -> np.ndarray:
    z = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def lu_rotated(rng, state: el.PureState) -> el.PureState:
    u = el.kron_all([haar_unitary(rng, n) for n in state.dims])
    return el.PureState(state.dims, u @ state.amps)


def random_gate(rng, m: int, N: int, unimodular: bool) -> el.EntanglerSpec:
    d = N**m
    magnitude = np.ones(d) if unimodular else rng.choice([-1, 1], d) * rng.uniform(0.1, 0.5, d) + 1
    return el.EntanglerSpec(m, N, magnitude * np.exp(1j * rng.uniform(0, 2 * np.pi, d)))


def uniform_output(alpha: np.ndarray) -> np.ndarray:
    """R applied to the all-ones input: corners fixed, interior reversed."""
    out = alpha[::-1].copy()
    out[0], out[-1] = alpha[0], alpha[-1]
    return out


def _dims_key(dims) -> str:
    return "x".join(map(str, dims))


# ---------------------------------------------------------------------------
# classify-ladder


def _classify_op(state: el.PureState, expected: str) -> Op:
    key = _dims_key(state.dims)

    def run():
        verdict = el.classify(state).verdict.value
        expect(verdict == expected, f"classify {key}: verdict {verdict}, expected {expected}")

    return Op(key, run)


def classify_ladder(rng, tally, root, tmpdir) -> list[Op]:
    shapes = [(2,) * m for m in LADDER_QUBITS] + [(3,) * m for m in LADDER_QUTRITS]
    ops = [_classify_op(random_state(rng, dims), "BOTH") for dims in shapes]
    for build, expected in (
        (lambda m: scaled(rng, el.ghz_state(m)), "GHZ_CLASS_CONDITIONS"),
        (lambda m: scaled(rng, el.w_state(m)), "W_CLASS_CONDITIONS"),
        (lambda m: random_product(rng, m), "NO_CONDITION_FIRES"),
    ):
        ops += [_classify_op(build(m), expected) for m in LADDER_STRUCTURED]
    return ops


# ---------------------------------------------------------------------------
# three-party-crosscheck

FIRES = "any fired condition"


def _crosscheck_op(state: el.PureState, verdict: str, oracle_label: str | None, tally: Tally) -> Op:
    """classify, both expansions per pair against the operator route, and the oracle."""
    key = _dims_key(state.dims)
    norm2 = float(np.sum(np.abs(state.amps) ** 2))
    qubits = state.dims == (2, 2, 2)

    def run():
        report = el.classify(state)
        got = report.verdict.value
        if verdict == FIRES:
            expect(got != "NO_CONDITION_FIRES", f"crosscheck {key}: no condition fires")
        else:
            expect(got == verdict, f"crosscheck {key}: verdict {got}, expected {verdict}")
        for v in report.values:
            if v.kind.value == "EPR":
                route = 2.0 * el.epr_expansion_3q(state, v.pair)
            else:
                route = -2.0 * el.ghz_expansion_3q(state, v.pair)
            expect(
                abs(v.value - route) <= EXPANSION_RTOL * norm2,
                f"crosscheck {key}: {v.kind.value}{v.pair} operator {v.value} != expansion {route}",
            )
        if qubits:
            oracle = el.oracle_classify(state)
            tally.record("AGREE" if el.verdicts_agree(report.verdict, oracle) else "DISAGREE")
            if oracle_label is not None:
                label = oracle.label.value
                expect(label == oracle_label, f"crosscheck {key}: oracle {label}, expected {oracle_label}")

    return Op(key, run)


def three_party_crosscheck(rng, tally, root, tmpdir) -> list[Op]:
    qubits = (2, 2, 2)
    items = [(random_state(rng, qubits), "BOTH", "GHZ_CLASS") for _ in range(CROSSCHECK_RANDOM_QUBITS)]
    for _ in range(CROSSCHECK_PER_CLASS):
        items += [
            (scaled(rng, el.ghz_state(3)), "GHZ_CLASS_CONDITIONS", "GHZ_CLASS"),
            (scaled(rng, el.w_state(3)), "W_CLASS_CONDITIONS", "W_CLASS"),
            (lu_rotated(rng, el.ghz_state(3)), FIRES, "GHZ_CLASS"),
            (lu_rotated(rng, el.w_state(3)), FIRES, "W_CLASS"),
            (random_product(rng, 3), "NO_CONDITION_FIRES", "PRODUCT"),
        ]
    base = el.basis_state(qubits, (1, 1, 1)).amps
    # The oracle label on this band is the known defect: it counts as DISAGREE, not as a failure.
    items += [(el.PureState(qubits, base + eps * el.ghz_state(3).amps), "GHZ_CLASS_CONDITIONS", None)
              for eps in NEAR_PRODUCT_GHZ]
    items += [(el.PureState(qubits, base + eps * el.w_state(3).amps), "W_CLASS_CONDITIONS", None)
              for eps in NEAR_PRODUCT_W]
    items += [(random_state(rng, (N,) * 3), "BOTH", None) for N in CROSSCHECK_QUDITS]
    return [_crosscheck_op(state, verdict, label, tally) for state, verdict, label in items]


# ---------------------------------------------------------------------------
# gate-braid-sweep


def _gate_op(spec: el.EntanglerSpec, unimodular: bool, tally: Tally) -> Op:
    key = f"gate m={spec.m} N={spec.N}"
    alpha = np.array(spec.alpha)
    expected_output = uniform_output(alpha)
    atol = 1e-12 * float(np.max(np.abs(alpha)))

    def run():
        dec = el.phase_swap_decomposition(spec)
        expect(dec.ordering == "P@R" and np.array_equal(dec.pr_diagonal, alpha), f"{key}: phase/swap diagonal")
        unit = el.check_unitary(el.build_r(spec))
        expect(unit.passed == unimodular, f"{key}: unitarity {unit.passed}, unimodular {unimodular}")
        out = el.apply_entangler(spec, el.uniform_input(spec.m, spec.N))
        expect(float(np.max(np.abs(out.amps - expected_output))) <= atol, f"{key}: output on uniform input")
        ghz_values = []
        for kind in (el.ClassKind.EPR, el.ClassKind.GHZ):
            for target in (el.EvaluationTarget.COEFFICIENTS, el.EvaluationTarget.OUTPUT):
                check = el.proposition_check(spec, kind, target)
                verdict = check.report.verdict.value
                expect(check.fires and verdict == "BOTH", f"{key}: {kind.value}/{target.value} verdict {verdict}")
                if check.agreement is not None:
                    tally.record(check.agreement)
                    label = check.oracle.label.value
                    expect(label == "GHZ_CLASS", f"{key}: {target.value} oracle {label}")
                if kind is el.ClassKind.GHZ:
                    ghz_values.append(np.array([v.value for v in check.report.values if v.kind is kind]))
        if spec.N == 2:
            # every GHZ term pairs an index with its full complement
            coefficients, output = ghz_values
            expect(np.allclose(coefficients, output, rtol=1e-12, atol=atol), f"{key}: GHZ values differ by target")

    return Op(key, run)


def _ybe_op(spec: el.EntanglerSpec) -> Op:
    key = f"ybe N={spec.N}"

    def run():
        r = el.build_r(spec)
        ybe = el.check_ybe(r)
        if spec.N == 2:
            expect(ybe.passed, f"{key}: two-qubit gate fails YBE, residual {ybe.residual}")
        quasi = el.check_quasitriangular(r)
        induced = quasi.induced_ybe.residual
        expect(abs(quasi.residual - induced) <= 1e-12 + 1e-9 * induced, f"{key}: quasitriangular {quasi.residual} != {induced}")

    return Op(key, run)


def _braid_op(spec: el.EntanglerSpec, n: int) -> Op:
    key = f"braid N={spec.N} n={n}"

    def run():
        r = el.build_r(spec)
        ybe = el.check_ybe(r)
        relations = el.check_braid_relations(el.StrandRep(n, r))
        expect(relations.max_commuting_residual <= TOL, f"{key}: commuting residual {relations.max_commuting_residual}")
        # identity padding leaves the entry-wise max unchanged
        adjacent = relations.max_adjacent_residual
        expect(abs(adjacent - ybe.residual) <= 1e-12 + 1e-6 * ybe.residual, f"{key}: adjacent {adjacent} != YBE {ybe.residual}")
        expect(relations.passed == ybe.passed, f"{key}: braid verdict differs from YBE verdict")

    return Op(key, run)


def gate_braid_sweep(rng, tally, root, tmpdir) -> list[Op]:
    ops = []
    for i, (m, N) in enumerate(GATE_SHAPES):
        unimodular = i % 3 != 2
        ops.append(_gate_op(random_gate(rng, m, N, unimodular), unimodular, tally))
    for N, strands in BRAID_STRANDS.items():
        spec = random_gate(rng, 2, N, True)
        ops.append(_ybe_op(spec))
        ops += [_braid_op(spec, n) for n in strands]
    return ops


# ---------------------------------------------------------------------------
# cli-files

CLI_TIMEOUT_S = 60
CLI_ENTRY = Path(__file__).with_name("cli_entry.py")


class CliRunner:
    """Runs one `entangler-lab` process at a time; traced when `tracer` is set.

    Traced or not, every process starts through `cli_entry.py`, so the
    tracing overhead is the only difference between the two phases.
    """

    def __init__(self, tmpdir: str):
        self.tmpdir = tmpdir
        self.tracer = None
        self.process_overhead_s = 0.0

    def __call__(self, args: list[str]) -> subprocess.CompletedProcess:
        cmd = [sys.executable, str(CLI_ENTRY), *args]
        if self.tracer is None:
            return subprocess.run(cmd, capture_output=True, timeout=CLI_TIMEOUT_S, check=False)
        spans = Path(self.tmpdir, "spans.json")
        spans.unlink(missing_ok=True)  # never merge the previous process's spans
        t0 = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, timeout=CLI_TIMEOUT_S, check=False,
            env=dict(os.environ, BENCH_TRACE_OUT=str(spans)),
        )
        wall = time.perf_counter() - t0
        stats = json.loads(spans.read_text(encoding="utf-8"))
        main_s = stats["cli.main"][1]
        self.tracer.merge(stats)
        self.tracer.credit_child(main_s)
        self.process_overhead_s += wall - main_s
        return proc


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values).ravel()]


def _write(tmpdir: str, name: str, doc) -> str:
    path = os.path.join(tmpdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def _matrix_doc(mat: np.ndarray) -> list:
    return [_pairs(row) for row in mat]


def _state_doc(state: el.PureState, label: str) -> dict:
    return {"label": label, "dims": list(state.dims), "amplitudes": _pairs(state.amps)}


def _gate_doc(spec: el.EntanglerSpec) -> dict:
    return {"m": spec.m, "N": spec.N, "alpha": _pairs(spec.alpha)}


def _complex(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _cli_op(runner: CliRunner, args: list[str], check: Callable[[subprocess.CompletedProcess], None]) -> Op:
    name = " ".join([args[0]] + [os.path.basename(a) for a in args[1:]])

    def run():
        proc = runner(args)
        try:
            check(proc)
        except CheckFailed as exc:
            raise CheckFailed(f"cli {name}: {exc}") from None

    return Op(args[0], run)


def _ok_json(proc) -> dict:
    expect(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[-200:]!r}")
    expect(proc.stderr == b"", f"unexpected stderr {proc.stderr[-200:]!r}")
    return json.loads(proc.stdout)


def _golden(path: Path, tally: Tally):
    expected = path.read_bytes()

    def check(proc):
        expect(proc.returncode == 0 and proc.stderr == b"", f"exit {proc.returncode}")
        expect(proc.stdout == expected, f"output differs from {path.name}")
        tally.record(json.loads(proc.stdout)["agreement"])

    return check


def _schema_error(proc) -> None:
    expect(proc.returncode == 2, f"exit {proc.returncode}, expected 2")
    expect(proc.stdout == b"" and proc.stderr.startswith(b"error: "), f"malformed-input output {proc.stderr[:120]!r}")


def _classify_check(verdict: str, oracle_label: str | None, tally: Tally):
    def check(proc):
        doc = _ok_json(proc)
        expect(doc["verdict"] == verdict, f"verdict {doc['verdict']}, expected {verdict}")
        if oracle_label is None:
            expect("oracle" not in doc, "unexpected oracle section")
        else:
            tally.record(doc["agreement"])
            expect(doc["oracle"]["label"] == oracle_label, f"oracle {doc['oracle']['label']}")

    return check


def _entangler_check(spec: el.EntanglerSpec, unimodular: bool, ybe: bool):
    alpha = np.array(spec.alpha)

    def check(proc):
        doc = _ok_json(proc)
        diagonal = _complex(doc["phase_swap"]["ascending_diagonal"])
        expect(np.allclose(diagonal, alpha, rtol=1e-11, atol=0), "ascending diagonal differs from alpha")
        expect(doc["unitarity"]["passed"] == unimodular, f"unitarity {doc['unitarity']['passed']}")
        if "uniform_output" in doc:
            out = _complex(doc["uniform_output"]["amplitudes"])
            expect(np.allclose(out, uniform_output(alpha), rtol=1e-11, atol=0), "output on uniform input")
        if ybe:
            expect(doc["ybe"]["passed"], "two-qubit gate fails YBE")

    return check


def _braid_check(expect_passed: bool):
    def check(proc):
        doc = _ok_json(proc)
        relations = doc["braid_relations"]
        expect(relations["max_commuting_residual"] <= TOL, "commuting residual above tol")
        ybe = doc["ybe"]["residual"]
        adjacent = relations["max_adjacent_residual"]
        expect(abs(adjacent - ybe) <= 1e-12 + 1e-9 * ybe, f"adjacent {adjacent} != YBE {ybe}")
        expect(relations["passed"] == expect_passed, f"braid verdict {relations['passed']}")

    return check


def cli_files(rng, tally, root, tmpdir) -> tuple[list[Op], CliRunner]:
    runner = CliRunner(tmpdir)
    data = Path(root) / "src" / "entangler_lab" / "data"
    golden = Path(root) / "tests" / "golden"
    witness_doc = json.loads((data / "ghz_witness_gate.json").read_text(encoding="utf-8"))
    witness = el.EntanglerSpec(witness_doc["m"], witness_doc["N"], _complex(witness_doc["alpha"]))

    gate2 = random_gate(rng, 2, 2, True)
    gate3 = random_gate(rng, 3, 2, False)
    files = {
        "random3q": _write(tmpdir, "random3q.json", _state_doc(random_state(rng, (2, 2, 2)), "random3q")),
        "qutrits": _write(tmpdir, "qutrits.json", _state_doc(random_state(rng, (3, 3, 3)), "qutrits")),
        "random5q": _write(tmpdir, "random5q.json", _state_doc(random_state(rng, (2,) * 5), None)),
        "gate2": _write(tmpdir, "gate2.json", _gate_doc(gate2)),
        "gate3": _write(tmpdir, "gate3.json", _gate_doc(gate3)),
        "r2": _write(tmpdir, "r2.json", _matrix_doc(el.build_r(random_gate(rng, 2, 2, True)).mat)),
        "r3": _write(tmpdir, "r3.json", _matrix_doc(el.build_r(random_gate(rng, 2, 3, True)).mat)),
        "not_json": _write(tmpdir, "not_json.json", "{dims: [2, 2]"),
        "short": _write(tmpdir, "short.json", {"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 7}),
        "r_not_square_dim": _write(tmpdir, "r3x3.json", _matrix_doc(np.eye(3))),
    }

    cases = [
        (["classify", str(data / "ghz_state.json"), "--json"], _golden(golden / "classify_ghz.json", tally)),
        (["classify", str(data / "w_state.json"), "--json"], _golden(golden / "classify_w.json", tally)),
        (["classify", str(data / "product_state.json"), "--json"], _classify_check("NO_CONDITION_FIRES", "PRODUCT", tally)),
        (["classify", files["random3q"], "--json"], _classify_check("BOTH", "GHZ_CLASS", tally)),
        (["classify", files["qutrits"], "--json"], _classify_check("BOTH", None, tally)),
        (["classify", files["random5q"], "--json"], _classify_check("BOTH", None, tally)),
        (["classify", files["not_json"], "--json"], _schema_error),
        (["classify", files["short"], "--json"], _schema_error),
        (["entangler", str(data / "ghz_witness_gate.json"), "--check-unitary", "--apply-uniform", "--json"],
         _entangler_check(witness, True, False)),
        (["entangler", files["gate2"], "--check-unitary", "--check-ybe", "--json"], _entangler_check(gate2, True, True)),
        (["entangler", files["gate3"], "--check-unitary", "--apply-uniform", "--json"], _entangler_check(gate3, False, False)),
        (["braid", "--r-file", files["r2"], "--strands", "4", "--json"], _braid_check(True)),
        (["braid", "--r-file", files["r3"], "--strands", "3", "--json"], _braid_check(False)),
        (["braid", "--r-file", files["r_not_square_dim"], "--strands", "3", "--json"], _schema_error),
    ]
    return [_cli_op(runner, args, check) for args, check in cases], runner


# Rounds whose latencies form the latency_tail_ms sample.  The count is fixed,
# so n and the shapes at each rank are the same whatever the code's speed.  At
# the seed these rounds fit in a 20 s run.
TAIL_ROUNDS = {
    "classify-ladder": 7,
    "three-party-crosscheck": 40,
    "gate-braid-sweep": 8,
    "cli-files": 4,
}

BUILDERS = {
    "classify-ladder": classify_ladder,
    "three-party-crosscheck": three_party_crosscheck,
    "gate-braid-sweep": gate_braid_sweep,
    "cli-files": cli_files,
}


def build(name: str, rng, tally: Tally, root, tmpdir: str) -> tuple[list[Op], CliRunner | None]:
    """One round of the named workload, plus the CLI runner for cli-files."""
    built = BUILDERS[name](rng, tally, root, tmpdir)
    return built if isinstance(built, tuple) else (built, None)
