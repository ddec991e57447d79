"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import json
import math
from importlib.resources import files
from pathlib import Path

import numpy as np
import pytest

from entangler_lab.braid import StrandRep, check_braid_relations, check_ybe, factor_swap
from entangler_lab.class_operators import ClassKind, ClassOperatorSpec, class_operator, pair_specs
from entangler_lab.cli import main
from entangler_lab.concurrence import (
    Verdict,
    bilinear_condition,
    classify,
    epr_expansion_3q,
    ghz_expansion_3q,
)
from entangler_lab.entangler import (
    EntanglerSpec,
    EvaluationTarget,
    build_r,
    check_unitary,
    phase_swap_decomposition,
    proposition_check,
    swap_gate,
)
from entangler_lab.oracle import (
    StateClass,
    oracle_classify,
    partial_trace,
    three_tangle,
    verdicts_agree,
    wootters_concurrence,
)
from entangler_lab.state_core import PureState, ghz_state, product_state, w_state

GOLDEN = Path(__file__).parent / "golden"
PAIRS = [(1, 2), (1, 3), (2, 3)]


def report(number: int, message: str) -> None:
    # reached only after every assertion above it held
    print(f"[criterion {number}] PASS: {message}")


def random_product_state(dims, rng):
    return product_state(
        [PureState((n,), rng.normal(size=n) + 1j * rng.normal(size=n)) for n in dims]
    )


def test_criterion_1_canonical_ghz():
    state = ghz_state()
    for pair in PAIRS:
        assert abs(abs(ghz_expansion_3q(state, pair)) - 0.5) <= 1e-12
        assert abs(epr_expansion_3q(state, pair)) <= 1e-12
    assert abs(three_tangle(state) - 1.0) <= 1e-10
    oracle = oracle_classify(state)
    assert oracle.label is StateClass.GHZ_CLASS
    verdict = classify(state).verdict
    assert verdict is Verdict.GHZ_CLASS_CONDITIONS
    assert verdicts_agree(verdict, oracle)
    report(1, "GHZ expansions 0.5, W expansions 0, three-tangle 1, verdicts AGREE")


def test_criterion_2_canonical_w():
    state = w_state()
    for pair in PAIRS:
        assert abs(epr_expansion_3q(state, pair) - 1 / 3) <= 1e-12
        assert abs(ghz_expansion_3q(state, pair)) <= 1e-12
        assert abs(wootters_concurrence(partial_trace(state, pair)) - 2 / 3) <= 1e-10
    assert abs(three_tangle(state)) <= 1e-10
    oracle = oracle_classify(state)
    assert oracle.label is StateClass.W_CLASS
    verdict = classify(state).verdict
    assert verdict is Verdict.W_CLASS_CONDITIONS
    assert verdicts_agree(verdict, oracle)
    report(2, "W expansions 1/3, GHZ expansions 0, tangle 0, concurrences 2/3, verdicts AGREE")


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2), (3, 3, 3)])
def test_criterion_3_product_state_nullity(dims):
    rng = np.random.default_rng(hash(dims) % 2**31)
    operators = [class_operator(s) for kind in ClassKind for s in pair_specs(dims, kind)]
    worst = 0.0
    for _ in range(1000):
        state = random_product_state(dims, rng)
        n2 = state.norm2
        for op in operators:
            worst = max(worst, abs(bilinear_condition(state, op)) / n2)
    assert worst < 1e-10
    report(3, f"dims {list(dims)}: 1000 random product states, max normalized magnitude {worst:.2e}")


def test_criterion_4_operator_expansion_proportionality():
    rng = np.random.default_rng(40404)
    worst = 0.0
    for _ in range(1000):
        state = PureState((2, 2, 2), rng.normal(size=8) + 1j * rng.normal(size=8))
        for pair in PAIRS:
            epr_op = bilinear_condition(state, class_operator(ClassOperatorSpec((2, 2, 2), ClassKind.EPR, pair)))
            ghz_op = bilinear_condition(state, class_operator(ClassOperatorSpec((2, 2, 2), ClassKind.GHZ, pair)))
            epr_rel = abs(epr_op - 2 * epr_expansion_3q(state, pair)) / abs(epr_op)
            ghz_rel = abs(ghz_op + 2 * ghz_expansion_3q(state, pair)) / abs(ghz_op)
            worst = max(worst, epr_rel, ghz_rel)
    assert worst < 1e-10
    report(4, f"1000 random states: operator = +2 x W expansion, -2 x GHZ expansion (worst rel {worst:.2e})")


def test_criterion_5_unitarity_equivalence():
    rng = np.random.default_rng(50505)
    tol = 1e-9
    worst_unimodular_deviation = 0.0
    for i in range(200):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        alpha = np.exp(1j * rng.uniform(0, 2 * np.pi, n**m))
        if i % 2 == 1:  # push one modulus clearly off the unit circle
            alpha[int(rng.integers(alpha.size))] *= 1.0 + 10.0 ** rng.uniform(-6, 0)
        spec = EntanglerSpec(m, n, alpha)
        structurally_unitary = np.max(np.abs(np.abs(alpha) - 1.0)) <= tol
        result = check_unitary(build_r(spec), tol)
        assert result.passed == structurally_unitary
        if structurally_unitary:
            assert result.max_deviation < 1e-12
            worst_unimodular_deviation = max(worst_unimodular_deviation, result.max_deviation)
    assert worst_unimodular_deviation < 1e-12
    report(5, f"200 specs: unitary iff all |alpha| = 1; unimodular deviation <= {worst_unimodular_deviation:.2e}")


def test_criterion_6_phase_swap_decomposition():
    rng = np.random.default_rng(60606)
    for _ in range(200):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 4))
        alpha = rng.normal(size=n**m) + 1j * rng.normal(size=n**m)
        spec = EntanglerSpec(m, n, alpha)
        dec = phase_swap_decomposition(spec)  # read off alpha; the dense products must agree exactly
        r, p = build_r(spec).mat, swap_gate(spec.dim)
        assert np.array_equal(p @ r, np.diag(dec.pr_diagonal))
        assert np.array_equal(r @ p, np.diag(dec.rp_diagonal))
        assert dec.ordering == "P@R"
        assert np.array_equal(dec.pr_diagonal, spec.alpha)
    report(6, "200 specs: P@R and R@P exactly diagonal, P@R diagonal = alpha ascending")


def test_criterion_7_yang_baxter_and_braid_suite():
    rng = np.random.default_rng(70707)
    swap = factor_swap(2)
    ybe_solutions = [("identity", np.eye(4, dtype=complex)), ("swap", swap)]
    for name, mat in ybe_solutions:
        assert check_ybe(mat).residual < 1e-12

    # record which gate-family parameter regions solve the equation
    region_notes = []
    two_qubit_worst = 0.0
    for _ in range(25):
        spec = EntanglerSpec(2, 2, np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))
        result = check_ybe(build_r(spec))
        two_qubit_worst = max(two_qubit_worst, result.residual)
        if result.residual < 1e-12:
            ybe_solutions.append(("two-qubit gate", build_r(spec).mat))
    region_notes.append(f"m=2 N=2 unimodular gates: worst residual {two_qubit_worst:.2e} (all solve)")
    # the braid docstring's proof: every N=2 gate solves the equation, |alpha| = 1 or not
    eps = np.finfo(float).eps
    for _ in range(25):
        alpha = 10.0 ** rng.uniform(-2, 2, 4) * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
        bound = 8 * eps * np.max(np.abs(alpha)) ** 3
        assert check_ybe(build_r(EntanglerSpec(2, 2, alpha))).residual <= bound
    # ... and for N >= 3 the two sides permute the legs differently, so a
    # unimodular gate has residual at least 1
    for N in (3, 4):
        best = math.inf
        for _ in range(25):
            spec = EntanglerSpec(2, N, np.exp(1j * rng.uniform(0, 2 * np.pi, N * N)))
            best = min(best, check_ybe(build_r(spec)).residual)
        region_notes.append(f"m=2 N={N} unimodular gates: best residual {best:.2e} (none solve)")
        assert best >= 1 - 1e-12
    assert two_qubit_worst < 1e-12

    # YBE solution => braid relation on 3 and 4 strands
    for name, mat in ybe_solutions:
        for n in (3, 4):
            rep = check_braid_relations(StrandRep(n, mat))
            assert rep.max_adjacent_residual < 1e-11, (name, n)

    # disjoint-slot commutation holds for every operator, YBE or not
    non_ybe = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert check_ybe(non_ybe).residual > 1e-3
    for mat in [np.eye(4, dtype=complex), swap, non_ybe]:
        rep = check_braid_relations(StrandRep(4, mat))
        assert rep.max_commuting_residual < 1e-12
    report(7, "identity/swap solve YBE; solutions give braid reps; " + "; ".join(region_notes))


def test_criterion_8_proposition_2_witness():
    alpha = np.ones(8, dtype=complex)
    alpha[7] = -1.0
    spec = EntanglerSpec(3, 2, alpha)
    on_coeff = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.COEFFICIENTS)
    on_output = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.OUTPUT)
    assert on_coeff.fires and on_output.fires
    coeff_vals = [v.value for v in on_coeff.report.values if v.kind is ClassKind.GHZ]
    output_vals = [v.value for v in on_output.report.values if v.kind is ClassKind.GHZ]
    assert coeff_vals == output_vals  # complement-invariance: identical values
    assert on_output.oracle is not None
    assert on_output.oracle.label is StateClass.GHZ_CLASS
    assert on_output.oracle.three_tangle > 0.1
    report(8, f"witness gate fires GHZ on both targets (values {coeff_vals[0]:.0f}), oracle GHZ_CLASS, tangle {on_output.oracle.three_tangle:.3f}")


def test_criterion_9_cli_golden_files(tmp_path, capsys):
    for name in ("ghz", "w"):
        state_path = str(files("entangler_lab").joinpath(f"data/{name}_state.json"))
        code = main(["classify", state_path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / f"classify_{name}.json").read_text()

    bad = tmp_path / "truncated.json"
    bad.write_text(json.dumps({"dims": [2, 2, 2], "amplitudes": [[1.0, 0.0]] * 7}))
    code = main(["classify", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "amplitudes" in err and "8" in err
    report(9, "GHZ/W golden reports reproduced byte-for-byte; malformed file exits 2 naming the field")
