import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entangler_lab.entangler as entangler_module
from entangler_lab.class_operators import ClassKind
from entangler_lab.concurrence import Verdict, ghz_expansion_3q
from entangler_lab.entangler import (
    EntanglerSpec,
    EvaluationTarget,
    apply_entangler,
    build_r,
    check_unitary,
    coefficient_state,
    phase_swap_decomposition,
    proposition_check,
    swap_gate,
)
from entangler_lab.oracle import StateClass, oracle_classify, partial_trace, wootters_concurrence
from entangler_lab.state_core import PureState, uniform_input

rng = np.random.default_rng(4242)


def random_unimodular_spec(m, N):
    return EntanglerSpec(m, N, np.exp(1j * rng.uniform(0, 2 * np.pi, N**m)))


def test_build_r_all_ones_is_interior_reversal_permutation():
    r = build_r(EntanglerSpec(3, 2, np.ones(8))).mat
    expected = np.zeros((8, 8), dtype=complex)
    expected[0, 0] = expected[7, 7] = 1
    for q in range(1, 7):
        expected[q, 7 - q] = 1
    assert np.array_equal(r, expected)


def test_build_r_two_qubit_placement():
    r = build_r(EntanglerSpec(2, 2, [1, 1, 1, -1])).mat
    expected = np.diag([1, 0, 0, -1.0 + 0j]) + np.fliplr(np.diag([0, 1, 1, 0.0 + 0j]))
    assert np.array_equal(r, expected)


def test_build_r_antidiagonal_carries_complement_alpha():
    alpha = rng.normal(size=8) + 1j * rng.normal(size=8)
    r = build_r(EntanglerSpec(3, 2, alpha)).mat
    for q in range(1, 7):
        assert r[q, 7 - q] == alpha[7 - q]  # row q holds the alpha of its complement index
    assert r[0, 0] == alpha[0] and r[7, 7] == alpha[7]


def test_spec_validation():
    with pytest.raises(ValueError):
        EntanglerSpec(1, 2, [1, 1])  # no antidiagonal band
    with pytest.raises(ValueError):
        EntanglerSpec(2, 2, [1, 1, 1])
    with pytest.raises(ValueError):
        EntanglerSpec(2, 1, [1, 1])


def test_structure_one_nonzero_per_row_and_column():
    for _ in range(20):
        m = int(rng.integers(2, 4))
        N = int(rng.integers(2, 4))
        spec = random_unimodular_spec(m, N)
        r = build_r(spec).mat
        assert np.all(np.count_nonzero(r, axis=0) == 1)
        assert np.all(np.count_nonzero(r, axis=1) == 1)


def test_check_unitary_unimodular():
    for _ in range(20):
        spec = random_unimodular_spec(3, 2)
        result = check_unitary(build_r(spec))
        assert result.passed and result.max_deviation < 1e-12


def test_check_unitary_deviation_value():
    alpha = np.ones(4, dtype=complex)
    alpha[0] = 2.0
    result = check_unitary(build_r(EntanglerSpec(2, 2, alpha)))
    assert not result.passed
    assert result.max_deviation == pytest.approx(3.0, abs=1e-14)  # (R R+)[0,0] = 4


def test_check_unitary_identity():
    result = check_unitary(np.eye(5))
    assert result.passed and result.max_deviation == 0.0
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 3)))


def test_unitarity_equivalence_with_alpha_moduli():
    tol = 1e-9
    for _ in range(40):
        spec = random_unimodular_spec(2, 2)
        alpha = np.array(spec.alpha)
        if rng.random() < 0.5:  # clearly perturbed off the unit circle
            alpha[int(rng.integers(4))] *= 1 + 1e-5
        spec = EntanglerSpec(2, 2, alpha)
        structural = np.max(np.abs(np.abs(alpha) - 1)) <= tol
        assert check_unitary(build_r(spec), tol).passed == structural


def test_swap_gate_shape():
    p = swap_gate(8)
    assert p[0, 0] == 1 and p[7, 7] == 1
    for q in range(1, 7):
        assert p[q, 7 - q] == 1
    assert np.count_nonzero(p) == 8
    assert np.array_equal(p @ p, np.eye(8))


def test_phase_swap_decomposition_exact():
    for _ in range(20):
        spec = random_unimodular_spec(2, 2) if rng.random() < 0.5 else random_unimodular_spec(3, 2)
        dec = phase_swap_decomposition(spec)
        assert dec.ordering == "P@R"
        # ascending diagonal matches alpha exactly, entry by entry
        assert np.array_equal(dec.pr_diagonal, spec.alpha)
        # R@P carries the interior reversed
        d = spec.dim
        expected_rp = np.array(spec.alpha)
        expected_rp[1 : d - 1] = expected_rp[1 : d - 1][::-1]
        assert np.array_equal(dec.rp_diagonal, expected_rp)
        assert np.array_equal(np.diag(np.diag(dec.phase)), dec.phase)


# ---------------------------------------------------------------------------
# the gate as (interior reversal, alpha) against the dense matrix

gate_shapes = st.tuples(st.integers(2, 4), st.integers(2, 4))  # (m, N)
seeds = st.integers(0, 2**32 - 1)
log_scales = st.floats(-3.0, 3.0)  # entries scaled by 1e-3 .. 1e3


def drawn_vector(g, size, log_scale):
    return 10.0**log_scale * (g.normal(size=size) + 1j * g.normal(size=size))


@settings(max_examples=60, deadline=None)
@given(gate_shapes, seeds, log_scales)
def test_decomposition_equals_dense_products(shape, seed, log_scale):
    m, N = shape
    spec = EntanglerSpec(m, N, drawn_vector(np.random.default_rng(seed), N**m, log_scale))
    r = build_r(spec).mat
    p = swap_gate(spec.dim)
    dec = phase_swap_decomposition(spec)
    # each product only ever combines the single nonzero of a row and a column
    assert np.array_equal(p @ r, np.diag(spec.alpha))
    assert np.array_equal(r @ p, np.diag(dec.rp_diagonal))
    assert np.array_equal(dec.phase, np.diag(dec.pr_diagonal))
    assert np.array_equal(dec.pr_diagonal, spec.alpha)
    assert np.array_equal(dec.swap, p)


@settings(max_examples=60, deadline=None)
@given(gate_shapes, seeds, log_scales, log_scales)
def test_apply_equals_dense_matvec(shape, seed, alpha_scale, amp_scale):
    m, N = shape
    g = np.random.default_rng(seed)
    spec = EntanglerSpec(m, N, drawn_vector(g, N**m, alpha_scale))
    state = PureState((N,) * m, drawn_vector(g, N**m, amp_scale))
    r = build_r(spec).mat
    bound = 1e-15 * np.max(np.abs(spec.alpha)) * np.max(np.abs(state.amps))
    assert np.max(np.abs(apply_entangler(spec, state).amps - r @ state.amps)) <= bound
    uniform = uniform_input(m, N)
    assert np.array_equal(apply_entangler(spec, uniform).amps, r @ uniform.amps)


def test_gate_analysis_builds_no_dense_gate(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense gate built")

    monkeypatch.setattr(entangler_module, "build_r", refuse)
    spec = random_unimodular_spec(3, 2)
    phase_swap_decomposition(spec)
    apply_entangler(spec, uniform_input(3, 2))
    for kind in ClassKind:
        for target in EvaluationTarget:
            proposition_check(spec, kind, target)


def test_apply_all_ones_keeps_uniform_input():
    spec = EntanglerSpec(3, 2, np.ones(8))
    out = apply_entangler(spec, uniform_input(3, 2))
    assert np.array_equal(out.amps, np.ones(8))


def test_apply_corner_only_spec_yields_ghz_support():
    alpha = np.zeros(8, dtype=complex)
    alpha[0] = alpha[7] = 1.0
    out = apply_entangler(EntanglerSpec(3, 2, alpha), uniform_input(3, 2))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = 1.0
    assert np.array_equal(out.amps, expected)


def test_apply_two_qubit_spec_gives_unit_concurrence():
    out = apply_entangler(EntanglerSpec(2, 2, [1, 1, 1, -1]), uniform_input(2, 2))
    assert np.array_equal(out.amps, [1, 1, 1, -1])
    c = wootters_concurrence(partial_trace(out, (1, 2)))
    assert c == pytest.approx(1.0, abs=1e-10)


def test_apply_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_entangler(EntanglerSpec(2, 2, np.ones(4)), uniform_input(3, 2))


def test_apply_writes_complement_alpha_into_interior_rows():
    spec = EntanglerSpec(3, 2, rng.normal(size=8) + 1j * rng.normal(size=8))
    out = apply_entangler(spec, uniform_input(3, 2))
    assert out.amps[0] == spec.alpha[0] and out.amps[7] == spec.alpha[7]
    for q in range(1, 7):
        assert out.amps[q] == spec.alpha[7 - q]


def test_all_ones_spec_ghz_conditions_vanish_on_coefficients():
    check = proposition_check(
        EntanglerSpec(3, 2, np.ones(8)), ClassKind.GHZ, EvaluationTarget.COEFFICIENTS
    )
    assert not check.fires
    assert check.report.verdict is Verdict.NO_CONDITION_FIRES  # uniform input is a product state


def test_witness_spec_fires_ghz_on_both_targets_with_identical_values():
    alpha = np.ones(8, dtype=complex)
    alpha[7] = -1.0
    spec = EntanglerSpec(3, 2, alpha)
    on_coeff = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.COEFFICIENTS)
    on_output = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.OUTPUT)
    assert on_coeff.fires and on_output.fires
    for vc, vo in zip(on_coeff.report.values, on_output.report.values):
        if vc.kind is ClassKind.GHZ:
            assert vc.value == vo.value  # complement reindexing leaves GHZ terms untouched
    ghz_vals = [v.value for v in on_coeff.report.values if v.kind is ClassKind.GHZ]
    assert all(v == pytest.approx(-4.0) for v in ghz_vals)  # -2 x expansion value 2
    assert on_output.oracle is not None
    assert on_output.oracle.label is StateClass.GHZ_CLASS
    assert on_output.agreement == "AGREE"


def test_ghz_conditions_complement_invariant_for_random_alpha():
    spec = EntanglerSpec(3, 2, rng.normal(size=8) + 1j * rng.normal(size=8))
    coeff = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.COEFFICIENTS)
    output = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.OUTPUT)
    # term for term the two evaluations multiply the same amplitude pairs, so
    # the expansion route is bit-identical; the operator route re-sums in a
    # different order and may differ in the last ulp
    for pair in [(1, 2), (1, 3), (2, 3)]:
        assert ghz_expansion_3q(coeff.state, pair) == ghz_expansion_3q(output.state, pair)
    ghz_c = [v.value for v in coeff.report.values if v.kind is ClassKind.GHZ]
    ghz_o = [v.value for v in output.report.values if v.kind is ClassKind.GHZ]
    for c, o in zip(ghz_c, ghz_o):
        assert c == pytest.approx(o, rel=1e-12)
    # the EPR family has no such symmetry; generic parameters break it
    epr_c = [v.value for v in coeff.report.values if v.kind is ClassKind.EPR]
    epr_o = [v.value for v in output.report.values if v.kind is ClassKind.EPR]
    assert any(abs(c - o) > 1e-9 for c, o in zip(epr_c, epr_o))


def test_coefficient_state_uses_alpha_directly():
    spec = random_unimodular_spec(2, 3)
    s = coefficient_state(spec)
    assert s.dims == (3, 3)
    assert np.array_equal(s.amps, spec.alpha)


def test_proposition_check_oracle_only_for_three_qubits():
    check = proposition_check(random_unimodular_spec(2, 2), ClassKind.EPR)
    assert check.oracle is None and check.agreement is None
    check3 = proposition_check(random_unimodular_spec(3, 2), ClassKind.EPR)
    assert check3.oracle is not None
    assert oracle_classify(check3.state).label is check3.oracle.label
