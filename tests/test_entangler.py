import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import entangler_lab.entangler as entangler_module
import entangler_lab.state_core as state_core_module
from entangler_lab.braid import (
    MAX_TOTAL_DIM,
    StrandRep,
    check_braid_relations,
    check_quasitriangular,
    check_ybe,
)
from entangler_lab.class_operators import ClassKind
from entangler_lab.concurrence import Verdict, ghz_expansion_3q
from entangler_lab.entangler import (
    EntanglerSpec,
    EvaluationTarget,
    PhaseSwapDecomposition,
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


def test_reversal_equals_index_trick_form():
    for dim in range(2, 65):
        expected = np.r_[0, dim - 2 : 0 : -1, dim - 1]
        s = entangler_module._reversal(dim)
        assert s.dtype == expected.dtype and np.array_equal(s, expected), dim


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


def test_decomposition_stores_only_the_diagonals():
    assert [f.name for f in fields(PhaseSwapDecomposition)] == ["ordering", "pr_diagonal", "rp_diagonal"]
    spec = random_unimodular_spec(2, 32)
    tracemalloc.start()
    try:
        dec = phase_swap_decomposition(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < spec.dim**2  # far below one d x d matrix
    assert np.array_equal(dec.rp_diagonal, spec.alpha[entangler_module._reversal(spec.dim)])


# ---------------------------------------------------------------------------
# unitarity read off a monomial matrix against the dense product


def dense_deviation(mat):
    return float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))


def monomial(perm, values):
    mat = np.zeros((len(perm), len(perm)), dtype=complex)
    mat[np.arange(len(perm)), perm] = values
    return mat


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 64), seeds, log_scales, st.booleans(), st.booleans())
def test_monomial_unitarity_equals_dense_product(d, seed, log_scale, unimodular, reversal):
    g = np.random.default_rng(seed)
    perm = entangler_module._reversal(d) if reversal else g.permutation(d)
    if unimodular:
        values = np.exp(1j * g.uniform(0, 2 * np.pi, d))
    else:
        values = drawn_vector(g, d, log_scale)
    mat = monomial(perm, values)
    tol = 1e-9
    result = check_unitary(mat, tol)
    dense = dense_deviation(mat)
    bound = 8 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(values))) ** 2)
    assert abs(result.max_deviation - dense) <= bound
    if abs(dense - tol) > bound:
        assert result.passed == (dense <= tol)


def test_gate_unitarity_is_the_modulus_formula():
    for m, N in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        spec = EntanglerSpec(m, N, drawn_vector(rng, N**m, 0.0))
        expected = np.max(np.abs(spec.alpha.real**2 + spec.alpha.imag**2 - 1))
        assert check_unitary(build_r(spec)).max_deviation == expected


def non_monomial(case):
    g = np.random.default_rng(31)
    d = 6
    perm = g.permutation(d)
    mat = monomial(perm, np.exp(1j * g.uniform(0, 2 * np.pi, d)))
    if case == "extra nonzero":
        mat[2, perm[3]] = 0.25
    elif case == "zero row":
        mat[2] = 0
    elif case == "zero row and a row with two":  # d nonzeros, first columns a permutation
        holds = np.argsort(perm)  # holds[c] is the row with its nonzero in column c
        mat[holds[0]] = 0
        mat[holds[1], 2] = 3.0
    elif case == "two in one column":
        mat[2, perm[2]], mat[2, perm[4]] = 0, mat[2, perm[2]]  # every row still holds one
    elif case == "non-finite entry":
        mat[2, perm[2]] = np.inf
    elif case == "haar unitary":
        q, r = np.linalg.qr(g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)))
        mat = q * (np.diag(r) / np.abs(np.diag(r)))
    return mat


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0
@pytest.mark.parametrize(
    "case",
    [
        "extra nonzero",
        "zero row",
        "zero row and a row with two",
        "two in one column",
        "non-finite entry",
        "haar unitary",
    ],
)
def test_non_monomial_unitarity_is_the_dense_product(case):
    mat = non_monomial(case)
    result = check_unitary(mat)
    np.testing.assert_array_equal(result.max_deviation, dense_deviation(mat))  # NaN == NaN here
    assert result.passed == (case == "haar unitary")


def test_gate_unitarity_allocates_no_dense_product():
    r = build_r(random_unimodular_spec(2, 32))  # d = 1024
    tracemalloc.start()
    try:
        result = check_unitary(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 16 * r.dim**2  # less than one d x d complex matrix (16 MiB)


def test_build_r_holds_one_dense_gate():
    spec = random_unimodular_spec(2, 32)  # d = 1024
    tracemalloc.start()
    try:
        r = build_r(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * 16 * r.dim**2  # the gate itself and no second copy


# ---------------------------------------------------------------------------
# build_r's monomial OperatorMatrix: the checks read (s, alpha[s]), and the
# dense matrix is built only when `.mat` is read


# these tests draw from their own generator and leave the shared `rng` stream
# to the tests after them
own_rng = np.random.default_rng(1717)


def own_unimodular_spec(m, N):
    return EntanglerSpec(m, N, np.exp(1j * own_rng.uniform(0, 2 * np.pi, N**m)))


def test_build_r_mat_is_the_scattered_gate_read_only_and_built_once():
    for m, N in [(2, 2), (3, 2), (2, 5), (4, 3), (2, 32)]:
        spec = EntanglerSpec(m, N, drawn_vector(own_rng, N**m, 0.0))
        r = build_r(spec)
        assert r.dims == (N,) * m and r.dim == N**m
        mat = r.mat
        s = entangler_module._reversal(spec.dim)
        assert np.array_equal(mat, monomial(s, spec.alpha[s])) and mat.dtype == complex  # zeros + scatter
        assert not mat.flags.writeable
        assert r.mat is mat


def two_strand_checks(n):
    def relations(r):
        return check_braid_relations(StrandRep(n, r))

    return (check_ybe, check_quasitriangular, relations)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(2, 16), seeds, st.booleans())
def test_gate_checks_give_the_same_bits_on_the_pair_and_on_mat(m, N, seed, unimodular):
    assume(N**m <= 4096)
    g = np.random.default_rng(seed)
    values = np.exp(1j * g.uniform(0, 2 * np.pi, N**m))
    if not unimodular:
        values *= 10.0 ** g.uniform(-3, 3, N**m)  # moduli 1e-3 .. 1e3
    spec = EntanglerSpec(m, N, values)
    op, mat = build_r(spec), build_r(spec).mat
    # repr spells every float out exactly, so equal reprs are equal bits
    assert repr(check_unitary(op)) == repr(check_unitary(mat))
    if m == 2:
        n = max(n for n in range(2, 13) if N**n <= MAX_TOTAL_DIM)
        for check in two_strand_checks(n):
            assert repr(check(op)) == repr(check(mat))


def refuse_dense_gate(*args, **kwargs):
    raise AssertionError("dense gate built")


def test_gate_checks_never_build_the_dense_gate(monkeypatch):
    monkeypatch.setattr(state_core_module, "_monomial_matrix", refuse_dense_gate)
    for m, N in [(2, 32), (5, 4), (10, 2)]:  # d = 1024
        spec = own_unimodular_spec(m, N)
        assert check_unitary(build_r(spec)).passed
        proposition_check(spec, ClassKind.GHZ)
    r = build_r(own_unimodular_spec(2, 32))
    assert check_braid_relations(StrandRep(2, r)).passed
    with pytest.raises(ValueError, match="32\\^3 exceeds"):  # refused before any allocation
        check_ybe(r)
    for N in (2, 3, 16):  # up to the largest window the cap allows
        r = build_r(own_unimodular_spec(2, N))
        n = max(n for n in range(2, 13) if N**n <= MAX_TOTAL_DIM)
        for check in two_strand_checks(n):
            check(r)
    with pytest.raises(AssertionError, match="dense gate built"):
        build_r(own_unimodular_spec(2, 2)).mat


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


# Bounds fixed before measuring, from |fl(sum_t p_t) - sum_t p_t| <= gamma_n sum_t |p_t|
# (gamma_n = n u / (1 - n u), u = eps / 2) applied to the real and imaginary parts.
# GHZ expansion at m=3, N=2: K = 4 signed complement products, each complex product
# adding two roundings, so one evaluation is within sqrt(2) gamma_{K+2} sum|p_t| of
# the exact sum, and two evaluations of the same sum within 2 sqrt(2) gamma_6 sum|p_t|
# (about 8.5 eps): 3 K eps sum|p_t| covers it.  Kernel route: a GHZ value is an
# unconjugated dot product of d = 8 entries whose magnitudes are those of a and of
# its complement, so each evaluation is within sqrt(2) gamma_{2d} |a|^2 and two within
# 2 sqrt(2) gamma_16 |a|^2 (about 22.6 eps): 24 eps |a|^2 covers it.
COMPLEMENT_TERMS = 4
EPS = np.finfo(float).eps


def test_ghz_conditions_complement_invariant_for_random_alpha():
    # Term for term, COEFFICIENTS and OUTPUT multiply the same complement pairs
    # a_j a_~j, so the exact GHZ values coincide; the evaluations sum the
    # products in another order, so the float values agree up to rounding.
    g = np.random.default_rng(20240518)
    for _ in range(400):
        alpha = g.normal(size=8) + 1j * g.normal(size=8)
        spec = EntanglerSpec(3, 2, alpha)
        coeff = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.COEFFICIENTS)
        output = proposition_check(spec, ClassKind.GHZ, EvaluationTarget.OUTPUT)
        terms = np.sum(np.abs(alpha) * np.abs(alpha[::-1])) / 2  # sum over the 4 pairs {j, ~j}
        for pair in [(1, 2), (1, 3), (2, 3)]:
            difference = abs(ghz_expansion_3q(coeff.state, pair) - ghz_expansion_3q(output.state, pair))
            assert difference <= 3 * COMPLEMENT_TERMS * EPS * terms
        norm2 = coeff.state.norm2
        ghz_c = [v.value for v in coeff.report.values if v.kind is ClassKind.GHZ]
        ghz_o = [v.value for v in output.report.values if v.kind is ClassKind.GHZ]
        for c, o in zip(ghz_c, ghz_o):
            assert abs(c - o) <= 24 * EPS * norm2
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
