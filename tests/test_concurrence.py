import copy
import dataclasses
import itertools
import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from entangler_lab import class_operators, concurrence, state_core
from entangler_lab.class_operators import ClassKind, ClassOperatorSpec, class_operator, pair_specs
from entangler_lab.concurrence import (
    EPR_OPERATOR_FACTOR,
    GHZ_OPERATOR_FACTOR,
    ConditionValue,
    Verdict,
    bilinear_condition,
    classify,
    epr_expansion_3q,
    ghz_expansion_3q,
)
from entangler_lab.entangler import EntanglerSpec, EvaluationTarget, proposition_check
from entangler_lab.oracle import StateClass, oracle_classify
from entangler_lab.state_core import (
    DEFAULT_TOL,
    PureState,
    basis_state,
    conjugate_state,
    flatten,
    ghz_state,
    product_state,
    w_state,
)

rng = np.random.default_rng(99)

PAIRS = [(1, 2), (1, 3), (2, 3)]


def random_state(dims):
    n = math.prod(dims)
    return PureState(dims, rng.normal(size=n) + 1j * rng.normal(size=n))


def random_product(dims):
    return product_state(
        [PureState((n,), rng.normal(size=n) + 1j * rng.normal(size=n)) for n in dims]
    )


# ---------------------------------------------------------------------------
# explicit three-party expansions


@pytest.mark.parametrize("pair", PAIRS)
def test_w_state_epr_expansion_is_one_third(pair):
    assert epr_expansion_3q(w_state(), pair) == pytest.approx(1 / 3, abs=1e-15)


@pytest.mark.parametrize("pair", PAIRS)
def test_ghz_state_ghz_expansion_is_minus_half(pair):
    assert ghz_expansion_3q(ghz_state(), pair) == pytest.approx(-0.5, abs=1e-15)


@pytest.mark.parametrize("pair", PAIRS)
def test_cross_expansions_vanish(pair):
    assert ghz_expansion_3q(w_state(), pair) == 0
    assert epr_expansion_3q(ghz_state(), pair) == 0


@pytest.mark.parametrize("pair", PAIRS)
def test_expansions_vanish_on_product_states(pair):
    for _ in range(25):
        s = random_product((2, 2, 2))
        scale = s.norm2
        assert abs(epr_expansion_3q(s, pair)) < 1e-13 * scale
        assert abs(ghz_expansion_3q(s, pair)) < 1e-13 * scale


@pytest.mark.parametrize("expansion", [epr_expansion_3q, ghz_expansion_3q])
def test_expansions_normalize_pair(expansion):
    s = random_state((2, 3, 2))
    for pair in PAIRS:
        expected = expansion(s, pair)
        assert expansion(s, list(pair)) == expected
        assert expansion(s, tuple(np.int64(r) for r in pair)) == expected
        assert expansion(s, np.array(pair)) == expected


@pytest.mark.parametrize("expansion", [epr_expansion_3q, ghz_expansion_3q])
@pytest.mark.parametrize("pair", [(2, 1), (1, 2, 3), (1,), (0, 1), (1, 4), [3, 3], 12, None, ("a", "b")])
def test_expansions_reject_other_pairs(expansion, pair):
    with pytest.raises(ValueError, match=r"pair must be one of \(1,2\), \(1,3\), \(2,3\)"):
        expansion(random_state((2, 2, 2)), pair)


def test_expansion_memo_is_bounded_and_read_only():
    assert concurrence._pair_choices.cache_info().maxsize == 16
    choices = concurrence._pair_choices(4)
    k, l = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]
    assert choices.tolist() == [[l, k], [k, l]]
    assert not choices.flags.writeable


def test_expansions_require_three_parties():
    s = random_state((2, 2))
    with pytest.raises(ValueError):
        epr_expansion_3q(s, (1, 2))
    with pytest.raises(ValueError):
        ghz_expansion_3q(s, (1, 2))
    with pytest.raises(ValueError):
        epr_expansion_3q(random_state((2, 2, 2)), (2, 1))


# ---------------------------------------------------------------------------
# operator route


def test_bilinear_on_product_states_vanishes():
    for dims in [(2, 2), (3, 3), (2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (3, 3, 3), (2, 3, 3, 2)]:
        s = random_product(dims)
        for kind in ClassKind:
            for spec in pair_specs(dims, kind):
                value = bilinear_condition(s, class_operator(spec))
                assert abs(value) < 1e-12 * s.norm2


def test_bilinear_ghz_state_ghz_operator_magnitude_one():
    value = bilinear_condition(ghz_state(), class_operator(ClassOperatorSpec((2, 2, 2), ClassKind.GHZ, (1, 2))))
    assert abs(value) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("pair", PAIRS)
def test_bilinear_w_state_ghz_operator_vanishes(pair):
    value = bilinear_condition(w_state(), class_operator(ClassOperatorSpec((2, 2, 2), ClassKind.GHZ, pair)))
    assert value == 0


def test_bilinear_dimension_mismatch():
    with pytest.raises(ValueError):
        bilinear_condition(random_state((2, 2)), class_operator(ClassOperatorSpec((2, 2, 2), ClassKind.EPR, (1, 2))))


# ---------------------------------------------------------------------------
# keystone: operator route vs explicit expansions


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 3), (2, 3, 2)])
def test_operator_equals_scaled_expansion(dims):
    for _ in range(100):
        s = random_state(dims)
        for pair in PAIRS:
            epr_op = bilinear_condition(s, class_operator(ClassOperatorSpec(dims, ClassKind.EPR, pair)))
            ghz_op = bilinear_condition(s, class_operator(ClassOperatorSpec(dims, ClassKind.GHZ, pair)))
            epr_ex = epr_expansion_3q(s, pair)
            ghz_ex = ghz_expansion_3q(s, pair)
            assert epr_op == pytest.approx(2 * epr_ex, rel=1e-10, abs=1e-12)
            assert ghz_op == pytest.approx(-2 * ghz_ex, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# structural properties of the bilinear form


def test_scaling_homogeneity_exact_for_power_of_two():
    s = random_state((2, 2, 2))
    doubled = PureState(s.dims, 2 * s.amps)  # power-of-two scale: exact in binary fp
    for kind in ClassKind:
        for spec in pair_specs(s.dims, kind):
            op = class_operator(spec)
            assert bilinear_condition(doubled, op) == 4 * bilinear_condition(s, op)


def test_normalized_magnitude_invariant_under_complex_scale():
    s = random_state((2, 2, 2))
    c = 0.37 - 1.9j
    scaled = PureState(s.dims, c * s.amps)
    r1 = classify(s)
    r2 = classify(scaled)
    for v1, v2 in zip(r1.values, r2.values):
        assert v2.normalized_magnitude == pytest.approx(v1.normalized_magnitude, rel=1e-12, abs=1e-15)


def test_permutation_covariance_swap_first_two():
    s = random_state((2, 2, 2))
    swapped = PureState(s.dims, s.amps.reshape(2, 2, 2).transpose(1, 0, 2).reshape(8))
    for kind in ClassKind:
        def value(state, pair):
            return bilinear_condition(state, class_operator(ClassOperatorSpec((2, 2, 2), kind, pair)))

        assert value(swapped, (1, 2)) == pytest.approx(value(s, (1, 2)), rel=1e-12)
        assert value(swapped, (1, 3)) == pytest.approx(value(s, (2, 3)), rel=1e-12)
        assert value(swapped, (2, 3)) == pytest.approx(value(s, (1, 3)), rel=1e-12)


def test_conjugation_preserves_condition_magnitudes():
    s = random_state((2, 2, 2))
    c = conjugate_state(s)
    for kind in ClassKind:
        for spec in pair_specs(s.dims, kind):
            op = class_operator(spec)
            assert abs(bilinear_condition(c, op)) == pytest.approx(
                abs(bilinear_condition(s, op)), rel=1e-12
            )


# ---------------------------------------------------------------------------
# aggregation


def test_classify_ghz():
    report = classify(ghz_state(), tol=1e-9)
    assert report.verdict is Verdict.GHZ_CLASS_CONDITIONS
    ghz_values = [v for v in report.values if v.kind is ClassKind.GHZ]
    assert all(v.normalized_magnitude == pytest.approx(1.0, abs=1e-12) for v in ghz_values)


def test_classify_w():
    report = classify(w_state(), tol=1e-9)
    assert report.verdict is Verdict.W_CLASS_CONDITIONS
    epr_values = [v for v in report.values if v.kind is ClassKind.EPR]
    assert all(v.normalized_magnitude == pytest.approx(2 / 3, abs=1e-12) for v in epr_values)


def test_classify_basis_state_product():
    report = classify(basis_state((2, 2, 2), (1, 1, 1)), tol=1e-9)
    assert report.verdict is Verdict.NO_CONDITION_FIRES


def test_classify_generic_state_fires_both():
    report = classify(random_state((2, 2, 2)))
    assert report.verdict is Verdict.BOTH


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(PureState((2,), [0, 0]))
    with pytest.raises(ValueError):
        classify(ghz_state(), tol=0.0)


def test_report_contains_all_pairs():
    report = classify(random_state((2, 2, 2, 2)))
    assert len(report.values) == 2 * 6
    assert len({(v.kind, v.pair) for v in report.values}) == 12


# ---------------------------------------------------------------------------
# the mode-product kernel of classify against the dense operator route

KERNEL_RTOL = 1e-12

mixed_dims = st.lists(st.integers(2, 4), min_size=1, max_size=5).map(tuple)
seeds = st.integers(0, 2**32 - 1)
log_scales = st.floats(-3.0, 3.0)  # amplitudes scaled by 1e-3 .. 1e3


def drawn_state(dims, seed, log_scale):
    g = np.random.default_rng(seed)
    n = math.prod(dims)
    return PureState(dims, 10.0**log_scale * (g.normal(size=n) + 1j * g.normal(size=n)))


def drawn_product(dims, seed, log_scale):
    g = np.random.default_rng(seed)
    factors = [PureState((n,), g.normal(size=n) + 1j * g.normal(size=n)) for n in dims]
    return PureState(dims, 10.0**log_scale * product_state(factors).amps)


def dense_values(state):
    """(kind, pair) -> value through class_operator + bilinear_condition."""
    return {
        (spec.kind, spec.pair): bilinear_condition(state, class_operator(spec))
        for kind in ClassKind
        for spec in pair_specs(state.dims, kind)
    }


def dense_verdict(state, tol):
    fired = {kind for (kind, _), value in dense_values(state).items() if abs(value) / state.norm2 > tol}
    if fired == {ClassKind.EPR, ClassKind.GHZ}:
        return Verdict.BOTH
    if fired == {ClassKind.EPR}:
        return Verdict.W_CLASS_CONDITIONS
    if fired == {ClassKind.GHZ}:
        return Verdict.GHZ_CLASS_CONDITIONS
    return Verdict.NO_CONDITION_FIRES


@settings(max_examples=60, deadline=None)
@given(mixed_dims, seeds, log_scales)
def test_kernel_matches_dense_route(dims, seed, log_scale):
    state = drawn_state(dims, seed, log_scale)
    report = classify(state)
    dense = dense_values(state)
    assert [(v.kind, v.pair) for v in report.values] == list(dense)
    for v in report.values:
        assert abs(v.value - dense[v.kind, v.pair]) <= KERNEL_RTOL * state.norm2


@settings(max_examples=60, deadline=None)
@given(mixed_dims, seeds, log_scales)
def test_kernel_vanishes_on_product_states(dims, seed, log_scale):
    report = classify(drawn_product(dims, seed, log_scale))
    assert all(v.normalized_magnitude <= KERNEL_RTOL for v in report.values)
    assert report.verdict is Verdict.NO_CONDITION_FIRES


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 6), min_size=3, max_size=3).map(tuple), seeds, log_scales)
def test_kernel_equals_scaled_expansions(dims, seed, log_scale):
    state = drawn_state(dims, seed, log_scale)
    for v in classify(state).values:
        if v.kind is ClassKind.EPR:
            expected = EPR_OPERATOR_FACTOR * epr_expansion_3q(state, v.pair)
        else:
            expected = GHZ_OPERATOR_FACTOR * ghz_expansion_3q(state, v.pair)
        assert abs(v.value - expected) <= KERNEL_RTOL * state.norm2


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 4), min_size=1, max_size=2).map(tuple), seeds, log_scales, st.booleans())
def test_kernel_verdicts_for_one_and_two_parties(dims, seed, log_scale, product):
    state = (drawn_product if product else drawn_state)(dims, seed, log_scale)
    report = classify(state)
    assert len(report.values) == 2 * math.comb(len(dims), 2)
    assert report.verdict is dense_verdict(state, report.tol)


def test_classify_and_proposition_check_build_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense class operator was built")

    monkeypatch.setattr(class_operators, "class_operator", refuse)
    monkeypatch.setattr(class_operators, "kron_all", refuse)
    monkeypatch.setattr(state_core, "kron_all", refuse)
    assert classify(ghz_state()).verdict is Verdict.GHZ_CLASS_CONDITIONS
    assert classify(random_state((2, 3, 4, 2))).verdict is Verdict.BOTH
    spec = EntanglerSpec(3, 2, np.exp(1j * rng.uniform(0, 2 * np.pi, 8)))
    for kind in ClassKind:
        for target in EvaluationTarget:
            assert proposition_check(spec, kind, target).report.values


@pytest.mark.parametrize(
    "state, verdict, fired_kind, magnitude",
    [
        (ghz_state(12), Verdict.GHZ_CLASS_CONDITIONS, ClassKind.GHZ, 1.0),
        (w_state(12), Verdict.W_CLASS_CONDITIONS, ClassKind.EPR, 2 / 12),
    ],
    ids=["ghz", "w"],
)
def test_classify_twelve_qubits(state, verdict, fired_kind, magnitude):
    # the dense route would need 132 operators of 4096 x 4096 (268 MB each)
    report = classify(state)
    assert report.verdict is verdict
    for v in report.values:
        expected = magnitude if v.kind is fired_kind else 0.0
        assert v.normalized_magnitude == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# the gathered expansions against the nested-loop evaluation of the paper's
# term lists, one amplitude lookup per factor, kept here as their reference


def _amp(state, digits):
    return state.amps[flatten(digits, state.dims)]


def _epr_loop(state, pair):
    r1, r2 = pair
    (spectator,) = {1, 2, 3} - {r1, r2}
    n1, n2, ns = state.dims[r1 - 1], state.dims[r2 - 1], state.dims[spectator - 1]

    def digits(a, b, c):
        d = [0, 0, 0]
        d[r1 - 1], d[r2 - 1], d[spectator - 1] = a, b, c
        return tuple(d)

    total = 0.0 + 0.0j
    for k1 in range(1, n1 + 1):
        for l1 in range(k1 + 1, n1 + 1):
            for k2 in range(1, n2 + 1):
                for l2 in range(k2 + 1, n2 + 1):
                    for t in range(1, ns + 1):
                        total += (
                            _amp(state, digits(k1, l2, t)) * _amp(state, digits(l1, k2, t))
                            - _amp(state, digits(k1, k2, t)) * _amp(state, digits(l1, l2, t))
                        )
    return total


def _ghz_loop(state, pair):
    s1, s2, s3, s4 = concurrence._GHZ_TERM_SIGNS[pair]
    n1, n2, n3 = state.dims

    total = 0.0 + 0.0j
    for k1 in range(1, n1 + 1):
        for l1 in range(k1 + 1, n1 + 1):
            for k2 in range(1, n2 + 1):
                for l2 in range(k2 + 1, n2 + 1):
                    for k3 in range(1, n3 + 1):
                        for l3 in range(k3 + 1, n3 + 1):
                            total += (
                                s1 * _amp(state, (k1, l2, l3)) * _amp(state, (l1, k2, k3))
                                + s2 * _amp(state, (k1, l2, k3)) * _amp(state, (l1, k2, l3))
                                + s3 * _amp(state, (k1, k2, l3)) * _amp(state, (l1, l2, k3))
                                + s4 * _amp(state, (k1, k2, k3)) * _amp(state, (l1, l2, l3))
                            )
    return total


# The gathers sum the same products in another order; fixed before measuring
# from float64 rounding over at most C(5,2)^3 = 1000 products of |a|^2 size.
GATHER_RTOL = 1e-13


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(2, 5), min_size=3, max_size=3).map(tuple), seeds, log_scales)
@example((2, 5, 3), 0, 0.0)
@example((5, 2, 4), 1, -3.0)
@example((4, 3, 2), 2, 3.0)
def test_gathered_expansions_equal_loop_reference(dims, seed, log_scale):
    state = drawn_state(dims, seed, log_scale)
    for pair in PAIRS:
        assert abs(epr_expansion_3q(state, pair) - _epr_loop(state, pair)) <= GATHER_RTOL * state.norm2
        assert abs(ghz_expansion_3q(state, pair) - _ghz_loop(state, pair)) <= GATHER_RTOL * state.norm2


# ---------------------------------------------------------------------------
# the all-qubit kernel against the mode-product kernel, the dense route and
# exact values

AMPLITUDE_KINDS = ("random", "sparse", "product", "integer")


def drawn_amps(dims, kind, seed, log_scale):
    g = np.random.default_rng(seed)
    d = math.prod(dims)
    if kind == "random":
        a = g.normal(size=d) + 1j * g.normal(size=d)
    elif kind == "sparse":
        a = np.zeros(d, dtype=complex)
        k = int(g.integers(1, min(d, 4) + 1))
        a[g.choice(d, k, replace=False)] = g.normal(size=k) + 1j * g.normal(size=k)
    elif kind == "product":
        a = product_state([PureState((n,), g.normal(size=n) + 1j * g.normal(size=n)) for n in dims]).amps
    else:
        a = (g.integers(-3, 4, d) + 1j * g.integers(-3, 4, d)).astype(complex)
        a[0] = 4  # never the zero vector
    return 10.0**log_scale * a


qubit_draws = st.tuples(st.integers(2, 12), st.sampled_from(AMPLITUDE_KINDS), seeds, log_scales)


@settings(max_examples=80, deadline=None)
@given(qubit_draws)
@example((3, "sparse", 0, 0.0))
@example((12, "integer", 1, 3.0))
def test_qubit_kernel_equals_mode_products(draw):
    m, kind, seed, log_scale = draw
    a = drawn_amps((2,) * m, kind, seed, log_scale)
    qubit = concurrence._qubit_conditions(m, a)
    modes = concurrence._mode_product_conditions((2,) * m, a)
    # == compares numbers: only the sign of an exact zero may differ
    for fast, reference in zip(qubit, modes):
        assert np.array_equal(fast, reference)
    if m <= 6:  # the dense route needs 2 C(m,2) operators of 4^m entries
        state = PureState((2,) * m, a)
        for (kind_, (r, s)), value in dense_values(state).items():
            matrix = qubit[0] if kind_ is ClassKind.EPR else qubit[1]
            assert abs(matrix[r - 1, s - 1] - value) <= KERNEL_RTOL * state.norm2


def test_all_qubit_states_skip_the_mode_product_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the mode-product kernel ran on an all-qubit state")

    monkeypatch.setattr(concurrence, "_mode_product_conditions", refuse)
    for m in range(2, 9):
        assert classify(random_state((2,) * m)).verdict is Verdict.BOTH
    assert classify(ghz_state(5)).verdict is Verdict.GHZ_CLASS_CONDITIONS
    assert classify(w_state(7)).verdict is Verdict.W_CLASS_CONDITIONS
    for m in (2, 3, 4, 5):
        spec = EntanglerSpec(m, 2, np.exp(1j * rng.uniform(0, 2 * np.pi, 2**m)))
        for kind in ClassKind:
            for target in EvaluationTarget:
                assert proposition_check(spec, kind, target).report.values


@pytest.mark.parametrize("dims", [(3, 3, 3), (2, 3), (2, 3, 2)])
def test_other_shapes_take_the_mode_product_kernel(monkeypatch, dims):
    calls = []
    kernel = concurrence._mode_product_conditions

    def spy(*args):
        calls.append(args[0])
        return kernel(*args)

    monkeypatch.setattr(concurrence, "_mode_product_conditions", spy)
    assert classify(random_state(dims)).verdict is Verdict.BOTH
    assert calls == [dims]


def test_classify_memory_at_fourteen_qubits():
    m = 14
    d = 2**m
    state = drawn_state((2,) * m, 14, 0.0)
    classify(state)
    tracemalloc.start()
    try:
        classify(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the mode-product kernel peaked at 6.07 x (m*d complex), 22.3 MB here
    assert peak < 4 * 16 * m * d


# Exact values: every float is a dyadic rational (Fraction(x) is exact), and
# for qubits every class-operator entry is 0, +-1 or +-i, so sum_jk a_j a_k M[j,k]
# is exact over (re, im) Fraction pairs.  Both kernels form b, y, z exactly (a
# product with +-i or -1 rounds nowhere), so their only rounding is in the
# unconjugated dot products of d = 2^m entries whose magnitudes are those of a:
# |fl - exact| <= sqrt(2) gamma_{2d} |a|^2, gamma_n = n u / (1 - n u), u = eps/2.
# For m <= 6 that is below EXACT_C * m * eps * |a|^2 (at m = 6: 90.6 < 96).
EXACT_C = 16
EPS = Fraction(np.finfo(float).eps)


def _gaussian(z):
    return Fraction(z.real), Fraction(z.imag)


def _gaussian_product(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def exact_values(state):
    """(kind, pair) -> the exact (re, im) of sum_jk a_j a_k M[j,k], for any dims.

    Every entry of a dense class operator is a product of entries of T(pi/2)
    (0, +-i), T(pi) (0, -1) and the identity, so it is 0, +-1 or +-i for
    qubits, qutrits and mixed dims alike.  The exact values are those of the
    float amplitudes as given, not of the state their author meant:
    `ghz_state()` stores fl(1/sqrt(2)), so its exact GHZ values have modulus
    2 fl(1/sqrt(2))^2, not 1.
    """
    a = [_gaussian(z) for z in state.amps.tolist()]
    values = {}
    for kind in ClassKind:
        for spec in pair_specs(state.dims, kind):
            mat = class_operator(spec).mat
            total = (Fraction(0), Fraction(0))
            for j, k in zip(*np.nonzero(mat)):
                entry = complex(mat[j, k])
                assert entry in (1, -1, 1j, -1j)
                term = _gaussian_product(_gaussian_product(a[j], a[k]), _gaussian(entry))
                total = (total[0] + term[0], total[1] + term[1])
            values[spec.kind, spec.pair] = total
    return values


def _exact_norm2(state):
    return sum(re * re + im * im for re, im in map(_gaussian, state.amps.tolist()))


def _abs2(x):
    return x[0] * x[0] + x[1] * x[1]


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(2, 6), st.sampled_from(AMPLITUDE_KINDS), seeds, log_scales))
@example((6, "random", 3, 3.0))
def test_both_kernels_within_rounding_bound_of_exact_values(draw):
    m, kind, seed, log_scale = draw
    state = PureState((2,) * m, drawn_amps((2,) * m, kind, seed, log_scale))
    exact = exact_values(state)
    bound2 = (EXACT_C * m * EPS * _exact_norm2(state)) ** 2
    for kernel in (concurrence._qubit_conditions(m, state.amps), concurrence._mode_product_conditions(state.dims, state.amps)):
        for kind_, matrix in zip((ClassKind.EPR, ClassKind.GHZ), kernel):
            for r, s in itertools.combinations(range(m), 2):
                value = _gaussian(matrix[r, s])
                want = exact[kind_, (r + 1, s + 1)]
                assert _abs2((value[0] - want[0], value[1] - want[1])) <= bound2


# The mode products on any dims, against the same exact values.  Written as
# real arithmetic, the kernel is sums of products, so by the standard running
# bound |fl - exact| <= gamma_K * (the same computation on absolute values),
# with K the most roundings on any path from an input to the output:
# X = T(pi/2) - colsum / (N - 1) takes at most N + 1, a mode product N (one
# product, N - 1 sums), c = P a m of them, and the Gram product d + 1, so
# K <= (m + 1) N_max + d + 1.  With rho(z) = |re z| + |im z| (a +-i or -1
# entry has rho = 1, and |rho(a)|^2 <= 2 |a|^2), the absolute EPR computation
# is (|T|_r rho) . (|T|_s rho) with |T(pi/2)| = J - I of norm N - 1.  For GHZ,
# X's entries compute to rho <= 2 off the diagonal and 1 on it (W = 2J - I),
# and c = P a carries |T(pi)| = J - I on every axis, the (N - 1) per slot
# that undoing T(pi) with X = T(pi)^-1 T(pi/2) does not remove from the
# rounding: the absolute value is rho . (J-I)W_r (J-I)W_s (x) (J-I)_others rho,
# and (J-I)(2J-I) = (2N-3)J + I has norm (2N-3)N + 1.


def _gamma(n):
    u = EPS / 2
    return n * u / (1 - n * u)


def mode_product_bound(dims, kind, pair):
    """gamma_K * 2 * F * |a|^2 as a factor of |a|^2, F the norm of the absolute computation."""
    m, d = len(dims), math.prod(dims)
    r, s = (dims[i - 1] for i in pair)
    if kind is ClassKind.EPR:
        factor = (r - 1) * (s - 1)
    else:
        others = math.prod(n - 1 for i, n in enumerate(dims, start=1) if i not in pair)
        factor = ((2 * r - 3) * r + 1) * ((2 * s - 3) * s + 1) * others
    return _gamma((m + 1) * max(dims) + d + 1) * 2 * factor


small_dims = st.lists(st.integers(2, 4), min_size=2, max_size=4).map(tuple).filter(lambda dims: math.prod(dims) <= 81)


@settings(max_examples=40, deadline=None)
@given(small_dims, st.sampled_from(AMPLITUDE_KINDS), seeds, log_scales)
@example((3, 3, 3), "random", 0, 0.0)
@example((4, 4, 4), "random", 1, 3.0)
@example((3, 3, 3, 3), "integer", 2, -3.0)
@example((2, 4, 3), "sparse", 3, 0.0)
def test_mode_products_within_rounding_bound_of_exact_values(dims, kind, seed, log_scale):
    state = PureState(dims, drawn_amps(dims, kind, seed, log_scale))
    exact = exact_values(state)
    norm2 = _exact_norm2(state)
    for kind_, matrix in zip((ClassKind.EPR, ClassKind.GHZ), concurrence._mode_product_conditions(dims, state.amps)):
        for r, s in itertools.combinations(range(len(dims)), 2):
            value = _gaussian(matrix[r, s])
            want = exact[kind_, (r + 1, s + 1)]
            bound = mode_product_bound(dims, kind_, (r + 1, s + 1)) * norm2
            assert _abs2((value[0] - want[0], value[1] - want[1])) <= bound**2


def _exact_verdict(fired):
    return {
        frozenset(): Verdict.NO_CONDITION_FIRES,
        frozenset({ClassKind.EPR}): Verdict.W_CLASS_CONDITIONS,
        frozenset({ClassKind.GHZ}): Verdict.GHZ_CLASS_CONDITIONS,
        frozenset(ClassKind): Verdict.BOTH,
    }[frozenset(fired)]


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(2, 6), st.sampled_from(AMPLITUDE_KINDS), seeds, log_scales),
    st.one_of(st.floats(-12.0, 0.0).map(lambda x: ("absolute", x)), st.integers(-4, 4).map(lambda j: ("at a value", j))),
)
def test_float_verdict_equals_exact_verdict_off_the_threshold(draw, threshold):
    m, kind, seed, log_scale = draw
    state = PureState((2,) * m, drawn_amps((2,) * m, kind, seed, log_scale))
    mode, x = threshold
    if mode == "absolute":
        tol = 10.0**x
    else:  # a few ulps from one of the state's own normalized magnitudes
        magnitudes = [v.normalized_magnitude for v in classify(state).values if v.normalized_magnitude > 0]
        assume(magnitudes)
        at = magnitudes[seed % len(magnitudes)]
        tol = float(at + x * np.spacing(at))
    report = classify(state, tol)
    norm2 = _exact_norm2(state)
    exact_tol = Fraction(tol)
    # |normalized - |v|/|a|^2| <= the kernel bound plus the relative rounding
    # of |v|, of the division and of norm2 (d squares summed: (d + 3) u)
    band = EXACT_C * m * EPS + (2**m + 4) * EPS * (exact_tol + 1)
    exact_fired, near = set(), False
    for (kind_, pair), value in exact_values(state).items():
        v2 = _abs2(value)
        if v2 > exact_tol**2 * norm2**2:
            exact_fired.add(kind_)
        lo, hi = max(exact_tol - band, Fraction(0)), exact_tol + band
        in_band = lo**2 * norm2**2 <= v2 <= hi**2 * norm2**2
        near = near or in_band
        fires = next(v for v in report.values if (v.kind, v.pair) == (kind_, pair)).fires(tol)
        assert fires == (v2 > exact_tol**2 * norm2**2) or in_band
    assert report.verdict is _exact_verdict(exact_fired) or near


# ---------------------------------------------------------------------------
# amplitudes at the ends of the float range


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2,), (2, 2), (2, 2, 2), (2, 2, 2, 2), (3, 3), (2, 3, 2)]),
    seeds,
    log_scales,
    st.integers(-600, 600),
)
@example((2, 2), 0, 0.0, 600)
@example((2, 2, 2), 1, -3.0, -600)
@example((2, 2, 2), 2, 3.0, -511)
def test_power_of_two_scaling_keeps_every_verdict(dims, seed, log_scale, k):
    state = drawn_state(dims, seed, log_scale)
    scaled = PureState(dims, np.ldexp(state.amps.view(float), k).view(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, far = classify(state), classify(scaled)
        oracle, far_oracle = oracle_classify(state), oracle_classify(scaled)
    assert far.verdict is report.verdict
    assert [v.normalized_magnitude for v in far.values] == [v.normalized_magnitude for v in report.values]
    assert far_oracle.label is oracle.label
    assert far_oracle.purities == oracle.purities


def test_ends_of_the_float_range():
    bell = np.array([1, 0, 0, 1], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = classify(PureState((2, 2), np.ldexp(bell.real, 600)))
        tiny = classify(PureState((2, 2), np.ldexp(bell.real, -600)))
        ghz = PureState((2, 2, 2), 1e160 * ghz_state().amps)
        assert classify(ghz).verdict is Verdict.GHZ_CLASS_CONDITIONS
        assert oracle_classify(ghz).label is StateClass.GHZ_CLASS
        assert oracle_classify(PureState((2, 2, 2), 2.0**-600 * w_state().amps)).label is StateClass.W_CLASS
    assert big.verdict is tiny.verdict is classify(PureState((2, 2), bell)).verdict
    assert [v.normalized_magnitude for v in big.values] == [1.0, 1.0]
    # value and magnitude are the state's own, rounded to float64
    assert [v.magnitude for v in big.values] == [math.inf, math.inf]
    assert [v.magnitude for v in tiny.values] == [0.0, 0.0]


# ---------------------------------------------------------------------------
# the lazy report against the eager loop that built every ConditionValue
# before deciding the verdict, kept here as its reference


def _eager_unscaled(v, k):
    with np.errstate(over="ignore"):
        re, im, magnitude = np.ldexp([v.value.real, v.value.imag, v.magnitude], k).tolist()
    return dataclasses.replace(v, value=complex(re, im), magnitude=magnitude)


def eager_report(state, tol=DEFAULT_TOL):
    """(values, verdict) as classify built them: one ConditionValue per value, then the verdict."""
    amps, norm2, shift = state.scaled_amplitudes()
    values = []
    if state.m > 1:
        for kind, matrix in zip((ClassKind.EPR, ClassKind.GHZ), concurrence._condition_matrices(state.dims, amps)):
            rows = matrix.tolist()
            for r, s in itertools.combinations(range(state.m), 2):
                value = rows[r][s]
                magnitude = abs(value)
                values.append(ConditionValue(kind, (r + 1, s + 1), value, magnitude, magnitude / norm2))
    if shift:
        values = [_eager_unscaled(v, 2 * shift) for v in values]
    epr_fired = any(v.fires(tol) for v in values if v.kind is ClassKind.EPR)
    ghz_fired = any(v.fires(tol) for v in values if v.kind is ClassKind.GHZ)
    fired = {kind for kind, on in ((ClassKind.EPR, epr_fired), (ClassKind.GHZ, ghz_fired)) if on}
    return tuple(values), _exact_verdict(fired)


report_dims = st.one_of(
    st.integers(1, 12).map(lambda m: (2,) * m),
    st.integers(1, 6).map(lambda m: (3,) * m),
    st.lists(st.integers(2, 4), min_size=1, max_size=5).map(tuple),
)


@settings(max_examples=120, deadline=None)
@given(
    report_dims,
    st.sampled_from(AMPLITUDE_KINDS),
    seeds,
    st.one_of(st.just(0), st.sampled_from([-600, 600]), st.integers(-600, 600)),
    st.one_of(st.just(DEFAULT_TOL), st.floats(1e-15, 1.0)),
)
@example((2, 2), "random", 0, 600, DEFAULT_TOL)
@example((2,) * 12, "sparse", 1, -600, DEFAULT_TOL)
@example((3, 3, 3), "product", 2, 0, DEFAULT_TOL)
@example((2,), "random", 3, 600, DEFAULT_TOL)
def test_lazy_report_equals_eager_reference(dims, kind, seed, k, tol):
    state = PureState(dims, np.ldexp(drawn_amps(dims, kind, seed, 0.0).view(float), k).view(complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values, _ = eager_report(state, tol)
        top = max((v.normalized_magnitude for v in values), default=0.0)
        # also tol at the largest normalized magnitude itself, where > and >= part
        for tol_ in {tol, top or tol}:
            report = classify(state, tol_)
            values, verdict = eager_report(state, tol_)
            assert report.verdict is verdict
            for kind_ in ClassKind:
                assert report.fired(kind_) == any(v.kind is kind_ and v.fires(tol_) for v in values)
            # repr shows every bit, the sign of a zero included
            assert list(map(repr, report.values)) == list(map(repr, values))


def test_report_values_are_built_once():
    report = classify(random_state((2, 3, 2)))
    first = report.values
    assert isinstance(first, tuple) and report.values is first
    assert len(first) == 2 * 3


def test_report_replace_equality_and_hash():
    state = random_state((2, 2, 2, 2))
    report = classify(state, label="s")
    flipped = dataclasses.replace(report, verdict=Verdict.W_CLASS_CONDITIONS)
    assert report.verdict is Verdict.BOTH and flipped.verdict is Verdict.W_CLASS_CONDITIONS
    assert flipped.values == report.values and flipped.state == "s" and flipped.tol == report.tol
    assert all(flipped.fired(kind) == report.fired(kind) for kind in ClassKind)
    assert flipped != report
    # == and hash go over state, values, tol and verdict, as a dataclass over those four fields does
    again = classify(state, label="s")
    assert again == report and hash(again) == hash(report)
    assert hash(report) == hash((report.state, report.values, report.tol, report.verdict))
    assert classify(state, label="t") != report
    assert classify(state, 0.5, label="s") != report
    with pytest.raises(ValueError, match=r"classify\(state, tol\)"):
        dataclasses.replace(report, tol=0.5)
    assert report != (report.state, report.values, report.tol, report.verdict)
    assert len({report, again, flipped}) == 2
    assert repr(report) == (
        f"ConditionReport(state='s', values={report.values!r}, tol={report.tol!r}, verdict={Verdict.BOTH!r})"
    )


def test_report_answers_at_the_tol_its_verdict_was_decided_at():
    g = np.random.default_rng(1)
    state = PureState((2,) * 4, g.normal(size=16) + 1j * g.normal(size=16))
    report = classify(state)
    assert report.verdict is Verdict.BOTH
    # at tol 0.9 no condition fires, so a report carrying tol 0.9 and the verdict BOTH would contradict itself
    assert classify(state, 0.9).verdict is Verdict.NO_CONDITION_FIRES
    with pytest.raises(ValueError, match=r"decided at tol=1e-09, not tol=0\.9; classify\(state, tol\)"):
        dataclasses.replace(report, tol=0.9)
    assert dataclasses.replace(report, tol=report.tol) == report
    flipped = dataclasses.replace(report, verdict=Verdict.GHZ_CLASS_CONDITIONS)
    assert flipped.verdict is Verdict.GHZ_CLASS_CONDITIONS and flipped.tol == report.tol
    for again in (pickle.loads(pickle.dumps(report)), copy.copy(report), copy.deepcopy(report)):
        assert again == report and hash(again) == hash(report) and again.tol == report.tol


def test_verdicts_and_checks_build_no_condition_value(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a ConditionValue was built")

    monkeypatch.setattr(ConditionValue, "__init__", refuse)
    for dims in [(2,) * m for m in range(1, 13)] + [(3, 3, 3)]:
        report = classify(random_state(dims))
        assert report.verdict is (Verdict.NO_CONDITION_FIRES if len(dims) == 1 else Verdict.BOTH)
        assert [report.fired(kind) for kind in ClassKind] == [len(dims) > 1] * 2
    assert classify(ghz_state(12)).verdict is Verdict.GHZ_CLASS_CONDITIONS
    assert classify(w_state(12)).verdict is Verdict.W_CLASS_CONDITIONS
    for m, N in [(m, 2) for m in range(2, 13)] + [(3, 3)]:
        spec = EntanglerSpec(m, N, np.exp(1j * rng.uniform(0, 2 * np.pi, N**m)))
        for kind in ClassKind:
            for target in EvaluationTarget:
                assert proposition_check(spec, kind, target).fires
    with pytest.raises(AssertionError, match="ConditionValue was built"):
        classify(ghz_state()).values
