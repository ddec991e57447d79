import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from entangler_lab import class_operators, concurrence, state_core
from entangler_lab.class_operators import ClassKind, ClassOperatorSpec, class_operator, pair_specs
from entangler_lab.concurrence import (
    EPR_OPERATOR_FACTOR,
    GHZ_OPERATOR_FACTOR,
    Verdict,
    bilinear_condition,
    classify,
    epr_expansion_3q,
    ghz_expansion_3q,
)
from entangler_lab.entangler import EntanglerSpec, EvaluationTarget, proposition_check
from entangler_lab.state_core import (
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
