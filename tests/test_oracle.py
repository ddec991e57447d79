import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entangler_lab import oracle
from entangler_lab.concurrence import Verdict, classify
from entangler_lab.oracle import (
    DensityMatrix,
    StateClass,
    oracle_classify,
    partial_trace,
    three_tangle,
    verdicts_agree,
    wootters_concurrence,
)
from entangler_lab.state_core import (
    DEFAULT_TOL,
    PureState,
    ghz_state,
    kron_all,
    product_state,
    w_state,
)

rng = np.random.default_rng(808)


def random_state(dims):
    n = math.prod(dims)
    return PureState(dims, rng.normal(size=n) + 1j * rng.normal(size=n))


def random_product(dims):
    return product_state(
        [PureState((n,), rng.normal(size=n) + 1j * rng.normal(size=n)) for n in dims]
    )


def bell_state():
    return PureState((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2))


def random_unitary(n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# partial traces


def test_partial_trace_product_state_is_pure_projector():
    s = random_product((2, 3, 2))
    for k in (1, 2, 3):
        rho = partial_trace(s, (k,))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_ghz_marginal():
    rho = partial_trace(ghz_state(), (1,))
    assert np.allclose(rho.mat, np.diag([0.5, 0.5]), atol=1e-14)


def test_partial_trace_bell_marginal():
    rho = partial_trace(bell_state(), (2,))
    assert np.allclose(rho.mat, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_validation():
    s = random_state((2, 2))
    with pytest.raises(ValueError):
        partial_trace(s, ())
    with pytest.raises(ValueError):
        partial_trace(s, (3,))
    with pytest.raises(ValueError):
        partial_trace(s, (1, 1))


def test_partial_trace_invariants_on_random_states():
    # the DensityMatrix constructor enforces Hermiticity, unit trace, and PSD
    for _ in range(1000):
        dims = tuple(rng.choice([2, 3], size=rng.integers(2, 4)))
        s = random_state(dims)
        keep = (int(rng.integers(1, len(dims) + 1)),)
        partial_trace(s, keep)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrix((2,), np.array([[0.5, 0.5], [-0.5, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix((2,), np.eye(2))
    with pytest.raises(ValueError, match="semidefinite"):
        DensityMatrix((2,), np.diag([1.5, -0.5]))


# ---------------------------------------------------------------------------
# Wootters concurrence


def test_wootters_bell():
    rho = partial_trace(bell_state(), (1, 2))
    assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-10)


def test_wootters_product():
    rho = partial_trace(random_product((2, 2)), (1, 2))
    assert wootters_concurrence(rho) == pytest.approx(0.0, abs=1e-10)


def test_wootters_w_state_pair():
    for pair in [(1, 2), (1, 3), (2, 3)]:
        rho = partial_trace(w_state(), pair)
        assert wootters_concurrence(rho) == pytest.approx(2 / 3, abs=1e-10)


def test_wootters_pure_state_specialization():
    for _ in range(300):
        s = random_state((2, 2))
        direct = 2 * abs(s.amps[0] * s.amps[3] - s.amps[1] * s.amps[2]) / s.norm2
        rho = partial_trace(s, (1, 2))
        assert wootters_concurrence(rho) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
def test_wootters_werner_state(p):
    # p |singlet><singlet| + (1 - p) I/4 has full rank for p < 1 and C = max(0, (3p - 1)/2)
    singlet = np.array([0, 1, -1, 0]) / math.sqrt(2)
    rho = p * np.outer(singlet, singlet) + (1 - p) * np.eye(4) / 4
    assert wootters_concurrence(rho) == pytest.approx(max(0.0, (3 * p - 1) / 2), abs=1e-12)


def test_wootters_validation():
    with pytest.raises(ValueError):
        wootters_concurrence(np.eye(4))  # trace 4
    with pytest.raises(ValueError):
        wootters_concurrence(partial_trace(random_state((2, 3)), (2,)))


# ---------------------------------------------------------------------------
# three-tangle


def test_three_tangle_canonical_values():
    assert three_tangle(ghz_state()) == pytest.approx(1.0, abs=1e-10)
    assert three_tangle(w_state()) == pytest.approx(0.0, abs=1e-10)
    assert three_tangle(random_product((2, 2, 2))) == pytest.approx(0.0, abs=1e-10)


def test_three_tangle_local_unitary_invariance():
    for _ in range(100):
        s = random_state((2, 2, 2))
        u = kron_all([random_unitary(2) for _ in range(3)])
        rotated = PureState(s.dims, u @ s.amps)
        assert three_tangle(rotated) == pytest.approx(three_tangle(s), abs=1e-10)


def test_three_tangle_shape_validation():
    with pytest.raises(ValueError):
        three_tangle(random_state((2, 2)))
    with pytest.raises(ValueError):
        three_tangle(random_state((3, 3, 3)))
    with pytest.raises(ValueError, match="cannot normalize the zero vector"):
        three_tangle(PureState((2, 2, 2), np.zeros(8)))


def test_three_tangle_builds_no_normalized_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("normalized copy of the state built")

    monkeypatch.setattr(PureState, "normalize", refuse)
    assert three_tangle(PureState((2, 2, 2), 3.0 * ghz_state().amps)) == pytest.approx(1.0, abs=1e-10)


def _three_tangle_reference(state):
    """The three-tangle over numpy complex scalars, one indexed amplitude per factor."""
    a, n2, _ = state.scaled_amplitudes()
    a = a / math.sqrt(n2)

    def g(i, j, k):  # 0-based qubit digits
        return a[4 * i + 2 * j + k]

    d1 = (
        g(0, 0, 0) ** 2 * g(1, 1, 1) ** 2
        + g(0, 0, 1) ** 2 * g(1, 1, 0) ** 2
        + g(0, 1, 0) ** 2 * g(1, 0, 1) ** 2
        + g(1, 0, 0) ** 2 * g(0, 1, 1) ** 2
    )
    d2 = (
        g(0, 0, 0) * g(1, 1, 1) * g(0, 1, 1) * g(1, 0, 0)
        + g(0, 0, 0) * g(1, 1, 1) * g(1, 0, 1) * g(0, 1, 0)
        + g(0, 0, 0) * g(1, 1, 1) * g(1, 1, 0) * g(0, 0, 1)
        + g(0, 1, 1) * g(1, 0, 0) * g(1, 0, 1) * g(0, 1, 0)
        + g(0, 1, 1) * g(1, 0, 0) * g(1, 1, 0) * g(0, 0, 1)
        + g(1, 0, 1) * g(0, 1, 0) * g(1, 1, 0) * g(0, 0, 1)
    )
    d3 = (
        g(0, 0, 0) * g(1, 1, 0) * g(1, 0, 1) * g(0, 1, 1)
        + g(1, 1, 1) * g(0, 0, 1) * g(0, 1, 0) * g(1, 0, 0)
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.sampled_from([1.0, 1e-150, 1e150, 2.0**-600, 2.0**600]),
)
def test_three_tangle_equals_numpy_scalar_reference_bitwise(seed, nonzero, scale):
    g = np.random.default_rng(seed)
    a = np.zeros(8, dtype=complex)
    where = g.choice(8, nonzero, replace=False)
    a[where] = g.normal(size=nonzero) + 1j * g.normal(size=nonzero)
    state = PureState((2, 2, 2), scale * a)
    assert three_tangle(state) == _three_tangle_reference(state)
    for fixed in (ghz_state(), w_state(), random_product((2, 2, 2))):
        assert three_tangle(fixed) == _three_tangle_reference(fixed)


# The exact three-tangle of the float input.  With a the amplitudes as given
# (unnormalized) and D = d1 - 2 d2 + 4 d3 their degree-4 form,
# tau = 4 |D| / n2^2, so tau^2 = 16 |D|^2 / n2^4 is a rational number, exact
# over (re, im) Fraction pairs of the dyadic floats.
#
# Bound on |three_tangle - tau|, first order in u = eps/2, for b = a/sqrt(n2)
# (sum |b|^2 = 1; a power-of-two rescaling first changes no bits):
# * n2 = sum |a_j|^2: |a_j| within u (hypot), its square within 3u, the sum of
#   8 nonnegative terms within 7u more, so 10u; sqrt(n2) within 5u + u; each
#   normalized component a_j / sqrt(n2) within 7u.  Every term of D is a product
#   of 4 of them, so D moves by at most 4 * 7u * S, where S is the sum of
#   |coefficient * term| over D's 12 terms.
# * each term takes 3 complex products, each within sqrt(2) gamma_2 (2.83u),
#   so 8.49u; the scalings by 2 and 4 are exact; no term passes through more
#   than 7 complex additions, each rounding re and im separately, so the sums
#   add gamma_7 S (Minkowski turns the per-part bounds into one on modulus).
# * abs() is within 1 ulp (2u); the final 4 * is exact.
# * S <= 1: with q_i = |b_x b_~x| <= s_i / 2 over the 4 complementary pairs
#   (s_i = |b_x|^2 + |b_~x|^2, sum s_i = 1), d1 <= sum q_i^2 <= 1/4,
#   2 d2 <= (sum q_i)^2 - sum q_i^2 <= 1/4, and each d3 term is a product of
#   4 distinct |b| of squared sum t, at most (t/4)^2 by AM-GM, so 4 d3 <= 1/4.
# Together 4 (28 + 8.49 + 7 + 2) u S <= 182u = 91 eps; TANGLE_BOUND leaves
# room for the second-order terms and for underflow in sparse inputs, which is
# absolute and far below eps.
TANGLE_BOUND = Fraction(128) * Fraction(np.finfo(float).eps)


def _pair(z):
    return Fraction(*z.real.as_integer_ratio()), Fraction(*z.imag.as_integer_ratio())


def _times(*factors):
    re, im = Fraction(1), Fraction(0)
    for x, y in factors:
        re, im = re * x - im * y, re * y + im * x
    return re, im


def exact_tangle_squared(state):
    """tau^2 = 16 |d1 - 2 d2 + 4 d3|^2 / n2^4 of the unnormalized float amplitudes, exactly."""
    a = [_pair(z) for z in state.amps.tolist()]

    def g(i, j, k):  # 0-based qubit digits
        return a[4 * i + 2 * j + k]

    # the four complementary pairs x, ~x and their products
    pairs = [_times(g(i, j, k), g(1 - i, 1 - j, 1 - k)) for i, j, k in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]]
    d1 = [_times(p, p) for p in pairs]
    d2 = [_times(p, q) for p, q in itertools.combinations(pairs, 2)]
    d3 = [
        _times(g(0, 0, 0), g(1, 1, 0), g(1, 0, 1), g(0, 1, 1)),
        _times(g(1, 1, 1), g(0, 0, 1), g(0, 1, 0), g(1, 0, 0)),
    ]
    re = sum(t[0] for t in d1) - 2 * sum(t[0] for t in d2) + 4 * sum(t[0] for t in d3)
    im = sum(t[1] for t in d1) - 2 * sum(t[1] for t in d2) + 4 * sum(t[1] for t in d3)
    n2 = sum(x * x + y * y for x, y in a)
    return 16 * (re * re + im * im) / n2**4


def drawn_three_qubit_state(g, kind):
    if kind == "random":
        return PureState((2, 2, 2), g.normal(size=8) + 1j * g.normal(size=8))
    if kind == "sparse":
        nonzero = int(g.integers(1, 5))
        a = np.zeros(8, dtype=complex)
        a[g.choice(8, nonzero, replace=False)] = g.normal(size=nonzero) + 1j * g.normal(size=nonzero)
        return PureState((2, 2, 2), a)
    if kind == "product":
        return product_state([PureState((2,), g.normal(size=2) + 1j * g.normal(size=2)) for _ in range(3)])
    base = {"ghz": ghz_state(), "w": w_state()}.get(kind, None)
    if base is not None:
        return base
    # local unitaries on a GHZ, W or random state: tau is unchanged, the float input is not
    start = [ghz_state(), w_state(), PureState((2, 2, 2), g.normal(size=8) + 1j * g.normal(size=8))][int(g.integers(3))]
    unitaries = []
    for _ in range(3):
        q, r = np.linalg.qr(g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2)))
        unitaries.append(q * (np.diag(r) / np.abs(np.diag(r))))
    return PureState((2, 2, 2), kron_all(unitaries) @ start.amps)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "sparse", "product", "ghz", "w", "rotated"]),
    st.sampled_from([1.0, 2.0**-600, 2.0**600]),
)
def test_three_tangle_within_bound_of_exact_value(seed, kind, scale):
    state = drawn_three_qubit_state(np.random.default_rng(seed), kind)
    state = PureState((2, 2, 2), scale * state.amps)
    exact = exact_tangle_squared(state)
    t = Fraction(three_tangle(state))
    # |t - tau| <= TANGLE_BOUND with tau = sqrt(exact) >= 0, compared without a square root
    assert exact <= (t + TANGLE_BOUND) ** 2
    assert t <= TANGLE_BOUND or (t - TANGLE_BOUND) ** 2 <= exact


# ---------------------------------------------------------------------------
# classification


def test_oracle_ghz():
    verdict = oracle_classify(ghz_state())
    assert verdict.label is StateClass.GHZ_CLASS
    assert verdict.three_tangle == pytest.approx(1.0, abs=1e-10)


def test_oracle_w():
    verdict = oracle_classify(w_state())
    assert verdict.label is StateClass.W_CLASS
    assert verdict.three_tangle == pytest.approx(0.0, abs=1e-10)
    assert all(c == pytest.approx(2 / 3, abs=1e-10) for c in verdict.pairwise_concurrence.values())
    assert all(abs(p - 1) > 1e-3 for p in verdict.purities)


def test_oracle_biseparable():
    amps = np.kron(np.array([1, 0]), bell_state().amps)
    state = PureState((2, 2, 2), amps)
    verdict = oracle_classify(state)
    assert verdict.label is StateClass.BISEPARABLE
    assert verdict.split == 1
    assert verdict.pairwise_concurrence[(2, 3)] == pytest.approx(1.0, abs=1e-10)


def test_oracle_product():
    verdict = oracle_classify(random_product((2, 2, 2)))
    assert verdict.label is StateClass.PRODUCT
    assert verdict.split is None
    assert all(p == pytest.approx(1.0, abs=1e-9) for p in verdict.purities)


def test_oracle_generic_shapes():
    assert oracle_classify(random_product((3, 3))).label is StateClass.PRODUCT
    assert oracle_classify(bell_state()).label is StateClass.ENTANGLED
    verdict = oracle_classify(random_state((3, 3, 3)))
    assert verdict.label is StateClass.ENTANGLED
    assert verdict.three_tangle is None and verdict.pairwise_concurrence is None


def test_oracle_unnormalized_input_same_label():
    s = ghz_state()
    scaled = PureState(s.dims, 7.3 * s.amps)
    assert oracle_classify(scaled).label is StateClass.GHZ_CLASS


# ---------------------------------------------------------------------------
# agreement with the condition route


def test_verdicts_agree_canonical():
    assert verdicts_agree(classify(ghz_state()).verdict, oracle_classify(ghz_state()))
    assert verdicts_agree(classify(w_state()).verdict, oracle_classify(w_state()))
    p = random_product((2, 2, 2))
    assert verdicts_agree(classify(p).verdict, oracle_classify(p))


def test_verdicts_disagree_on_contradiction():
    assert not verdicts_agree(Verdict.GHZ_CLASS_CONDITIONS, oracle_classify(random_product((2, 2, 2))))
    assert not verdicts_agree(Verdict.NO_CONDITION_FIRES, oracle_classify(ghz_state()))
    assert not verdicts_agree(Verdict.W_CLASS_CONDITIONS, oracle_classify(ghz_state()))


def test_verdicts_agree_biseparable_with_pair_conditions():
    amps = np.kron(np.array([1, 0]), bell_state().amps)
    state = PureState((2, 2, 2), amps)
    report = classify(state)
    # the (2,3) pair condition certifies exactly the entanglement present
    assert report.verdict is Verdict.W_CLASS_CONDITIONS
    assert verdicts_agree(report.verdict, oracle_classify(state))


# ---------------------------------------------------------------------------
# tolerance validation


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("check", [classify, oracle_classify], ids=["classify", "oracle_classify"])
def test_non_positive_or_non_finite_tol_rejected(check, tol):
    with pytest.raises(ValueError, match="tol must be a positive finite number"):
        check(ghz_state(), tol)


# ---------------------------------------------------------------------------
# the stacked pass against the per-marginal public route


def reference_oracle(state, tol=DEFAULT_TOL):
    """One `partial_trace` per marginal, `wootters_concurrence` per pair, then the labels."""
    purities = tuple(partial_trace(state, (k,)).purity() for k in range(1, state.m + 1))
    pure_marginals = [k for k, p in enumerate(purities, start=1) if abs(p - 1.0) <= tol]
    pairwise = None
    if all(n == 2 for n in state.dims) and state.m >= 2:
        pairwise = {
            pair: wootters_concurrence(partial_trace(state, pair))
            for pair in itertools.combinations(range(1, state.m + 1), 2)
        }
    tangle = three_tangle(state) if state.dims == (2, 2, 2) else None
    candidates = []
    if len(pure_marginals) == state.m:
        candidates.append((StateClass.PRODUCT, None))
    if state.dims == (2, 2, 2):
        if len(pure_marginals) == 1:
            split = pure_marginals[0]
            pair = tuple(k for k in (1, 2, 3) if k != split)
            if pairwise[pair] > tol:
                candidates.append((StateClass.BISEPARABLE, split))
        if tangle > tol:
            candidates.append((StateClass.GHZ_CLASS, None))
        if len(pure_marginals) == 0 and tangle <= tol:
            candidates.append((StateClass.W_CLASS, None))
        if not candidates:
            candidates.append((StateClass.GHZ_CLASS if tangle > tol else StateClass.W_CLASS, None))
    elif not candidates:
        candidates.append((StateClass.ENTANGLED, None))
    order = [StateClass.PRODUCT, StateClass.BISEPARABLE, StateClass.GHZ_CLASS, StateClass.W_CLASS, StateClass.ENTANGLED]
    candidates.sort(key=lambda c: order.index(c[0]))
    label, split = candidates[0]
    ties = tuple(c[0] for c in candidates[1:])
    return purities, pairwise, tangle, label, split if label is StateClass.BISEPARABLE else None, ties


STACK_ATOL = 1e-14  # purities and concurrences are at most 1
oracle_shapes = st.sampled_from([(2,) * m for m in range(1, 6)] + [(3, 3), (3, 3, 3), (2, 3), (2, 3, 2)])


def drawn_oracle_state(dims, seed, log_scale, n_product):
    """A random state whose first `n_product` slots are product factors, scaled by 10**log_scale."""
    g = np.random.default_rng(seed)
    n_product = min(n_product, len(dims))
    factors = [g.normal(size=n) + 1j * g.normal(size=n) for n in dims[:n_product]]
    rest = math.prod(dims[n_product:])
    amps = 10.0**log_scale * (g.normal(size=rest) + 1j * g.normal(size=rest))
    for f in reversed(factors):
        amps = np.kron(f, amps)
    return PureState(dims, amps)


def assert_matches_public_route(state):
    verdict = oracle_classify(state)
    purities, pairwise, tangle, label, split, ties = reference_oracle(state)
    assert len(verdict.purities) == len(purities)
    assert all(abs(a - b) <= STACK_ATOL for a, b in zip(verdict.purities, purities))
    if pairwise is None:
        assert verdict.pairwise_concurrence is None
    else:
        assert list(verdict.pairwise_concurrence) == list(pairwise)
        assert all(abs(verdict.pairwise_concurrence[p] - c) <= STACK_ATOL for p, c in pairwise.items())
    assert verdict.three_tangle == tangle
    assert (verdict.label, verdict.split, verdict.ties) == (label, split, ties)


@settings(max_examples=150, deadline=None)
@given(oracle_shapes, st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0), st.integers(0, 3))
def test_stacked_pass_matches_public_route(dims, seed, log_scale, n_product):
    assert_matches_public_route(drawn_oracle_state(dims, seed, log_scale, n_product))


def test_stacked_pass_matches_public_route_on_class_representatives():
    base = np.zeros(8)
    base[0] = 1.0
    states = [ghz_state(m) for m in range(2, 6)] + [w_state(m) for m in range(2, 6)]
    states += [ghz_state(3, 3), ghz_state(2, 4), PureState((2, 2, 2), np.kron([0, 1], bell_state().amps))]
    states += [PureState((2, 2, 2), base + eps * ghz_state().amps) for eps in (1e-1, 1e-3, 1e-5, 1e-8)]
    states += [PureState((2, 2, 2), base + eps * w_state().amps) for eps in (1e-1, 1e-3, 1e-5, 1e-8)]
    for state in states:
        for scale in (1e-3, 1.0, 1e3):
            assert_matches_public_route(PureState(state.dims, scale * state.amps))


def test_oracle_zero_vector_rejected():
    with pytest.raises(ValueError, match="cannot reduce the zero vector"):
        oracle_classify(PureState((2, 2, 2), np.zeros(8)))


def _raise(*args, **kwargs):
    raise AssertionError("the stacked pass must not call the per-marginal route")


@pytest.mark.parametrize("dims", [(2, 2, 2), (2,) * 5, (3, 3, 3)])
def test_stacked_pass_bypasses_per_marginal_route(monkeypatch, dims):
    state = random_state(dims)
    expected = oracle_classify(state)
    for name in ("partial_trace", "wootters_concurrence", "DensityMatrix"):
        monkeypatch.setattr(oracle, name, _raise)
    assert oracle_classify(state) == expected


@pytest.mark.parametrize(
    "size, corrupt, message",
    [
        (2, lambda rho: 2 * rho, "unit trace"),
        (4, lambda rho: 2 * rho, "unit trace"),
        (2, lambda rho: rho + np.triu(np.ones_like(rho), 1), "Hermitian"),
        (4, lambda rho: rho + np.triu(np.ones_like(rho), 1), "Hermitian"),
        # <e2| rho + diag(2, -2, 0..) |e2> <= 1 - 2, so an eigenvalue is negative
        (2, lambda rho: rho + np.diag([2.0, -2.0]), "semidefinite"),
        (4, lambda rho: rho + np.diag([2.0, -2.0, 0.0, 0.0]), "semidefinite"),
    ],
)
def test_stacked_pass_validates_each_stack(monkeypatch, size, corrupt, message):
    grams = oracle._unfolding_grams

    def corrupted(tensor, slots, n2):
        rho = grams(tensor, slots, n2)
        return corrupt(rho) if rho.shape[-1] == size else rho

    monkeypatch.setattr(oracle, "_unfolding_grams", corrupted)
    with pytest.raises(ValueError, match=message):
        oracle_classify(random_state((2, 2, 2)))


_GOOD = np.diag([0.75, 0.25]).astype(complex)
_PLANTED = {
    "Hermitian": np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex),
    "trace": np.eye(2, dtype=complex),
    "semidefinite": np.diag([1.5, -0.5]).astype(complex),
}


@pytest.mark.parametrize("vectors", [False, True])
@pytest.mark.parametrize("defect", list(_PLANTED))
def test_stack_validator_raises_density_matrix_messages(defect, vectors):
    with pytest.raises(ValueError, match=defect) as single:
        DensityMatrix((2,), _PLANTED[defect])
    stack = np.stack([_GOOD, _PLANTED[defect], _GOOD])
    with pytest.raises(ValueError) as stacked:
        oracle._density_spectrum(stack, vectors=vectors)
    assert str(stacked.value) == str(single.value)


def test_oracle_memory_stays_linear_in_dimension():
    # A stack of all 120 pair unfoldings would need about 126 MB.
    state = random_state((2,) * 16)
    tracemalloc.start()
    try:
        verdict = oracle_classify(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * state.dim * 16
    assert verdict.label is StateClass.ENTANGLED and len(verdict.pairwise_concurrence) == 120
