import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entangler_lab.braid as braid_module
from entangler_lab.braid import (
    MAX_TOTAL_DIM,
    StrandRep,
    check_braid_relations,
    check_quasitriangular,
    check_ybe,
    factor_swap,
    require_ybe_window,
)
from entangler_lab.entangler import EntanglerSpec, build_r
from entangler_lab.state_core import DEFAULT_TOL, OperatorMatrix, monomial_entries

rng = np.random.default_rng(555)

SWAP2 = factor_swap(2)


def random_unitary(n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_ybe_identity():
    result = check_ybe(np.eye(4))
    assert result.residual == 0.0 and result.passed and result.d == 2


def test_ybe_swap():
    result = check_ybe(SWAP2)
    assert result.residual < 1e-12


def test_ybe_theta_family_measured():
    # corner phase e^{i 0.7}: the two-qubit gate family turns out to solve the
    # equation for every parameter choice; assert what the measurement shows
    spec = EntanglerSpec(2, 2, [1, 1, 1, np.exp(0.7j)])
    result = check_ybe(build_r(spec))
    assert result.residual < 1e-12


def test_ybe_dimension_validation():
    with pytest.raises(ValueError):
        check_ybe(np.eye(3))  # 3 is not d^2
    with pytest.raises(ValueError):
        check_ybe(np.ones((4, 2)))
    with pytest.raises(ValueError):
        check_ybe(np.eye(1))


def test_braid_relation_swap_three_strands():
    report = check_braid_relations(StrandRep(3, SWAP2))
    assert report.max_adjacent_residual < 1e-12
    assert report.commuting == ()  # nontrivial commutation needs n >= 4
    assert report.passed


def test_disjoint_slots_commute_for_any_operator():
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    report = check_braid_relations(StrandRep(4, mat))
    assert [(i, j) for i, j, _ in report.commuting] == [(1, 3)]
    assert report.max_commuting_residual < 1e-12


def test_failing_ybe_reappears_as_adjacent_residual():
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    ybe = check_ybe(mat)
    assert ybe.residual > 1e-6  # generic operator violates the equation
    report = check_braid_relations(StrandRep(3, mat))
    # on three strands the adjacent relation IS the equation, embedded at slot 1
    assert report.adjacent[0][1] == pytest.approx(ybe.residual, rel=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_ybe_solution_induces_braid_representation(n):
    for mat in [np.eye(4), SWAP2, build_r(EntanglerSpec(2, 2, np.exp(1j * rng.uniform(0, 2 * np.pi, 4)))).mat]:
        assert check_ybe(mat).residual < 1e-12
        report = check_braid_relations(StrandRep(n, mat))
        assert report.max_adjacent_residual < 1e-11
        assert report.max_commuting_residual < 1e-12


def test_generators_unitary_when_r_unitary():
    rep = StrandRep(4, random_unitary(4))
    for g in rep.generators():
        assert np.max(np.abs(g @ g.conj().T - np.eye(16))) < 1e-12


def test_generators_invertible_when_r_invertible():
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))  # generic => invertible
    rep = StrandRep(3, mat)
    for g in rep.generators():
        assert abs(np.linalg.det(g)) > 1e-12


def test_generator_embedding():
    mat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rep = StrandRep(3, mat)
    assert np.array_equal(rep.generator(1), np.kron(mat, np.eye(2)))
    assert np.array_equal(rep.generator(2), np.kron(np.eye(2), mat))
    with pytest.raises(ValueError):
        rep.generator(3)


# ---------------------------------------------------------------------------
# the 3/4-strand windows against the dense n-strand generators


def random_operator(d):
    return rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))


def gate_operator(d):
    return build_r(EntanglerSpec(2, d, np.exp(1j * rng.uniform(0, 2 * np.pi, d * d)))).mat


@pytest.mark.parametrize("d,n", [(2, 6), (3, 5), (4, 4)])
@pytest.mark.parametrize("make", [random_operator, gate_operator])
def test_windowed_residuals_match_dense_generators(d, n, make):
    mat = make(d)
    rep = StrandRep(n, mat)
    report = check_braid_relations(rep)
    assert [i for i, _ in report.adjacent] == list(range(1, n - 1))
    for i, residual in report.adjacent:
        ti, tj = rep.generator(i), rep.generator(i + 1)
        dense = np.max(np.abs(ti @ tj @ ti - tj @ ti @ tj))
        assert residual == pytest.approx(dense, rel=1e-12)
    bound = 1e-14 * np.max(np.abs(mat)) ** 2
    pairs = [(i, j) for i in range(1, n) for j in range(i + 2, n)]
    assert [(i, j) for i, j, _ in report.commuting] == pairs
    for i, j, residual in report.commuting:
        ti, tj = rep.generator(i), rep.generator(j)
        assert residual <= bound
        assert np.max(np.abs(ti @ tj - tj @ ti)) <= bound


def test_braid_relations_build_no_generator_at_the_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n-strand generator built")

    monkeypatch.setattr(StrandRep, "generator", refuse)
    mat = random_operator(2)
    report = check_braid_relations(StrandRep(12, mat))  # 2^12 = 4096 is the cap
    assert len(report.adjacent) == 10 and len(report.commuting) == 45
    assert report.max_adjacent_residual == check_ybe(mat).residual


def test_braid_relations_reuse_a_given_ybe_result(monkeypatch):
    mat = random_operator(2)
    ybe = check_ybe(mat)

    def refuse(*args, **kwargs):
        raise AssertionError("Yang-Baxter residual computed again")

    monkeypatch.setattr(braid_module, "check_ybe", refuse)
    report = check_braid_relations(StrandRep(5, mat), ybe=ybe)
    assert report.max_adjacent_residual == ybe.residual
    assert all(residual == ybe.residual for _, residual in report.adjacent)


def test_braid_relations_scan_a_monomial_array_once(monkeypatch):
    alpha = np.exp(1j * np.random.default_rng(22).uniform(0, 2 * np.pi, 16))
    mat = build_r(EntanglerSpec(2, 4, alpha)).mat  # a 16 x 16 family gate, as an array
    scans = []

    def counting(op):
        if isinstance(op, np.ndarray):
            scans.append(op.shape)
        return monomial_entries(op)

    monkeypatch.setattr(braid_module, "monomial_entries", counting)
    report = check_braid_relations(StrandRep(5, mat))
    assert scans == [(16, 16)]
    assert report.max_adjacent_residual == check_ybe(mat).residual


def test_ybe_window_cap():
    require_ybe_window(16)  # 16^3 = 4096 is the cap
    with pytest.raises(ValueError, match="4096"):
        require_ybe_window(17)


@pytest.mark.parametrize("d", [17, 32])
@pytest.mark.parametrize("check", [check_ybe, check_quasitriangular])
def test_oversized_ybe_window_rejected_before_kron(monkeypatch, d, check):
    def refuse(*args, **kwargs):
        raise AssertionError("Yang-Baxter window allocated")

    monkeypatch.setattr(braid_module.np, "kron", refuse)
    with pytest.raises(ValueError, match=f"{d}\\^3 exceeds the dense-verification cap 4096"):
        check(np.eye(d * d))


def test_strand_validation():
    with pytest.raises(ValueError):
        StrandRep(1, SWAP2)
    with pytest.raises(ValueError):
        StrandRep(13, SWAP2)  # 2^13 > 4096
    StrandRep(12, SWAP2)  # 2^12 = 4096 is the cap
    # refused without forming 2^(10^15), a number of 10^15 bits
    with pytest.raises(ValueError, match=r"2\^1000000000000000 exceeds the dense-verification cap 4096"):
        StrandRep(10**15, SWAP2)


def test_strand_cap_refuses_an_array_before_scanning_it(monkeypatch):
    def refuse(op):
        raise AssertionError("matrix scanned")

    monkeypatch.setattr(braid_module, "monomial_entries", refuse)
    with pytest.raises(ValueError, match=r"total dimension 3\^8 exceeds the dense-verification cap 4096"):
        StrandRep(8, build_r(EntanglerSpec(2, 3, np.ones(9))).mat)
    with pytest.raises(ValueError, match=r"total dimension 2\^13 exceeds"):
        StrandRep(13, np.ones((4, 4)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_factor_swap_exchanges_tensor_factors(d):
    expected = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            expected[i * d + j, j * d + i] = 1.0
    assert np.array_equal(factor_swap(d), expected)


def test_quasitriangular_identity_and_swap():
    for mat in [np.eye(4), SWAP2]:
        result = check_quasitriangular(mat)
        assert result.residual == 0.0 and result.passed
        assert result.induced_ybe.residual < 1e-12


def test_quasitriangular_random_unitary_reported():
    mat = random_unitary(4)
    result = check_quasitriangular(mat)
    assert result.residual > 1e-6  # generically violated
    # the induced operator's YBE defect is the same numbers rearranged
    assert result.induced_ybe.residual == result.residual
    assert result.residual == pytest.approx(dense_quasitriangular(mat), rel=1e-12)


def test_quasitriangular_solution_induces_ybe_solution():
    for mat in [np.eye(4), SWAP2]:
        result = check_quasitriangular(mat)
        if result.passed:
            assert result.induced_ybe.passed


# ---------------------------------------------------------------------------
# the monomial path against the dense products


def dense_ybe(mat):
    d = math.isqrt(mat.shape[0])
    eye = np.eye(d, dtype=complex)
    a, b = np.kron(mat, eye), np.kron(eye, mat)
    return float(np.max(np.abs(a @ b @ a - b @ a @ b)))


def dense_quasitriangular(mat):
    """max |R12 R13 R23 - R23 R13 R12|, R13 being R12 conjugated by the swap of factors 2 and 3."""
    d = math.isqrt(mat.shape[0])
    eye = np.eye(d, dtype=complex)
    r12, r23 = np.kron(mat, eye), np.kron(eye, mat)
    swap23 = np.kron(eye, factor_swap(d))
    r13 = swap23 @ r12 @ swap23
    return float(np.max(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12)))


def dense_commuting(mat):
    eye = np.eye(mat.shape[0], dtype=complex)
    a, b = np.kron(mat, eye), np.kron(eye, mat)
    return float(np.max(np.abs(a @ b - b @ a)))


def monomial(perm, values):
    mat = np.zeros((len(perm), len(perm)), dtype=complex)
    mat[np.arange(len(perm)), perm] = values
    return mat


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.booleans())
def test_monomial_residuals_equal_dense_products(d, seed, unimodular):
    g = np.random.default_rng(seed)
    values = np.exp(1j * g.uniform(0, 2 * np.pi, d * d))
    if not unimodular:
        values *= 10.0 ** g.uniform(-3, 3, d * d)  # moduli 1e-3 .. 1e3
    mat = monomial(g.permutation(d * d), values)
    # each side is a product of three entries, rounded differently by the two paths
    bound = 4 * np.finfo(float).eps * np.max(np.abs(values)) ** 3
    assert abs(check_ybe(mat).residual - dense_ybe(mat)) <= bound
    quasi = check_quasitriangular(mat)
    assert abs(quasi.residual - dense_quasitriangular(mat)) <= bound
    assert quasi.residual == quasi.induced_ybe.residual
    if d <= 4:
        assert check_braid_relations(StrandRep(4, mat)).max_commuting_residual == 0.0


def non_monomial(case):
    g = np.random.default_rng(32)
    n = 9  # d = 3
    perm = g.permutation(n)
    mat = monomial(perm, np.exp(1j * g.uniform(0, 2 * np.pi, n)))
    if case == "extra nonzero":
        mat[2, perm[3]] = 0.25
    elif case == "zero row":
        mat[2] = 0
    elif case == "non-finite entry":
        mat[2, perm[2]] = np.inf
    elif case == "haar unitary":
        mat = random_unitary(n)
    elif case == "random dense":
        mat = random_operator(3)
    return mat


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf * 0
@pytest.mark.parametrize("case", ["extra nonzero", "zero row", "non-finite entry", "haar unitary", "random dense"])
def test_non_monomial_residuals_are_the_dense_products(case):
    mat = non_monomial(case)
    np.testing.assert_array_equal(check_ybe(mat).residual, dense_ybe(mat))  # NaN == NaN here
    np.testing.assert_array_equal(check_quasitriangular(mat).residual, dense_ybe(factor_swap(3) @ mat))
    report = check_braid_relations(StrandRep(4, mat))
    np.testing.assert_array_equal(report.max_commuting_residual, dense_commuting(mat))


def test_gate_checks_build_no_dense_window(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense window built")

    monkeypatch.setattr(braid_module.np, "kron", refuse)
    for d in (2, 3, 4, 8, 16):
        mat = gate_operator(d)
        n = max(n for n in range(2, 13) if d**n <= MAX_TOTAL_DIM)
        ybe = check_ybe(mat)
        report = check_braid_relations(StrandRep(n, mat))
        quasi = check_quasitriangular(mat)
        if d == 2:
            assert ybe.residual <= 1e-12 and report.passed
        else:
            assert ybe.residual >= 1 - 1e-12 and not report.passed
        assert report.max_commuting_residual == 0.0
        assert quasi.residual == quasi.induced_ybe.residual


# ---------------------------------------------------------------------------
# the row-form monomial path against the column-form reference
#
# The reference keeps each monomial matrix as a destination row and a value
# per column, and multiplies by applying one factor after the other.  The
# library reads the (cols, values) rows it stores; the two must agree bit
# for bit, which fixes how the library's products associate.


def _monomial_columns(R):
    """(dest, w) with R[dest[j], j] = w[j] for every column j, or None if not monomial."""
    entries = monomial_entries(R)
    if entries is None:
        return None
    cols, values = entries
    dest = np.empty_like(cols)
    dest[cols] = np.arange(len(cols))
    return dest, values[dest]


def _padded(columns, left, right):
    """I_left (x) M (x) I_right in the (dest, w) form of the monomial M."""
    dest, w = columns
    n = len(dest)
    out = (np.arange(left)[:, None, None] * n + dest[:, None]) * right + np.arange(right)
    return out.ravel(), np.broadcast_to(w[:, None], (left, n, right)).ravel()


def _then(first, second):
    """second @ first in the (dest, w) form: apply `first`, then `second`."""
    return second[0][first[0]], second[1][first[0]] * first[1]


def _monomial_residual(lhs, rhs):
    """max |lhs - rhs| over the entries of two monomial matrices in (dest, w) form."""
    (ld, lw), (rd, rw) = lhs, rhs
    per_column = np.where(ld == rd, np.abs(lw - rw), np.maximum(np.abs(lw), np.abs(rw)))
    return float(np.max(per_column))


def reference_ybe(R, d):
    columns = _monomial_columns(R)
    a = _padded(columns, 1, d)
    b = _padded(columns, d, 1)
    return _monomial_residual(_then(_then(a, b), a), _then(_then(b, a), b))


def reference_swapped(R, d):
    """P R as a monomial OperatorMatrix, the factor swap P gathering the rows of R."""
    cols, values = monomial_entries(R)
    order = np.arange(d * d).reshape(d, d).T.ravel()
    return OperatorMatrix.monomial((d, d), cols[order], values[order])


def reference_quasitriangular(R, d):
    return reference_ybe(reference_swapped(R, d), d)


def reference_commuting(R, d):
    columns = _monomial_columns(R)
    a = _padded(columns, 1, d**2)
    b = _padded(columns, d**2, 1)
    ab = a[0][b[0]], a[1][b[0]] * b[1]
    ba = b[0][a[0]], a[1] * b[1][a[0]]
    return _monomial_residual(ab, ba)


def drawn_monomial(d, seed, kind, unimodular):
    """A monomial d^2 x d^2 operator: a family gate or a random permutation, as an OperatorMatrix or array."""
    g = np.random.default_rng(seed)
    values = np.exp(1j * g.uniform(0, 2 * np.pi, d * d))
    if not unimodular:
        values *= 10.0 ** g.uniform(-3, 3, d * d)  # moduli 1e-3 .. 1e3
    if kind == "gate":
        return build_r(EntanglerSpec(2, d, values))
    perm = g.permutation(d * d)
    if kind == "permutation":
        return OperatorMatrix.monomial((d, d), perm, values)
    return monomial(perm, values)  # a dense array, scanned for its pair


@settings(max_examples=150, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["gate", "permutation", "array"]),
    st.booleans(),
    st.booleans(),
)
def test_row_form_residuals_equal_column_form_reference(d, seed, kind, unimodular, at_residual):
    R = drawn_monomial(d, seed, kind, unimodular)
    ybe_ref = reference_ybe(R, d)
    quasi_ref = reference_quasitriangular(R, d)
    # tol set to a residual itself is where <= and < part
    ybe_tol = ybe_ref if at_residual and ybe_ref > 0 else DEFAULT_TOL
    quasi_tol = quasi_ref if at_residual and quasi_ref > 0 else DEFAULT_TOL
    ybe = check_ybe(R, ybe_tol)
    assert ybe.residual == ybe_ref and ybe.passed == (ybe_ref <= ybe_tol) and ybe.d == d
    quasi = check_quasitriangular(R, quasi_tol)
    assert quasi.residual == quasi_ref and quasi.passed == (quasi_ref <= quasi_tol)
    assert quasi.induced_ybe == check_ybe(reference_swapped(R, d), quasi_tol)
    commuting_ref = reference_commuting(R, d)
    assert commuting_ref == 0.0
    for n in range(3, 6):
        if d**n > MAX_TOTAL_DIM:
            break
        report = check_braid_relations(StrandRep(n, R), ybe_tol)
        assert report.max_adjacent_residual == ybe_ref
        assert report.max_commuting_residual == (commuting_ref if n >= 4 else 0.0)
        assert report.passed == (ybe_ref <= ybe_tol and (n < 4 or commuting_ref <= ybe_tol))


def test_quasitriangular_of_a_monomial_builds_no_operator_and_no_ybe_check(monkeypatch):
    cases = []
    for d in (2, 3, 4, 8, 16):
        for seed, kind in enumerate(["gate", "permutation", "array"]):
            R = drawn_monomial(d, seed, kind, unimodular=seed != 1)
            cases.append((R, reference_quasitriangular(R, d)))

    def refuse(*args, **kwargs):
        raise AssertionError("built again or checked again")

    monkeypatch.setattr(OperatorMatrix, "monomial", refuse)
    monkeypatch.setattr(OperatorMatrix, "__init__", refuse)
    monkeypatch.setattr(braid_module, "check_ybe", refuse)
    for R, residual in cases:
        quasi = check_quasitriangular(R)
        assert quasi.residual == residual == quasi.induced_ybe.residual
