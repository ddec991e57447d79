import numpy as np
import pytest

from entangler_lab.braid import (
    StrandRep,
    check_braid_relations,
    check_quasitriangular,
    check_ybe,
    factor_swap,
)
from entangler_lab.entangler import EntanglerSpec, build_r

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


def test_strand_validation():
    with pytest.raises(ValueError):
        StrandRep(1, SWAP2)
    with pytest.raises(ValueError):
        StrandRep(13, SWAP2)  # 2^13 > 4096
    StrandRep(12, SWAP2)  # 2^12 = 4096 is the cap


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
    assert result.induced_ybe.residual == pytest.approx(result.residual, rel=1e-10)


def test_quasitriangular_solution_induces_ybe_solution():
    for mat in [np.eye(4), SWAP2]:
        result = check_quasitriangular(mat)
        if result.passed:
            assert result.induced_ybe.passed
