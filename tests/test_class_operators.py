import numpy as np
import pytest

from entangler_lab.class_operators import (
    ClassKind,
    ClassOperatorSpec,
    PhaseAssignment,
    class_operator,
    pair_specs,
    povm_element,
    tilde_operator,
)
from entangler_lab.state_core import kron_all, unflatten

rng = np.random.default_rng(31)


def test_povm_zero_phases_all_ones():
    op = povm_element(2, np.zeros((2, 2)))
    assert np.array_equal(op.mat, np.ones((2, 2)))


def test_povm_single_qubit_quarter_phase():
    table = np.array([[0.0, np.pi / 2], [-np.pi / 2, 0.0]])
    op = povm_element(2, table)
    assert np.allclose(op.mat, [[1, 1j], [-1j, 1]], atol=1e-15)


def test_povm_qutrit_uniform():
    op = povm_element(3, PhaseAssignment(3, np.pi / 2).table())
    expected = np.eye(3, dtype=complex)
    expected[np.triu_indices(3, 1)] = 1j
    expected[np.tril_indices(3, -1)] = -1j
    assert np.allclose(op.mat, expected, atol=1e-15)


def test_povm_rejects_non_antisymmetric_table():
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="antisymmetric"):
        povm_element(2, bad)
    with pytest.raises(ValueError, match="2x2"):
        povm_element(2, np.zeros((3, 3)))


def test_phase_assignment_table_antisymmetric():
    t = PhaseAssignment(4, 0.37).table()
    assert np.array_equal(t, -t.T)
    assert np.all(np.diag(t) == 0)
    assert np.all(t[np.triu_indices(4, 1)] == 0.37)


def test_tilde_pi_is_minus_sigma_x():
    # entries e^{+-i pi} = -1 exactly; the global sign cancels in every condition value
    op = tilde_operator(2, np.pi)
    assert np.array_equal(op.mat, [[0, -1], [-1, 0]])


def test_tilde_half_pi():
    op = tilde_operator(2, np.pi / 2)
    assert np.array_equal(op.mat, [[0, 1j], [-1j, 0]])


@pytest.mark.parametrize("N", [2, 3, 4, 5])
def test_pair_and_flip_blocks_are_exact(N):
    # classify relies on T(pi) = I - J exactly (J the all-ones matrix)
    upper = np.triu(np.ones((N, N)), 1)
    assert np.array_equal(tilde_operator(N, np.pi).mat, np.eye(N) - np.ones((N, N)))
    assert np.array_equal(tilde_operator(N, np.pi / 2).mat, 1j * (upper - upper.T))


def test_tilde_zero_phase_is_sigma_x():
    op = tilde_operator(2, 0.0)
    assert np.array_equal(op.mat, [[0, 1], [1, 0]])


@pytest.mark.parametrize("N", [2, 3, 4])
def test_tilde_equals_povm_minus_diagonal(N):
    phi = rng.uniform(0, 2 * np.pi)
    povm = povm_element(N, PhaseAssignment(N, phi).table()).mat
    assert np.allclose(tilde_operator(N, phi).mat, povm - np.eye(N), atol=1e-15)


def test_epr_operator_two_qubits():
    op = class_operator(ClassOperatorSpec((2, 2), ClassKind.EPR, (1, 2)))
    assert op.mat[0, 3] == pytest.approx(-1)  # (1,1)->(2,2): i*i
    # nonzero only where both digits differ
    for row in range(4):
        for col in range(4):
            rd, cd = unflatten(row, (2, 2)), unflatten(col, (2, 2))
            if rd[0] != cd[0] and rd[1] != cd[1]:
                assert op.mat[row, col] != 0
            else:
                assert op.mat[row, col] == 0


def test_epr_operator_three_qubits_is_kron_with_identity():
    op = class_operator(ClassOperatorSpec((2, 2, 2), ClassKind.EPR, (1, 2)))
    t = tilde_operator(2, np.pi / 2).mat
    assert np.array_equal(op.mat, kron_all([t, t, np.eye(2)]))


def test_ghz_operator_three_qubits():
    op = class_operator(ClassOperatorSpec((2, 2, 2), ClassKind.GHZ, (1, 2)))
    t2 = tilde_operator(2, np.pi / 2).mat
    tp = tilde_operator(2, np.pi).mat
    assert np.array_equal(op.mat, kron_all([t2, t2, tp]))
    assert op.mat[0, 7] == pytest.approx(1)  # i * i * (-1)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 3, 2)])
def test_class_operators_hermitian(dims):
    for kind in ClassKind:
        for spec in pair_specs(dims, kind):
            mat = class_operator(spec).mat
            assert np.array_equal(mat, mat.conj().T)


def test_epr_zero_pattern():
    dims = (2, 2, 2)
    for spec in pair_specs(dims, ClassKind.EPR):
        mat = class_operator(spec).mat
        inside = [r - 1 for r in spec.pair]
        outside = [i for i in range(3) if i not in inside]
        for row in range(8):
            for col in range(8):
                rd, cd = unflatten(row, dims), unflatten(col, dims)
                spectators_match = all(rd[i] == cd[i] for i in outside)
                pair_differs = all(rd[i] != cd[i] for i in inside)
                if spectators_match and pair_differs:
                    assert mat[row, col] != 0
                else:
                    assert mat[row, col] == 0


def test_ghz_nonzero_exactly_on_full_complements():
    dims = (2, 2, 2)
    for spec in pair_specs(dims, ClassKind.GHZ):
        mat = class_operator(spec).mat
        for row in range(8):
            for col in range(8):
                rd, cd = unflatten(row, dims), unflatten(col, dims)
                if all(r != c for r, c in zip(rd, cd)):
                    assert mat[row, col] != 0
                else:
                    assert mat[row, col] == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_pair_spec_count(m):
    dims = (2,) * m
    for kind in ClassKind:
        specs = pair_specs(dims, kind)
        assert len(specs) == m * (m - 1) // 2
        assert len(set(s.pair for s in specs)) == len(specs)


def test_spec_validation():
    with pytest.raises(ValueError):
        ClassOperatorSpec((2, 2), ClassKind.EPR, (2, 1))
    with pytest.raises(ValueError):
        ClassOperatorSpec((2, 2), ClassKind.EPR, (1, 3))
    with pytest.raises(ValueError):
        ClassOperatorSpec((2, 2), ClassKind.GHZ, (1, 1))
