import itertools
import math

import numpy as np
import pytest

from entangler_lab.state_core import (
    MultiIndex,
    OperatorMatrix,
    PureState,
    basis_state,
    conjugate_state,
    flatten,
    ghz_state,
    kron_all,
    monomial_entries,
    product_state,
    unflatten,
    uniform_input,
    w_state,
)

rng = np.random.default_rng(2024)


def random_state(dims):
    n = math.prod(dims)
    return PureState(dims, rng.normal(size=n) + 1j * rng.normal(size=n))


def test_flatten_corners():
    assert flatten((1, 1, 1), (2, 2, 2)) == 0
    assert flatten((2, 2, 2), (2, 2, 2)) == 7


def test_flatten_mixed_dims_enumeration():
    # row-major order over [2, 3]: (1,1) (1,2) (1,3) (2,1) (2,2) (2,3)
    expected = {digits: flat for flat, digits in enumerate(itertools.product((1, 2), (1, 2, 3)))}
    assert expected[(2, 1)] == 3
    for digits, flat in expected.items():
        assert flatten(digits, (2, 3)) == flat


@pytest.mark.parametrize("dims", [(2,), (3,), (2, 2), (2, 3), (3, 2), (2, 2, 2), (3, 3, 3)])
def test_flatten_unflatten_bijection(dims):
    seen = set()
    for digits in itertools.product(*(range(1, n + 1) for n in dims)):
        flat = flatten(digits, dims)
        assert unflatten(flat, dims) == digits
        seen.add(flat)
    assert seen == set(range(math.prod(dims)))


def test_flatten_names_offending_subsystem():
    with pytest.raises(IndexError, match="subsystem 2"):
        flatten((1, 3, 1), (2, 2, 2))
    with pytest.raises(IndexError, match="subsystem 1"):
        flatten((0, 1), (2, 2))
    with pytest.raises(ValueError):
        flatten((1, 1), (2, 2, 2))


def test_unflatten_range():
    with pytest.raises(IndexError):
        unflatten(8, (2, 2, 2))
    with pytest.raises(IndexError):
        unflatten(-1, (2, 2, 2))


def test_multi_index_roundtrip():
    mi = MultiIndex.from_digits((2, 1, 2), (2, 2, 2))
    assert mi.flat == 5
    assert MultiIndex.from_flat(5, (2, 2, 2)).digits == (2, 1, 2)


def test_conjugate_real_fixed_point():
    s = PureState((2,), [0.25, -1.5])
    assert np.array_equal(conjugate_state(s).amps, s.amps)


def test_conjugate_single_amplitude():
    s = PureState((2,), [1j, 0])
    assert np.array_equal(conjugate_state(s).amps, np.array([-1j, 0]))


def test_conjugate_is_involution_and_preserves_norm():
    s = random_state((2, 3, 2))
    cc = conjugate_state(conjugate_state(s))
    assert np.array_equal(cc.amps, s.amps)
    assert conjugate_state(s).norm2 == pytest.approx(s.norm2, rel=1e-15)


def test_product_state_basis_factors():
    p = product_state([PureState((2,), [1, 0]), PureState((2,), [1, 0])])
    assert np.array_equal(p.amps, [1, 0, 0, 0])
    assert p.dims == (2, 2)


def test_product_state_uniform_three_qubits():
    ones = PureState((2,), [1, 1])
    p = product_state([ones, ones, ones])
    assert np.array_equal(p.amps, np.ones(8))


def test_product_state_outer_product_values():
    p = product_state([PureState((2,), [1, 2j]), PureState((2,), [3, 0])])
    assert np.array_equal(p.amps, [3, 0, 6j, 0])


def test_product_state_errors():
    with pytest.raises(ValueError):
        product_state([])
    with pytest.raises(ValueError):
        product_state([random_state((2, 2))])


def test_product_state_norm_multiplicative():
    factors = [random_state((n,)) for n in (2, 3, 2)]
    p = product_state(factors)
    expected = math.prod(f.norm2 for f in factors)
    assert p.norm2 == pytest.approx(expected, rel=1e-12)


def test_uniform_input():
    assert np.array_equal(uniform_input(1, 2).amps, [1, 1])
    assert np.array_equal(uniform_input(3, 2).amps, np.ones(8))
    assert np.array_equal(uniform_input(2, 3).amps, np.ones(9))
    with pytest.raises(ValueError):
        uniform_input(0, 2)
    with pytest.raises(ValueError):
        uniform_input(2, 1)


def test_normalize():
    s = random_state((2, 2, 2))
    assert abs(s.normalize().norm2 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        PureState((2,), [0, 0]).normalize()


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState((2, 2), [1, 0, 0])
    with pytest.raises(ValueError):
        PureState((1, 2), [1, 0])
    with pytest.raises(ValueError):
        PureState((2,), [np.nan, 0])
    with pytest.raises(ValueError):
        PureState((), [])


def test_amplitudes_are_read_only():
    s = random_state((2, 2))
    with pytest.raises(ValueError):
        s.amps[0] = 0


def test_operator_matrix_validation():
    OperatorMatrix((2, 2), np.eye(4))
    with pytest.raises(ValueError):
        OperatorMatrix((2, 2), np.eye(3))


def test_operator_matrix_copies_a_writable_array():
    arr = np.eye(4, dtype=complex)
    op = OperatorMatrix((2, 2), arr)
    arr[0, 0] = 5
    assert op.mat[0, 0] == 1 and not op.mat.flags.writeable


def test_operator_matrix_adopts_only_an_owned_read_only_complex_array():
    arr = np.eye(4, dtype=complex)
    arr.setflags(write=False)
    assert OperatorMatrix((2, 2), arr).mat is arr
    for other in (arr[:, :], np.eye(4)):  # a view, a float array
        other.setflags(write=False)
        op = OperatorMatrix((2, 2), other)
        assert op.mat is not other and op.mat.dtype == complex


def test_monomial_operator_matrix_hands_out_its_stored_pair():
    cols = np.array([2, 0, 1, 3])
    values = np.array([1, 2j, -1, 0.5])
    op = OperatorMatrix.monomial((2, 2), cols, values)
    entries = monomial_entries(op)
    assert monomial_entries(op) is entries  # the stored pair, never a copy
    assert np.array_equal(entries[0], cols) and np.array_equal(entries[1], values)
    assert not entries[0].flags.writeable and not entries[1].flags.writeable
    cols[0], values[0] = 3, 7  # the caller's writable arrays were copied
    assert entries[0][0] == 2 and entries[1][0] == 1
    assert op.dims == (2, 2) and op.dim == 4
    with pytest.raises(AttributeError):
        op.dims = (4,)


def test_monomial_operator_matrix_adopts_owned_read_only_arrays():
    cols = np.array([1, 0], dtype=np.intp)
    values = np.array([1j, 1], dtype=complex)
    cols.setflags(write=False)
    values.setflags(write=False)
    stored_cols, stored_values = monomial_entries(OperatorMatrix.monomial((2,), cols, values))
    assert stored_cols is cols and stored_values is values


def test_monomial_operator_matrix_builds_its_dense_matrix_once():
    op = OperatorMatrix.monomial((3,), [2, 0, 1], [1j, 2, -3])
    mat = op.mat
    expected = np.zeros((3, 3), dtype=complex)
    expected[[0, 1, 2], [2, 0, 1]] = [1j, 2, -3]
    assert np.array_equal(mat, expected) and mat.dtype == complex
    assert not mat.flags.writeable
    assert op.mat is mat
    cols, values = monomial_entries(mat)  # the O(d^2) scan finds the same pair
    assert np.array_equal(cols, [2, 0, 1]) and np.array_equal(values, [1j, 2, -3])


def test_monomial_operator_matrix_validation():
    with pytest.raises(ValueError, match="4 columns and values"):
        OperatorMatrix.monomial((2, 2), [0, 1, 2], [1, 1, 1])
    for cols in ([0, 1, 1, 3], [0, 1, 2, 4], [-1, 0, 1, 2]):
        with pytest.raises(ValueError, match="permutation"):
            OperatorMatrix.monomial((2, 2), cols, [1, 1, 1, 1])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_monomial_entries_agree_on_both_forms():
    cols = [3, 1, 0, 2]
    for values in ([1, 2j, 3, 4], [1, 0, 3, 4], [1, np.inf, 3, 4], [1, np.nan, 3, 4]):
        op = OperatorMatrix.monomial((4,), cols, values)
        stored, scanned = monomial_entries(op), monomial_entries(op.mat)
        if np.all(np.isfinite(values)) and np.all(np.array(values) != 0):
            assert np.array_equal(stored[0], scanned[0]) and np.array_equal(stored[1], scanned[1])
        else:  # a zero or a non-finite value: not monomial in either form
            assert stored is None and scanned is None
    dense = OperatorMatrix((2, 2), np.eye(4)[cols])
    assert np.array_equal(monomial_entries(dense)[0], cols)


def test_canonical_states():
    g = ghz_state()
    assert g.amps[0] == pytest.approx(1 / math.sqrt(2))
    assert g.amps[7] == pytest.approx(1 / math.sqrt(2))
    assert abs(g.norm2 - 1) < 1e-12

    w = w_state()
    support = np.flatnonzero(w.amps)
    assert list(support) == [1, 2, 4]  # |112>, |121>, |211>
    assert abs(w.norm2 - 1) < 1e-12

    b = basis_state((2, 2, 2), (1, 1, 1))
    assert b.amps[0] == 1 and b.norm2 == 1


def test_kron_all_order():
    a = np.array([[1, 0], [0, 2]])
    b = np.array([[0, 1], [1, 0]])
    assert np.array_equal(kron_all([a, b]), np.kron(a, b))
    with pytest.raises(ValueError):
        kron_all([])
