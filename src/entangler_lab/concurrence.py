"""Pair-condition functionals and their aggregation into a class verdict.

The canonical value of a condition is the bilinear form sum_jk a_j a_k M[j,k]
in the UNCONJUGATED amplitudes.  For three subsystems the same quantities are
also available as the paper's explicit combinatorial expansions over index
pairs; the two routes agree up to fixed proportionality constants (+2 for the
EPR/W family, -2 for the GHZ family) because the operator sums both orders of
each index pair and the phase convention of the pi-blocks contributes a sign.
Keeping both routes makes each an independent check on the other.  The
expansions keep the paper's term list but evaluate it as signed products over
the k < l pair tables of each slot: one numpy gather per call fetches both
factors of every term, with no per-term Python and no memo beyond the
per-dimension pair tables.

`classify` never forms an operator.  Every class operator is a Kronecker
product of N x N blocks, so it applies each block along one axis of the
amplitude tensor (an n-mode product) and gets all 2*C(m,2) values of an
m-party state of dimension d from 4m mode products and two m x m Gram-type
products: O(m*d*N + m^2*d) time and O(m*d) memory, with no operator cache.
For an all-qubit state every block is a signed permutation or a diagonal
with entries +-i and -1, so the same vectors come from one gather, one
reversal and +-i scalings, a fixed number of numpy calls whatever m is
(`_qubit_conditions`); every other shape keeps the mode products
(`_mode_product_conditions`), the tests' reference for the qubit path.  The
two agree as numbers; the sign of a value that is exactly zero may differ
and is not part of the contract.  `bilinear_condition` with the dense
`class_operator` is the reference route the tests compare both against.

Every condition value is homogeneous of degree 2 in the amplitudes, so
verdicts use the scale-free ratio |value| / norm^2 against a tolerance; a
state outside the float range's working window is evaluated at its exact
power-of-two rescaling (`PureState.scaled_amplitudes`).

The report is lazy.  `classify` reads the kernel's upper triangles into
plain Python numbers and decides the verdict from them; the
`ConditionReport` keeps those numbers and the rescaling's shift, and builds
its 2*C(m,2) `ConditionValue` objects only when `values` is first read.
A verdict or `fired` check (`proposition_check` included) builds none.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .class_operators import CONCURRENCE_PHASE, FLIP_PHASE, ClassKind, tilde_operator
from .state_core import DEFAULT_TOL, OperatorMatrix, PureState, require_tol

EPR_OPERATOR_FACTOR = 2.0
GHZ_OPERATOR_FACTOR = -2.0


class Verdict(enum.Enum):
    NO_CONDITION_FIRES = "NO_CONDITION_FIRES"
    W_CLASS_CONDITIONS = "W_CLASS_CONDITIONS"
    GHZ_CLASS_CONDITIONS = "GHZ_CLASS_CONDITIONS"
    BOTH = "BOTH"


_KINDS = (ClassKind.EPR, ClassKind.GHZ)  # the order of `ConditionReport.values`


@dataclass(frozen=True)
class ConditionValue:
    kind: ClassKind
    pair: tuple[int, int]
    value: complex
    magnitude: float
    normalized_magnitude: float

    def fires(self, tol: float) -> bool:
        return self.normalized_magnitude > tol


@dataclass(frozen=True, eq=False, repr=False)
class ConditionReport:
    """All 2*C(m,2) condition values for one state, plus the threshold verdict.

    `classify` decides the verdict from the values as plain numbers and
    stores them per kind, with the power-of-two shift of the state's
    rescaling; `fired` reads the stored normalized magnitudes.  The tuple of
    `ConditionValue` objects is built on the first read of `values`, once,
    and that same tuple is returned on every later read.  `==`, `hash` and
    `repr` go over `state`, `values`, `tol` and `verdict`, and
    `dataclasses.replace` keeps the stored numbers.  `tol` is the tolerance
    the verdict was decided at, so a report answers at one tolerance only: a
    report made with any other `tol`, by `dataclasses.replace` say, raises
    ValueError.
    """

    state: str
    tol: float
    verdict: Verdict
    _pairs: list[tuple[int, int]]  # 0-based r < s, in the order of the values
    _values: dict[ClassKind, list[complex]]  # of the rescaled state
    _normalized: dict[ClassKind, list[float]]
    _shift: int  # the state's own values and magnitudes are these times 2**_shift
    _verdict_tol: float  # the tol `classify` decided the verdict at

    def __post_init__(self):
        if self.tol != self._verdict_tol:
            raise ValueError(
                f"this report's verdict was decided at tol={self._verdict_tol!r}, not tol={self.tol!r}; "
                "classify(state, tol) decides one at another tol"
            )

    @cached_property
    def values(self) -> tuple[ConditionValue, ...]:
        built = []
        for kind in _KINDS:
            kind_values = self._values[kind]
            magnitudes = [abs(value) for value in kind_values]
            if self._shift:
                kind_values, magnitudes = _unscaled(kind_values, magnitudes, self._shift)
            rows = zip(self._pairs, kind_values, magnitudes, self._normalized[kind])
            for (r, s), value, magnitude, normalized in rows:
                built.append(ConditionValue(kind, (r + 1, s + 1), value, magnitude, normalized))
        return tuple(built)

    def fired(self, kind: ClassKind) -> bool:
        return any(x > self.tol for x in self._normalized.get(kind, ()))

    def _key(self) -> tuple:
        return self.state, self.values, self.tol, self.verdict

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(state={self.state!r}, values={self.values!r}, "
            f"tol={self.tol!r}, verdict={self.verdict!r})"
        )


def bilinear_condition(state: PureState, op: OperatorMatrix) -> complex:
    """Unconjugated bilinear form sum_jk a_j a_k op[j,k].

    This vanishes identically on fully product states for every EPR/GHZ class
    operator: the pi/2 blocks are antisymmetric, so their single-subsystem
    bilinear factor is zero.
    """
    if op.dim != state.dim:
        raise ValueError(f"operator dimension {op.dim} does not match state dimension {state.dim}")
    a = state.amps
    return complex(a @ (op.mat @ a))


_PAIRS = ((1, 2), (1, 3), (2, 3))


def _three_party_pair(state: PureState, pair, where: str) -> tuple[int, int]:
    """Check that `state` has three subsystems and return `pair` as one of `_PAIRS`."""
    if state.m != 3:
        raise ValueError(f"{where} is defined for three subsystems, got m={state.m}")
    try:
        normalized = tuple(map(int, pair))
    except (TypeError, ValueError):
        normalized = None
    if normalized not in _PAIRS:
        raise ValueError(f"pair must be one of (1,2), (1,3), (2,3), got {pair!r}")
    return normalized


@lru_cache(maxsize=16)
def _pair_choices(n: int) -> np.ndarray:
    """Read-only (factor, choice, pair) table over the 0-based k < l pairs of an n-level slot.

    In a product of the expansions the lead factor (0) takes l or k in a
    paired slot and its partner (1) takes the other index: choice 0 is
    (l, k), crossing the pair, and choice 1 is (k, l), keeping it.  Choice 1
    also gives the leading slot's (k1, l1).
    """
    kl = np.stack(np.triu_indices(n, 1))
    choices = np.stack([kl[::-1], kl])
    choices.setflags(write=False)
    return choices


def epr_expansion_3q(state: PureState, pair: tuple[int, int]) -> complex:
    """Explicit EPR/W-condition sum for a three-party state.

    The paper's term list: over l > k in both paired subsystems and a
    matched index t in the spectator slot, a[k1,l2,t] a[l1,k2,t] -
    a[k1,k2,t] a[l1,l2,t].  It is evaluated as signed products over the
    k < l pair tables, one gather for both factors of every term, with no
    per-term Python.  Relates to the operator route by
    bilinear_condition(s, EPR op) == +2 * epr_expansion_3q(s, pair).
    """
    r1, r2 = _three_party_pair(state, pair, "epr_expansion_3q")
    spectator = 6 - r1 - r2
    a = state.amps.reshape(state.dims).transpose(r1 - 1, r2 - 1, spectator - 1)
    c1, c2 = _pair_choices(a.shape[0]), _pair_choices(a.shape[1])
    # axes (factor, pair 1, choice, pair 2, t)
    lead, partner = a[c1[:, 1, :, None, None], c2[:, None]]
    crossed, kept = (lead * partner).sum(axis=(0, 2, 3))
    return crossed - kept


# Signs of the four products (kll,lkk), (klk,lkl), (kkl,llk), (kkk,lll) per pair,
# that is of the choices (0,0), (0,1), (1,0), (1,1) in slots 2 and 3.
_GHZ_TERM_SIGNS = {
    (1, 2): (+1, +1, -1, -1),
    (1, 3): (+1, -1, +1, -1),
    (2, 3): (-1, +1, +1, -1),
}


def ghz_expansion_3q(state: PureState, pair: tuple[int, int]) -> complex:
    """Explicit GHZ-condition sum for a three-party state.

    The paper's term list: over l > k in all three slots, the four products
    that pair an index tuple holding k1 with its full complement, signed per
    pair by `_GHZ_TERM_SIGNS`.  It is evaluated as signed products over the
    k < l pair tables: one gather gives both factors of all four products of
    every pair triple, their sums form a 2 x 2 table, and the table is
    contracted with the signs, with no per-term Python.  Every product
    pairs an index tuple with its complement, so the sum is invariant under
    complement reindexing of the amplitudes.  Relates to the operator route
    by bilinear_condition(s, GHZ op) == -2 * ghz_expansion_3q(s, pair).
    """
    pair = _three_party_pair(state, pair, "ghz_expansion_3q")
    c1, c2, c3 = map(_pair_choices, state.dims)
    a = state.amps.reshape(state.dims)
    # axes (factor, pair 1, choice 2, pair 2, choice 3, pair 3)
    lead, partner = a[
        c1[:, 1, :, None, None, None, None], c2[:, None, :, :, None, None], c3[:, None, None, None]
    ]
    table = (lead * partner).sum(axis=(0, 2, 4))
    return np.dot(table.ravel(), _GHZ_TERM_SIGNS[pair])


@lru_cache(maxsize=16)
def _blocks(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The N x N factors of the kernel: T(pi/2), T(pi) and X = T(pi)^-1 T(pi/2).

    T(pi) = I - J with J the all-ones matrix, so its inverse is I - J/(N-1),
    and J T(pi/2) repeats the column sums of T(pi/2) in every row.
    """
    pair = tilde_operator(N, CONCURRENCE_PHASE).mat
    flip = tilde_operator(N, FLIP_PHASE).mat
    x = pair - pair.sum(axis=0) / (N - 1)
    x.setflags(write=False)
    return pair, flip, x


def _mode_product_conditions(dims: tuple[int, ...], a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m x m matrices whose (r, s) entries, r < s, are the EPR and GHZ values of pair (r+1, s+1).

    The kernel for any dims, from 4m mode products.  EPR: with
    b_r = T(pi/2) applied along axis r, the value is
    a^T T_r T_s a = (T_r^T a)^T (T_s a) = -b_r . b_s, since T(pi/2) is
    antisymmetric.  GHZ: T(pi) X = T(pi/2), so the operator is P X_r X_s
    with P = (x) T(pi) over all axes, and with c = P a (P is symmetric) the
    value is (X_r^T c) . (X_s a).  Both dot products are unconjugated.
    """
    b, y, z = [], [], []
    # Axis r of the amplitude tensor as the middle axis of a 3-d view, so
    # that a matmul with an N x N block is the mode product along axis r.
    axes = [((math.prod(dims[:r]), n, -1), _blocks(n)) for r, n in enumerate(dims)]
    c = a
    for shape, (pair, flip, x) in axes:
        tensor = a.reshape(shape)
        b.append(np.matmul(pair, tensor).reshape(-1))
        z.append(np.matmul(x, tensor).reshape(-1))
        c = np.matmul(flip, c.reshape(shape))
    for shape, (_, _, x) in axes:
        y.append(np.matmul(x.T, c.reshape(shape)).reshape(-1))
    b, y, z = np.array(b), np.array(y), np.array(z)
    return -(b @ b.T), y @ z.T


def _qubit_conditions(m: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matrices of `_mode_product_conditions` for dims (2,)*m, from a fixed number of numpy calls.

    For N = 2 every block is a signed permutation or a diagonal:
    T(pi/2) = [[0, i], [-i, 0]] swaps digit r and multiplies by
    phi = +-i (+i where digit r is 0), X = diag(i, -i) multiplies by the
    same phi, and (x) T(pi) = (x) (-sigma_x) reverses every digit with
    sign (-1)^m.  So b_r = phi_r * a[idx ^ bit_r], z_r = phi_r * a,
    c = (-1)^m a[::-1] and y_r = phi_r * c.  A product with +-i or -1 is
    exact, so b, y and z equal the mode products' up to the sign of an
    exact zero, and so do the two Gram products of the same arrays.
    """
    idx = np.arange(a.size)
    bits = (1 << np.arange(m - 1, -1, -1))[:, None]  # digit r's bit, subsystem 1 most significant
    phi = np.where(idx & bits, -1j, 1j)
    b = a[idx ^ bits]
    b *= phi
    epr = -(b @ b.T)
    del b  # freed before y and z exist, so at most three (m, d) arrays are live
    c = -a[::-1] if m % 2 else a[::-1]
    return epr, (phi * c) @ (phi * a).T


def _condition_matrices(dims: tuple[int, ...], a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """m x m matrices whose (r, s) entries, r < s, are the EPR and GHZ values of pair (r+1, s+1).

    All-qubit dims take `_qubit_conditions`, from a fixed number of numpy
    calls; every other shape takes `_mode_product_conditions`.  On qubits
    the two agree as numbers: only the sign of a value that is exactly zero
    may differ, and that sign is not part of the contract.
    """
    if all(n == 2 for n in dims):
        return _qubit_conditions(len(dims), a)
    return _mode_product_conditions(dims, a)


def _unscaled(values: list[complex], magnitudes: list[float], k: int) -> tuple[list[complex], list[float]]:
    """`values` and `magnitudes` times 2**k: inf past the float range, 0 below it."""
    with np.errstate(over="ignore"):
        re, im, magnitudes = np.ldexp([[v.real for v in values], [v.imag for v in values], magnitudes], k).tolist()
    return list(map(complex, re, im)), magnitudes


def classify(state: PureState, tol: float = DEFAULT_TOL, label: str | None = None) -> ConditionReport:
    """Evaluate all EPR and GHZ conditions and summarize which families fire.

    A condition fires when |value| / norm^2 > tol.  A fired condition
    certifies that the state is not fully product; the converse does not
    hold, so the verdict reports which families fire rather than forcing a
    single class.  All-qubit states take the qubit kernel, every other shape
    the mode products (see `_condition_matrices`); the sign of a value that
    is exactly zero is not part of the contract.  A state whose squared norm
    is outside the working window of `PureState.scaled_amplitudes` (0,
    subnormal or overflowing included) is evaluated at its power-of-two
    rescaling: its verdict and normalized magnitudes are those of the state
    in range, and `value` and `magnitude` are its own, rounded to float64
    (inf past the float range, 0 below it).  The verdict is decided from
    the values as plain numbers; the report's `values` tuple is built on its
    first read (see `ConditionReport`).  Raises ValueError for the zero
    vector and for a `tol` that is not a positive finite number.
    """
    require_tol(tol)
    amps, norm2, shift = state.scaled_amplitudes()
    if norm2 == 0.0:
        raise ValueError("cannot classify the zero vector")
    pairs = list(itertools.combinations(range(state.m), 2))
    # every kernel entry as a plain number; a single subsystem has no pairs
    rows = [matrix.tolist() for matrix in _condition_matrices(state.dims, amps)] if pairs else [[], []]
    values, normalized = {}, {}
    for kind, kind_rows in zip(_KINDS, rows):
        values[kind] = [kind_rows[r][s] for r, s in pairs]
        normalized[kind] = [abs(value) / norm2 for value in values[kind]]
    epr_fired = any(x > tol for x in normalized[ClassKind.EPR])
    ghz_fired = any(x > tol for x in normalized[ClassKind.GHZ])
    if epr_fired and ghz_fired:
        verdict = Verdict.BOTH
    elif epr_fired:
        verdict = Verdict.W_CLASS_CONDITIONS
    elif ghz_fired:
        verdict = Verdict.GHZ_CLASS_CONDITIONS
    else:
        verdict = Verdict.NO_CONDITION_FIRES
    description = label if label is not None else f"state dims={list(state.dims)}"
    return ConditionReport(description, tol, verdict, pairs, values, normalized, 2 * shift, tol)
