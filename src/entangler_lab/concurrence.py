"""Pair-condition functionals and their aggregation into a class verdict.

The canonical value of a condition is the bilinear form sum_jk a_j a_k M[j,k]
in the UNCONJUGATED amplitudes.  For three subsystems the same quantities are
also available as explicit combinatorial expansions over index pairs; the two
routes agree up to fixed proportionality constants (+2 for the EPR/W family,
-2 for the GHZ family) because the operator sums both orders of each index
pair and the phase convention of the pi-blocks contributes a sign.  Keeping
both routes makes each an independent check on the other.

`classify` never forms an operator.  Every class operator is a Kronecker
product of N x N blocks, so it applies each block along one axis of the
amplitude tensor (an n-mode product) and gets all 2*C(m,2) values of an
m-party state of dimension d from 4m mode products and two m x m Gram-type
products: O(m*d*N + m^2*d) time and O(m*d) memory, with no operator cache.
`bilinear_condition` with the dense `class_operator` is the reference route
the tests compare it against.

Every condition value is homogeneous of degree 2 in the amplitudes, so
verdicts use the scale-free ratio |value| / norm^2 against a tolerance.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .class_operators import CONCURRENCE_PHASE, FLIP_PHASE, ClassKind, tilde_operator
from .state_core import DEFAULT_TOL, OperatorMatrix, PureState, flatten

EPR_OPERATOR_FACTOR = 2.0
GHZ_OPERATOR_FACTOR = -2.0


class Verdict(enum.Enum):
    NO_CONDITION_FIRES = "NO_CONDITION_FIRES"
    W_CLASS_CONDITIONS = "W_CLASS_CONDITIONS"
    GHZ_CLASS_CONDITIONS = "GHZ_CLASS_CONDITIONS"
    BOTH = "BOTH"


@dataclass(frozen=True)
class ConditionValue:
    kind: ClassKind
    pair: tuple[int, int]
    value: complex
    magnitude: float
    normalized_magnitude: float

    def fires(self, tol: float) -> bool:
        return self.normalized_magnitude > tol


@dataclass(frozen=True)
class ConditionReport:
    """All 2*C(m,2) condition values for one state, plus the threshold verdict."""

    state: str
    values: tuple[ConditionValue, ...]
    tol: float
    verdict: Verdict

    def fired(self, kind: ClassKind) -> bool:
        return any(v.kind is kind and v.fires(self.tol) for v in self.values)


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


def _amp(state: PureState, digits: tuple[int, ...]) -> complex:
    return state.amps[flatten(digits, state.dims)]


def _require_three_parties(state: PureState, where: str) -> None:
    if state.m != 3:
        raise ValueError(f"{where} is defined for three subsystems, got m={state.m}")


def epr_expansion_3q(state: PureState, pair: tuple[int, int]) -> complex:
    """Explicit EPR/W-condition sum for a three-party state.

    Sums l > k over the two paired subsystems and a matched index over the
    spectator slot.  Relates to the operator route by
    bilinear_condition(s, EPR op) == +2 * epr_expansion_3q(s, pair).
    """
    _require_three_parties(state, "epr_expansion_3q")
    r1, r2 = pair
    if (r1, r2) not in ((1, 2), (1, 3), (2, 3)):
        raise ValueError(f"pair must be one of (1,2), (1,3), (2,3), got {pair}")
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


# Signs of the four products (kll,lkk), (klk,lkl), (kkl,llk), (kkk,lll) per pair.
_GHZ_TERM_SIGNS = {
    (1, 2): (+1, +1, -1, -1),
    (1, 3): (+1, -1, +1, -1),
    (2, 3): (-1, +1, +1, -1),
}


def ghz_expansion_3q(state: PureState, pair: tuple[int, int]) -> complex:
    """Explicit GHZ-condition sum for a three-party state.

    Every product pairs an index tuple with its full complement, so the sum
    is invariant under complement reindexing of the amplitudes.  Relates to
    the operator route by
    bilinear_condition(s, GHZ op) == -2 * ghz_expansion_3q(s, pair).
    """
    _require_three_parties(state, "ghz_expansion_3q")
    if pair not in _GHZ_TERM_SIGNS:
        raise ValueError(f"pair must be one of (1,2), (1,3), (2,3), got {pair}")
    s1, s2, s3, s4 = _GHZ_TERM_SIGNS[pair]
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


def _condition_matrices(state: PureState) -> tuple[np.ndarray, np.ndarray]:
    """m x m matrices whose (r, s) entries, r < s, are the EPR and GHZ values of pair (r+1, s+1).

    EPR: with b_r = T(pi/2) applied along axis r, the value is
    a^T T_r T_s a = (T_r^T a)^T (T_s a) = -b_r . b_s, since T(pi/2) is
    antisymmetric.  GHZ: T(pi) X = T(pi/2), so the operator is P X_r X_s
    with P = (x) T(pi) over all axes, and with c = P a (P is symmetric) the
    value is (X_r^T c) . (X_s a).  Both dot products are unconjugated.
    """
    dims, a = state.dims, state.amps
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


def classify(state: PureState, tol: float = DEFAULT_TOL, label: str | None = None) -> ConditionReport:
    """Evaluate all EPR and GHZ conditions and summarize which families fire.

    A condition fires when |value| / norm^2 > tol.  A fired condition
    certifies that the state is not fully product; the converse does not
    hold, so the verdict reports which families fire rather than forcing a
    single class.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    norm2 = state.norm2
    if norm2 == 0.0:
        raise ValueError("cannot classify the zero vector")
    values = []
    if state.m > 1:  # a single subsystem has no pairs
        for kind, matrix in zip((ClassKind.EPR, ClassKind.GHZ), _condition_matrices(state)):
            rows = matrix.tolist()
            for r, s in itertools.combinations(range(state.m), 2):
                value = rows[r][s]
                magnitude = abs(value)
                values.append(ConditionValue(kind, (r + 1, s + 1), value, magnitude, magnitude / norm2))
    epr_fired = any(v.fires(tol) for v in values if v.kind is ClassKind.EPR)
    ghz_fired = any(v.fires(tol) for v in values if v.kind is ClassKind.GHZ)
    if epr_fired and ghz_fired:
        verdict = Verdict.BOTH
    elif epr_fired:
        verdict = Verdict.W_CLASS_CONDITIONS
    elif ghz_fired:
        verdict = Verdict.GHZ_CLASS_CONDITIONS
    else:
        verdict = Verdict.NO_CONDITION_FIRES
    description = label if label is not None else f"state dims={list(state.dims)}"
    return ConditionReport(description, tuple(values), tol, verdict)
