"""Phase-matrix POVM elements and the tensor-product pair-condition operators.

A single subsystem carries a symmetric POVM element whose (k, l) entry is
e^{i phi_kl} with an antisymmetric phase table (so the diagonal is 1).  Its
zero-diagonal counterpart with the uniform phase phi is the building block
here: with phi = pi/2 it marks a "pair" slot, with phi = pi it is a sigma_x
look-alike up to a global sign (entries e^{+-i pi} = -1, not +1; the sign
cancels in every even-order condition value).  At multiples of pi/2 the
blocks are built with exact entries (+-1, +-i), so no rounding residue of
e^{i phi} leaks into condition values.

Two operator families are assembled per subsystem pair (r1, r2):

* EPR kind  -- pi/2 blocks on the pair, identity elsewhere; detects
  pairwise (W-style) entanglement between r1 and r2.
* GHZ kind  -- pi/2 blocks on the pair, pi blocks on every other slot;
  pairs fully complementary index tuples.

`class_operator` materialises one of these as a dense N^m x N^m matrix.  It
is the reference route for tests, demos and the three-party expansion
cross-check; `concurrence.classify` never builds it and instead applies the
same N x N blocks along single axes of the amplitude tensor.  Nothing here
is cached.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .state_core import OperatorMatrix, kron_all

CONCURRENCE_PHASE = math.pi / 2
FLIP_PHASE = math.pi

_ANTISYMMETRY_TOL = 1e-12


class ClassKind(enum.Enum):
    EPR = "EPR"
    GHZ = "GHZ"


@dataclass(frozen=True)
class PhaseAssignment:
    """Uniform phase phi assigned to every pair k < l of an N-level subsystem."""

    N: int
    phi: float

    def table(self) -> np.ndarray:
        """Full antisymmetric N x N phase table (zero diagonal)."""
        t = np.zeros((self.N, self.N))
        iu = np.triu_indices(self.N, k=1)
        t[iu] = self.phi
        return t - t.T


def povm_element(N: int, phases: np.ndarray) -> OperatorMatrix:
    """POVM element with entries e^{i phi_kl} from a full antisymmetric table.

    The table must be real, N x N, antisymmetric with zero diagonal; the
    resulting diagonal entries are all 1.
    """
    table = np.asarray(phases, dtype=float)
    if table.shape != (N, N):
        raise ValueError(f"phase table must be {N}x{N}, got {table.shape}")
    if np.max(np.abs(table + table.T)) > _ANTISYMMETRY_TOL:
        raise ValueError("phase table must be antisymmetric with zero diagonal")
    return OperatorMatrix((N,), np.exp(1j * table))


def _unit_phase(phi: float) -> complex:
    """e^{i phi}, exactly 1, i, -1 or -i when phi is a multiple of pi/2."""
    quarter_turns = float(phi) / (math.pi / 2)
    if quarter_turns.is_integer():
        return (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))[int(quarter_turns) % 4]
    return complex(np.exp(1j * phi))


def tilde_operator(N: int, phi: float) -> OperatorMatrix:
    """Zero-diagonal phase matrix: e^{i phi} above the diagonal, e^{-i phi} below.

    Equals the uniform-phase POVM element minus its (identity) diagonal.  For
    phi = 0 and N = 2 this is sigma_x; for phi = pi it is -sigma_x.  At
    multiples of pi/2 the entries are exact.
    """
    mat = np.zeros((N, N), dtype=complex)
    above = _unit_phase(phi)
    for k in range(N):
        for l in range(k + 1, N):
            mat[k, l] = above
            mat[l, k] = above.conjugate()
    return OperatorMatrix((N,), mat)


@dataclass(frozen=True)
class ClassOperatorSpec:
    """Which kind (EPR/GHZ) and which subsystem pair an operator targets."""

    dims: tuple[int, ...]
    kind: ClassKind
    pair: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        object.__setattr__(self, "kind", ClassKind(self.kind))
        object.__setattr__(self, "pair", tuple(int(r) for r in self.pair))
        r1, r2 = self.pair
        if not (1 <= r1 < r2 <= self.m):
            raise ValueError(f"pair {self.pair} invalid for m={self.m} (need 1 <= r1 < r2 <= m)")

    @property
    def m(self) -> int:
        return len(self.dims)


def class_operator(spec: ClassOperatorSpec) -> OperatorMatrix:
    """Dense tensor-product condition operator for the given kind and subsystem pair."""
    factors = []
    for slot, n in enumerate(spec.dims, start=1):
        if slot in spec.pair:
            factors.append(tilde_operator(n, CONCURRENCE_PHASE).mat)
        elif spec.kind is ClassKind.EPR:
            factors.append(np.eye(n, dtype=complex))
        else:
            factors.append(tilde_operator(n, FLIP_PHASE).mat)
    return OperatorMatrix(spec.dims, kron_all(factors))


def pair_specs(dims: Sequence[int], kind: ClassKind) -> list[ClassOperatorSpec]:
    """All C(m,2) operator specs of one kind for the given subsystem dimensions."""
    dims = tuple(dims)
    m = len(dims)
    return [
        ClassOperatorSpec(dims, kind, pair)
        for pair in itertools.combinations(range(1, m + 1), 2)
    ]
