"""Numerical checks of braid-group and Yang-Baxter structure.

A two-strand operator R on V (x) V induces the n-strand generators
tau(b_i) = I^(i-1) (x) R (x) I^(n-i-1).  These satisfy the braid relations
whenever R satisfies the Yang-Baxter equation

    (R x I)(I x R)(R x I) = (I x R)(R x I)(I x R),

and generators on disjoint slots commute for any R whatsoever.  Everything is
measured as an entry-wise max residual rather than assumed: residuals are
data, and verdicts are residual <= tol.

Padding with identities does not change an entry-wise max, so the relations
are measured on the smallest window that holds them: every adjacent residual
is the 3-strand Yang-Baxter residual, and every commuting residual is the
4-strand residual of R (x) I_{d^2} against I_{d^2} (x) R.  No n-strand matrix
is built; `StrandRep.generator` remains as the dense reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state_core import DEFAULT_TOL, OperatorMatrix

MAX_TOTAL_DIM = 4096


def _as_matrix(op: OperatorMatrix | np.ndarray) -> np.ndarray:
    mat = op.mat if isinstance(op, OperatorMatrix) else np.asarray(op, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _strand_dim(mat: np.ndarray) -> int:
    d = math.isqrt(mat.shape[0])
    if d < 2 or d * d != mat.shape[0]:
        raise ValueError(
            f"matrix dimension {mat.shape[0]} is not d^2 for an integer d >= 2"
        )
    return d


@dataclass(frozen=True)
class YbeResult:
    residual: float
    passed: bool
    d: int


@dataclass(frozen=True)
class BraidRelationReport:
    """Residuals of the two defining relations over all applicable generator pairs."""

    n: int
    commuting: tuple[tuple[int, int, float], ...]  # (i, j, residual) for |i-j| >= 2
    adjacent: tuple[tuple[int, float], ...]        # (i, residual) for b_i b_{i+1} b_i
    max_commuting_residual: float
    max_adjacent_residual: float
    passed: bool


@dataclass(frozen=True)
class QuasitriangularResult:
    residual: float
    passed: bool
    induced_ybe: YbeResult


class StrandRep:
    """The n-strand representation induced by R, checked against MAX_TOTAL_DIM.

    `generator(i)` builds the dense d^n x d^n matrix tau(b_i) on every call;
    the relation checks never need it.
    """

    def __init__(self, n: int, R: OperatorMatrix | np.ndarray):
        if n < 2:
            raise ValueError("need at least two strands")
        mat = _as_matrix(R)
        d = _strand_dim(mat)
        if d**n > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {d}^{n} exceeds the dense-verification cap {MAX_TOTAL_DIM}"
            )
        self.n = n
        self.v_dim = d
        self.R = mat

    def generator(self, i: int) -> np.ndarray:
        """tau(b_i) for 1 <= i <= n-1."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} outside 1..{self.n - 1}")
        d = self.v_dim
        left = np.eye(d ** (i - 1), dtype=complex)
        right = np.eye(d ** (self.n - i - 1), dtype=complex)
        return np.kron(left, np.kron(self.R, right))

    def generators(self) -> list[np.ndarray]:
        return [self.generator(i) for i in range(1, self.n)]


def check_ybe(R: OperatorMatrix | np.ndarray, tol: float = DEFAULT_TOL) -> YbeResult:
    """Entry-wise max residual of the Yang-Baxter equation for a d^2 x d^2 operator."""
    mat = _as_matrix(R)
    d = _strand_dim(mat)
    eye = np.eye(d, dtype=complex)
    a = np.kron(mat, eye)
    b = np.kron(eye, mat)
    residual = float(np.max(np.abs(a @ b @ a - b @ a @ b)))
    return YbeResult(residual=residual, passed=residual <= tol, d=d)


def check_braid_relations(rep: StrandRep, tol: float = DEFAULT_TOL) -> BraidRelationReport:
    """Verify commutation on disjoint slots and the braid relation on adjacent ones.

    Commutation needs n >= 4 to be nontrivial; the adjacent relation needs
    n >= 3.  With fewer strands the corresponding list is simply empty.  Each
    residual is measured once on its window and reported for every i or pair.
    """
    n = rep.n
    adjacent_residual = check_ybe(rep.R).residual if n >= 3 else 0.0
    adjacent = tuple((i, adjacent_residual) for i in range(1, n - 1))
    commuting_residual = 0.0
    if n >= 4:
        a = np.kron(rep.R, np.eye(rep.v_dim**2, dtype=complex))
        b = np.kron(np.eye(rep.v_dim**2, dtype=complex), rep.R)
        commuting_residual = float(np.max(np.abs(a @ b - b @ a)))
    commuting = tuple((i, j, commuting_residual) for i in range(1, n) for j in range(i + 2, n))
    return BraidRelationReport(
        n=n,
        commuting=commuting,
        adjacent=adjacent,
        max_commuting_residual=commuting_residual,
        max_adjacent_residual=adjacent_residual,
        passed=commuting_residual <= tol and adjacent_residual <= tol,
    )


def factor_swap(d: int) -> np.ndarray:
    """The permutation exchanging the two d-dimensional tensor factors."""
    perm = np.arange(d * d).reshape(d, d).T.ravel()
    return np.eye(d * d, dtype=complex)[perm]


def check_quasitriangular(R: OperatorMatrix | np.ndarray, tol: float = DEFAULT_TOL) -> QuasitriangularResult:
    """Residual of R12 R13 R23 = R23 R13 R12 on three factors.

    R12 = R (x) I, R23 = I (x) R, and R13 conjugates R12 by the swap of the
    last two factors.  Whenever this relation holds, swap @ R satisfies the
    Yang-Baxter equation; the induced check is included in the result (the
    two residuals coincide numerically, the difference matrices being
    permutations of one another).
    """
    mat = _as_matrix(R)
    d = _strand_dim(mat)
    eye = np.eye(d, dtype=complex)
    pi = factor_swap(d)
    r12 = np.kron(mat, eye)
    r23 = np.kron(eye, mat)
    swap23 = np.kron(eye, pi)
    r13 = swap23 @ r12 @ swap23
    residual = float(np.max(np.abs(r12 @ r13 @ r23 - r23 @ r13 @ r12)))
    induced = check_ybe(pi @ mat, tol)
    return QuasitriangularResult(residual=residual, passed=residual <= tol, induced_ybe=induced)
