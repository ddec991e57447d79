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
is built; `StrandRep.generator` remains as the dense reference.  The
quasitriangular residual is the Yang-Baxter residual of P R, P the factor
swap (see `check_quasitriangular`), so it is computed once.

Monomial operators.  When R holds exactly one nonzero per row and per column
(every gate of the `entangler` family does), R (x) I and I (x) R are
monomial too, and so is every product of them.  Each is kept as a
destination row and a value per column, products are gathers, and a
residual is read column by column: where the two sides send a column to the
same row it is |l - r|, where they send it to different rows it is
max(|l|, |r|).  That is O(d^3) for the Yang-Baxter window and O(d^4) for the
commuting one, against O(d^9) and O(d^12) for the dense products, which stay
for every other R (and for a monomial R with a non-finite entry).  A
monomial `OperatorMatrix`, such as every gate `build_r` returns, hands its
(permutation, values) pair to each check, so no d^2 x d^2 matrix is formed
or scanned; a dense matrix is scanned once per check for the pair.  The
commuting products multiply their two values in one fixed order, so a
monomial R commutes with residual exactly 0.0, as the dense path gives.  The
3-strand windows are d^3 x d^3 when dense, and the n-strand representation
d^n; both are held to MAX_TOTAL_DIM and refused before the first allocation,
whichever path would run.

The family's two-strand gates (m = 2, N = d).  Write R|c> = alpha_c |s(c)>
for the corner-fixing interior reversal s on pairs of digits, and let
sigma_L = (s x id)(id x s)(s x id) and sigma_R = (id x s)(s x id)(id x s) be
the permutations of the N^3 three-strand labels that the two sides apply.

* N = 2: s fixes |11> and |22> and exchanges |12> and |21>, so s is the
  factor swap and R = P diag(alpha).  Then both sides send |xyz> to |zyx>,
  with the values alpha_xy alpha_xz alpha_yz and alpha_yz alpha_xz alpha_xy:
  the same product in another order.  Every two-qubit gate of the family
  solves the Yang-Baxter equation, unimodular or not; the measured residual
  is rounding of size eps * max|alpha|^3.
* N >= 3: sigma_L != sigma_R.  On the label |1,1,2> (1-based digits),
  sigma_L gives |N,1,N-1> and sigma_R gives |N,N,2>: the column's two
  nonzeros sit in different rows, so the residual is at least the modulus of
  a product of three alphas.  For a unimodular gate no parameter choice
  solves the equation: its residual is >= 1 up to rounding (and <= 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state_core import DEFAULT_TOL, OperatorMatrix, monomial_entries

MAX_TOTAL_DIM = 4096


def _two_strand(R: OperatorMatrix | np.ndarray) -> tuple[OperatorMatrix | np.ndarray, int]:
    """R, kept as an OperatorMatrix or read as a complex array, and its strand dimension d.

    R must be a d^2 x d^2 matrix with d >= 2.  An OperatorMatrix is square by
    construction, so its dense matrix is not read here.
    """
    if isinstance(R, OperatorMatrix):
        size = R.dim
    else:
        R = np.asarray(R, dtype=complex)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {R.shape}")
        size = R.shape[0]
    d = math.isqrt(size)
    if d < 2 or d * d != size:
        raise ValueError(f"matrix dimension {size} is not d^2 for an integer d >= 2")
    return R, d


def _dense(R: OperatorMatrix | np.ndarray) -> np.ndarray:
    return R.mat if isinstance(R, OperatorMatrix) else R


def require_ybe_window(d: int) -> None:
    """Refuse a strand dimension whose d^3 x d^3 Yang-Baxter window exceeds the cap."""
    if d**3 > MAX_TOTAL_DIM:
        raise ValueError(
            f"Yang-Baxter window dimension {d}^3 exceeds the dense-verification cap {MAX_TOTAL_DIM}"
        )


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

    `operator` is R as given (an OperatorMatrix stays one), and the relation
    checks read it.  `R` is its dense matrix, read only by `generator(i)`,
    which builds the dense d^n x d^n matrix tau(b_i) on every call; the
    relation checks never need either.
    """

    def __init__(self, n: int, R: OperatorMatrix | np.ndarray):
        if n < 2:
            raise ValueError("need at least two strands")
        op, d = _two_strand(R)
        # d >= 2, so n beyond the cap's bit length is over it: d**n is never formed
        if n > MAX_TOTAL_DIM.bit_length() or d**n > MAX_TOTAL_DIM:
            raise ValueError(
                f"total dimension {d}^{n} exceeds the dense-verification cap {MAX_TOTAL_DIM}"
            )
        self.n = n
        self.v_dim = d
        self.operator = op

    @property
    def R(self) -> np.ndarray:
        """The dense d^2 x d^2 matrix of R (a monomial operator builds it on first read)."""
        return _dense(self.operator)

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


def _monomial_columns(R: OperatorMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(dest, w) with R[dest[j], j] = w[j] for every column j, or None if not monomial."""
    entries = monomial_entries(R)
    if entries is None:
        return None
    cols, values = entries
    dest = np.empty_like(cols)
    dest[cols] = np.arange(len(cols))
    return dest, values[dest]


def _padded(columns: tuple[np.ndarray, np.ndarray], left: int, right: int) -> tuple[np.ndarray, np.ndarray]:
    """I_left (x) M (x) I_right in the (dest, w) form of the monomial M."""
    dest, w = columns
    n = len(dest)
    out = (np.arange(left)[:, None, None] * n + dest[:, None]) * right + np.arange(right)
    return out.ravel(), np.broadcast_to(w[:, None], (left, n, right)).ravel()


def _then(first, second) -> tuple[np.ndarray, np.ndarray]:
    """second @ first in the (dest, w) form: apply `first`, then `second`."""
    return second[0][first[0]], second[1][first[0]] * first[1]


def _monomial_residual(lhs, rhs) -> float:
    """max |lhs - rhs| over the entries of two monomial matrices in (dest, w) form.

    A column whose two nonzeros share a row differs by |l - r| there; one
    whose nonzeros sit in different rows holds l in one and -r in the other.
    """
    (ld, lw), (rd, rw) = lhs, rhs
    per_column = np.where(ld == rd, np.abs(lw - rw), np.maximum(np.abs(lw), np.abs(rw)))
    return float(np.max(per_column))


def check_ybe(R: OperatorMatrix | np.ndarray, tol: float = DEFAULT_TOL) -> YbeResult:
    """Entry-wise max residual of the Yang-Baxter equation for a d^2 x d^2 operator.

    A monomial R gets the residual from its (permutation, values) form in
    O(d^3), read off the stored pair of a monomial OperatorMatrix without a
    d^2 x d^2 matrix; any other R gets the dense d^3 x d^3 products.
    """
    R, d = _two_strand(R)
    require_ybe_window(d)
    columns = _monomial_columns(R)
    if columns is not None:
        a = _padded(columns, 1, d)
        b = _padded(columns, d, 1)
        residual = _monomial_residual(_then(_then(a, b), a), _then(_then(b, a), b))
    else:
        mat = _dense(R)
        eye = np.eye(d, dtype=complex)
        a = np.kron(mat, eye)
        b = np.kron(eye, mat)
        residual = float(np.max(np.abs(a @ b @ a - b @ a @ b)))
    return YbeResult(residual=residual, passed=residual <= tol, d=d)


def _commuting_residual(R: OperatorMatrix | np.ndarray, d: int) -> float:
    """Residual of (R (x) I_{d^2}) (I_{d^2} (x) R) = (I_{d^2} (x) R) (R (x) I_{d^2})."""
    columns = _monomial_columns(R)
    if columns is None:
        mat = _dense(R)
        a = np.kron(mat, np.eye(d**2, dtype=complex))
        b = np.kron(np.eye(d**2, dtype=complex), mat)
        return float(np.max(np.abs(a @ b - b @ a)))
    a = _padded(columns, 1, d**2)
    b = _padded(columns, d**2, 1)
    # both products multiply the R (x) I factor first: complex multiplication
    # is not bitwise commutative, and the same order keeps equal values equal
    ab = a[0][b[0]], a[1][b[0]] * b[1]
    ba = b[0][a[0]], a[1] * b[1][a[0]]
    return _monomial_residual(ab, ba)


def check_braid_relations(
    rep: StrandRep, tol: float = DEFAULT_TOL, ybe: YbeResult | None = None
) -> BraidRelationReport:
    """Verify commutation on disjoint slots and the braid relation on adjacent ones.

    Commutation needs n >= 4 to be nontrivial; the adjacent relation needs
    n >= 3.  With fewer strands the corresponding list is simply empty.  Each
    residual is measured once on its window and reported for every i or pair;
    a caller that already holds `check_ybe(rep.operator)` passes it as `ybe`
    so the adjacent residual is not computed again.
    """
    n = rep.n
    adjacent_residual = (ybe or check_ybe(rep.operator)).residual if n >= 3 else 0.0
    adjacent = tuple((i, adjacent_residual) for i in range(1, n - 1))
    commuting_residual = _commuting_residual(rep.operator, rep.v_dim) if n >= 4 else 0.0
    commuting = tuple((i, j, commuting_residual) for i in range(1, n) for j in range(i + 2, n))
    return BraidRelationReport(
        n=n,
        commuting=commuting,
        adjacent=adjacent,
        max_commuting_residual=commuting_residual,
        max_adjacent_residual=adjacent_residual,
        passed=commuting_residual <= tol and adjacent_residual <= tol,
    )


def _factor_swap_order(d: int) -> np.ndarray:
    """Row order of the factor swap: (P M)[q] = M[order[q]]."""
    return np.arange(d * d).reshape(d, d).T.ravel()


def factor_swap(d: int) -> np.ndarray:
    """The permutation exchanging the two d-dimensional tensor factors."""
    return np.eye(d * d, dtype=complex)[_factor_swap_order(d)]


def check_quasitriangular(R: OperatorMatrix | np.ndarray, tol: float = DEFAULT_TOL) -> QuasitriangularResult:
    """Residual of R12 R13 R23 = R23 R13 R12 on three factors.

    R12 = R (x) I, R23 = I (x) R, and R13 conjugates R12 by the swap of the
    last two factors.  With P the factor swap and Rc = P R,

        Rc12 Rc23 Rc12 - Rc23 Rc12 Rc23 = P13 (R23 R13 R12 - R12 R13 R23),

    and P13 only permutes rows, so the two differences hold the same entries
    and their entry-wise maxima are equal.  The residual is therefore the
    Yang-Baxter residual of P R, computed once and also reported as
    `induced_ybe`: the relation holds exactly when P R solves the Yang-Baxter
    equation.  P R is a row gather of R: of its (cols, values) pair when R
    is monomial, so no dense matrix is formed, and of its dense matrix
    otherwise.
    """
    R, d = _two_strand(R)
    require_ybe_window(d)
    order = _factor_swap_order(d)
    entries = monomial_entries(R)
    if entries is not None:
        swapped = OperatorMatrix.monomial((d, d), entries[0][order], entries[1][order])
    else:
        swapped = _dense(R)[order]
    induced = check_ybe(swapped, tol)
    return QuasitriangularResult(residual=induced.residual, passed=induced.passed, induced_ybe=induced)
