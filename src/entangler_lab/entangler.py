"""The corner-diagonal + antidiagonal entangling gate family.

An N^m x N^m gate R is parametrized by one complex alpha per multi-index:
alpha_{1...1} and alpha_{N...N} sit on the two diagonal corners, and interior
row q carries, on the antidiagonal, the alpha whose multi-index is the
digit-complement of q (j_k -> N_k + 1 - j_k; for qubits the bitwise
complement).  Each row and column then holds exactly one entry, so R is
unitary exactly when every |alpha| = 1, and R is monomial: R[q, s(q)] =
alpha[s(q)] for the corner-fixing interior reversal s (an involution), so
R = phase gate x swap gate with P = I[s].  P @ R is diagonal with the alphas
in ascending multi-index order, R @ P is diagonal with the interior order
reversed.  The functions here read that structure off (s, alpha) instead of
multiplying d x d matrices: `build_r` returns the gate as the monomial
`OperatorMatrix` (s, alpha[s]) in O(d), applying the gate is an O(d) gather,
and the unitarity check reads R R^dagger = diag(|alpha|^2) off that pair.  No
d x d matrix is formed unless a caller reads the gate's `.mat`.

Applied to the uniform product input (|1>+...+|N>)^(x m), the gate writes
alpha values directly into the output amplitudes, which is what makes the
pair conditions on the alphas act as entanglement witnesses for the output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .class_operators import ClassKind
from .concurrence import ConditionReport, classify
from .oracle import OracleVerdict, crosscheck
from .state_core import DEFAULT_TOL, OperatorMatrix, PureState, monomial_entries, uniform_input


@dataclass(frozen=True, eq=False)
class EntanglerSpec:
    """The N^m free complex gate parameters, ordered by ascending multi-index."""

    m: int
    N: int
    alpha: np.ndarray

    def __post_init__(self):
        for name in ("m", "N"):
            value = getattr(self, name)
            if int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.m < 2:
            raise ValueError("m must be >= 2 (a single subsystem leaves no antidiagonal band)")
        if self.N < 2:
            raise ValueError("N must be >= 2")
        alpha = np.array(self.alpha, dtype=complex)
        if alpha.shape != (self.dim,):
            raise ValueError(f"alpha must have length N^m = {self.dim}, got shape {alpha.shape}")
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)

    @property
    def dim(self) -> int:
        return self.N**self.m


@dataclass(frozen=True)
class UnitarityCheck:
    passed: bool
    max_deviation: float


class EvaluationTarget(enum.Enum):
    COEFFICIENTS = "COEFFICIENTS"
    OUTPUT = "OUTPUT"


@dataclass(frozen=True, eq=False)
class PhaseSwapDecomposition:
    """R = phase gate x swap gate, with the ordering that yields ascending phases.

    Only the two diagonals are stored; `phase` and `swap` build their dense
    d x d matrices on each access.
    """

    ordering: str            # which product ("P@R" or "R@P") gave the ascending diagonal
    pr_diagonal: np.ndarray
    rp_diagonal: np.ndarray

    @property
    def phase(self) -> np.ndarray:
        """Diagonal matrix whose diagonal is alpha ascending."""
        return np.diag(self.pr_diagonal)

    @property
    def swap(self) -> np.ndarray:
        """Corner-fixing interior-reversal permutation P."""
        return swap_gate(len(self.pr_diagonal))


@dataclass(frozen=True, eq=False)
class PropositionCheck:
    kind: ClassKind
    target: EvaluationTarget
    fires: bool
    state: PureState
    report: ConditionReport
    oracle: OracleVerdict | None
    agreement: str | None


def _reversal(dim: int) -> np.ndarray:
    """Corner-fixing interior reversal s: 0 -> 0, q -> dim-1-q, dim-1 -> dim-1.

    The full reversal with its two ends stored back: a fresh, writable intp
    array, built without numpy's index-trick machinery.
    """
    s = np.arange(dim - 1, -1, -1)
    s[0] = 0
    s[-1] = dim - 1
    return s


def build_r(spec: EntanglerSpec) -> OperatorMatrix:
    """The gate as a monomial `OperatorMatrix`: row q holds alpha[s(q)] in column s(q).

    O(d): only the pair (s, alpha[s]) is stored.  The checks read that pair,
    and the dense d x d matrix is built only if a caller reads `.mat`.
    """
    s = _reversal(spec.dim)
    values = spec.alpha[s]
    s.setflags(write=False)  # both read-only and owning their data: adopted without a copy
    values.setflags(write=False)
    return OperatorMatrix.monomial((spec.N,) * spec.m, s, values)


def check_unitary(op: OperatorMatrix | np.ndarray, tol: float = DEFAULT_TOL) -> UnitarityCheck:
    """Max-norm deviation of R R^dagger from the identity, judged against tol.

    The deviation is read off the nonzeros when R is monomial (one nonzero
    per row and per column, as for every gate `build_r` makes): R R^dagger is
    then diag(|v|^2) for the row values v, so the deviation is
    max | |v|^2 - 1 |.  A monomial `OperatorMatrix` hands over its stored
    values, so the check is O(d) with no d x d array; a dense monomial
    matrix is scanned once for them, and gives the same bits.  The result
    can differ from the dense product at the rounding level.  Any other
    square matrix, and a monomial one with a non-finite entry, gets the
    dense max |R R^dagger - I|.
    """
    if not isinstance(op, OperatorMatrix):
        op = np.asarray(op, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {op.shape}")
    entries = monomial_entries(op)
    if entries is not None:
        v = entries[1]
        deviation = float(np.max(np.abs(v.real**2 + v.imag**2 - 1)))
    else:
        mat = op.mat if isinstance(op, OperatorMatrix) else op
        deviation = float(np.max(np.abs(mat @ mat.conj().T - np.eye(mat.shape[0]))))
    return UnitarityCheck(passed=deviation <= tol, max_deviation=deviation)


def swap_gate(dim: int) -> np.ndarray:
    """Permutation fixing the first and last basis vectors and reversing the interior."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    return np.eye(dim, dtype=complex)[_reversal(dim)]


def phase_swap_decomposition(spec: EntanglerSpec) -> PhaseSwapDecomposition:
    """Factor the gate into phase gate x swap gate.

    With P = I[s], (P @ R)[q, q] = R[s(q), q] = alpha[q] and
    (R @ P)[q, q] = R[q, s(q)] = alpha[s(q)], and every off-diagonal entry of
    either product is zero, so both diagonals are read off alpha without
    forming a product: the ascending-ordered diagonal comes from P @ R, while
    R @ P carries the interior in reversed order.
    """
    return PhaseSwapDecomposition(
        ordering="P@R",
        pr_diagonal=spec.alpha,
        rp_diagonal=spec.alpha[_reversal(spec.dim)],
    )


def apply_entangler(spec: EntanglerSpec, state: PureState) -> PureState:
    """The gate on an input state of total dimension N^m: out[q] = alpha[s(q)] a[s(q)]."""
    if state.dim != spec.dim:
        raise ValueError(f"input dimension {state.dim} does not match gate dimension {spec.dim}")
    out = (spec.alpha * state.amps)[_reversal(spec.dim)]
    return PureState((spec.N,) * spec.m, out)


def coefficient_state(spec: EntanglerSpec) -> PureState:
    """The formal state whose amplitudes are the gate parameters themselves."""
    return PureState((spec.N,) * spec.m, spec.alpha)


def proposition_check(
    spec: EntanglerSpec,
    kind: ClassKind,
    evaluation_target: EvaluationTarget = EvaluationTarget.OUTPUT,
    tol: float = DEFAULT_TOL,
) -> PropositionCheck:
    """Evaluate the pair conditions of one family for a gate.

    COEFFICIENTS evaluates them on the alpha vector read as a state, the form
    in which the conditions are written; OUTPUT evaluates them on the state
    the gate actually produces from the uniform product input.  For the GHZ
    family with N = 2 the two coincide because every GHZ term pairs an index
    with its full complement; for the EPR/W family they differ in general.
    A three-qubit state additionally gets the independent oracle verdict and
    an AGREE/DISAGREE flag.
    """
    if evaluation_target is EvaluationTarget.COEFFICIENTS:
        state = coefficient_state(spec)
    else:
        state = apply_entangler(spec, uniform_input(spec.m, spec.N))
    report = classify(state, tol, label=f"{evaluation_target.value} of {spec.m}x{spec.N} gate")
    fires = report.fired(kind)
    oracle, agreement = crosscheck(state, report.verdict, tol)
    return PropositionCheck(
        kind=kind,
        target=evaluation_target,
        fires=fires,
        state=state,
        report=report,
        oracle=oracle,
        agreement=agreement,
    )
