"""Brute-force entanglement verification, independent of the condition route.

Everything here is standard reduced-state machinery: single-party purities
for product detection, the Wootters two-qubit concurrence of every pair
marginal, and the degree-4 hyperdeterminant three-tangle for three qubits.
None of it shares mathematics with the pair-condition functionals, so
agreement between the two routes is evidence rather than tautology.  In
particular the pair concurrences come from the mixed two-qubit marginals,
never from the pure-state shortcut |l1 - l2| of M^T (sy x sy) M: for qubits
sy is T(pi/2) up to a phase, so that shortcut is the EPR condition under
another name.

`oracle_classify` reduces one state in a single stacked pass.  Every
one-party marginal rho_k = M_k M_k^H / |a|^2 of the unfolding M_k goes into
one (m, N, N) stack per distinct slot dimension, and all purities come from
one stacked trace(rho @ rho).  For qubits the C(m,2) two-qubit marginals go
into one (P, 4, 4) stack, and all Wootters concurrences come from one stacked
eigh, square root and singular value decomposition.  Each stack passes the
same Hermiticity, unit-trace and PSD checks as `DensityMatrix`, with the
same messages; the PSD check reads the eigenvalues the Wootters step uses.
Unfoldings are formed one at a time, so the extra memory is O(d).

`partial_trace`, `DensityMatrix`, `wootters_concurrence` and `three_tangle`
stay the validating public API for user-given states and matrices, and the
tests' per-marginal reference for the stacked pass.

`crosscheck` owns the cross-check rule: only three-qubit states, whose W/GHZ
labels a condition verdict can be checked against, get an oracle verdict and
an AGREE/DISAGREE flag.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .concurrence import Verdict
from .state_core import DEFAULT_TOL, PureState, require_tol

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_FLOOR = -1e-10

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)


class StateClass(enum.Enum):
    PRODUCT = "PRODUCT"
    BISEPARABLE = "BISEPARABLE"
    W_CLASS = "W_CLASS"
    GHZ_CLASS = "GHZ_CLASS"
    ENTANGLED = "ENTANGLED"  # fallback for shapes without a full class oracle


def _density_spectrum(rho: np.ndarray, vectors: bool = False):
    """Check that every matrix of `rho` (shape (..., n, n)) is a density matrix.

    Hermitian, unit trace and eigenvalues >= _PSD_FLOOR, each checked over
    the whole stack and raising `DensityMatrix`'s message.  Returns the
    spectrum the PSD check read: `eigh(rho)` when `vectors`, else the
    eigenvalues alone.
    """
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max() > _HERMITICITY_TOL:
        raise ValueError("density matrix must be Hermitian")
    trace = rho.trace(axis1=-2, axis2=-1)
    if np.abs(trace.real - 1.0).max() > _TRACE_TOL or np.abs(trace.imag).max() > _TRACE_TOL:
        raise ValueError("density matrix must have unit trace")
    spectrum = np.linalg.eigh(rho) if vectors else np.linalg.eigvalsh(rho)
    if (spectrum[0] if vectors else spectrum).min() < _PSD_FLOOR:
        raise ValueError("density matrix must be positive semidefinite")
    return spectrum


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Unit-trace Hermitian PSD matrix over the retained subsystems."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        mat = np.array(self.mat, dtype=complex)
        d = math.prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix for dims {list(self.dims)}, got {mat.shape}")
        _density_spectrum(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def purity(self) -> float:
        return float(np.trace(self.mat @ self.mat).real)


@dataclass(frozen=True)
class OracleVerdict:
    purities: tuple[float, ...]
    pairwise_concurrence: dict[tuple[int, int], float] | None
    three_tangle: float | None
    label: StateClass
    split: int | None
    ties: tuple[StateClass, ...]


def partial_trace(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix of the kept subsystems (1-based), normalized.

    Traces |psi><psi| / norm^2 over everything outside `keep`; the kept
    subsystems appear in the order given.  The amplitudes go through
    `PureState.scaled_amplitudes`, so no finite nonzero state overflows.
    """
    keep = tuple(int(k) for k in keep)
    if len(keep) == 0:
        raise ValueError("keep must name at least one subsystem")
    if len(set(keep)) != len(keep):
        raise ValueError(f"keep has duplicates: {keep}")
    for k in keep:
        if not 1 <= k <= state.m:
            raise ValueError(f"subsystem {k} outside 1..{state.m}")
    amps, n2, _ = state.scaled_amplitudes()
    if n2 == 0.0:
        raise ValueError("cannot reduce the zero vector")
    keep0 = [k - 1 for k in keep]
    rest0 = [i for i in range(state.m) if i not in keep0]
    tensor = amps.reshape(state.dims)
    tensor = np.transpose(tensor, keep0 + rest0)
    d_keep = math.prod(state.dims[i] for i in keep0)
    block = tensor.reshape(d_keep, -1)
    rho = (block @ block.conj().T) / n2
    return DensityMatrix(tuple(state.dims[i] for i in keep0), rho)


def _unfolding_grams(tensor: np.ndarray, slots: Sequence[tuple[int, ...]], n2: float) -> np.ndarray:
    """Stack of the reduced states M M^H / n2, one per tuple of 0-based axes.

    M unfolds `tensor` with the axes of one tuple first, in the order
    `partial_trace` uses, so entry i equals `partial_trace` keeping slots[i].
    Every tuple must keep the same total dimension.  The unfoldings are formed
    one at a time and multiplied straight into the stack.
    """
    size = math.prod(tensor.shape[k] for k in slots[0])
    stack = np.empty((len(slots), size, size), dtype=complex)
    for out, axes in zip(stack, slots):
        rest = [k for k in range(tensor.ndim) if k not in axes]
        block = tensor.transpose(list(axes) + rest).reshape(size, -1)
        np.matmul(block, block.conj().T, out=out)
    stack /= n2
    return stack


def _wootters(evals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Wootters concurrences of two-qubit density matrices from their `eigh`.

    Takes one spectrum or a stack of them and returns one value per matrix.
    """
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(root @ _SPIN_FLIP @ root.conj(), compute_uv=False)
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def wootters_concurrence(rho: DensityMatrix | np.ndarray) -> float:
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4).

    The l_i are the decreasing square-rooted eigenvalues of
    rho (sy x sy) rho* (sy x sy); they are computed here as the singular
    values of sqrt(rho) (sy x sy) sqrt(rho)*, which is the same spectrum but
    exact on rank-deficient inputs (pure states) where the plain eigenvalue
    route loses half the digits to sqrt-of-noise.
    """
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix((2, 2), rho)
    if rho.dims != (2, 2):
        raise ValueError(f"wootters_concurrence needs a two-qubit state, got dims {list(rho.dims)}")
    return float(_wootters(*np.linalg.eigh(rho.mat)))


def three_tangle(state: PureState) -> float:
    """Residual three-qubit entanglement 4|d1 - 2 d2 + 4 d3|.

    Degree-4 polynomial in the (internally normalized) amplitudes; nonzero
    exactly on the GHZ class, zero on W-class, biseparable, and product
    states, and invariant under local unitaries.  The amplitudes go through
    `PureState.scaled_amplitudes` before they are normalized.  The result is
    within 128 eps of the exact three-tangle of the float input: the value
    of the amplitudes exactly as stored, before rescaling or normalization,
    in exact arithmetic.  The derivation of the bound is in
    tests/test_oracle.py.
    """
    if state.dims != (2, 2, 2):
        raise ValueError(f"three_tangle needs dims [2, 2, 2], got {list(state.dims)}")
    a, n2, _ = state.scaled_amplitudes()
    if n2 == 0.0:
        raise ValueError("cannot normalize the zero vector")
    # a[4i + 2j + k] for qubit digits (i, j, k), as Python complex numbers
    a000, a001, a010, a011, a100, a101, a110, a111 = (a / math.sqrt(n2)).tolist()
    d1 = (
        a000 * a000 * (a111 * a111)
        + a001 * a001 * (a110 * a110)
        + a010 * a010 * (a101 * a101)
        + a100 * a100 * (a011 * a011)
    )
    d2 = (
        a000 * a111 * a011 * a100
        + a000 * a111 * a101 * a010
        + a000 * a111 * a110 * a001
        + a011 * a100 * a101 * a010
        + a011 * a100 * a110 * a001
        + a101 * a010 * a110 * a001
    )
    d3 = a000 * a110 * a101 * a011 + a111 * a001 * a010 * a100
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def oracle_classify(state: PureState, tol: float = DEFAULT_TOL) -> OracleVerdict:
    """Classify a pure state from reduced-state data alone.

    The purities of all one-party marginals, the Wootters concurrences of all
    two-qubit marginals (all-qubit states only) and the three-tangle ((2,2,2)
    only) come from the stacked pass described in the module docstring.
    PRODUCT (every marginal pure within `tol`) is detected for any shape.
    The BISEPARABLE, W_CLASS and GHZ_CLASS labels exist only for three
    qubits; every other entangled shape gets the generic ENTANGLED label.
    Near-degenerate cases resolve in the fixed priority
    PRODUCT > BISEPARABLE > GHZ > W, with the losing candidates recorded in
    `ties`.  A state whose squared norm lies outside the working range of
    `PureState.scaled_amplitudes` is reduced at its power-of-two rescaling,
    so its label is that of the same state in range.  Raises ValueError for
    the zero vector and for a `tol` that is not a positive finite number.
    """
    require_tol(tol)
    amps, n2, _ = state.scaled_amplitudes()
    if n2 == 0.0:
        raise ValueError("cannot reduce the zero vector")
    tensor = amps.reshape(state.dims)
    purities = [0.0] * state.m
    for n in set(state.dims):
        slots = [k for k, n_k in enumerate(state.dims) if n_k == n]
        rho = _unfolding_grams(tensor, [(k,) for k in slots], n2)
        _density_spectrum(rho)
        for k, purity in zip(slots, (rho @ rho).trace(axis1=1, axis2=2).real.tolist()):
            purities[k] = purity
    purities = tuple(purities)
    pure_marginals = [k for k, p in enumerate(purities, start=1) if abs(p - 1.0) <= tol]
    all_qubits = all(n == 2 for n in state.dims)

    pairwise = None
    if all_qubits and state.m >= 2:
        pairs = list(itertools.combinations(range(state.m), 2))
        evals, vecs = _density_spectrum(_unfolding_grams(tensor, pairs, n2), vectors=True)
        pairwise = {(k + 1, l + 1): c for (k, l), c in zip(pairs, _wootters(evals, vecs).tolist())}

    tangle = three_tangle(state) if state.dims == (2, 2, 2) else None

    candidates: list[tuple[StateClass, int | None]] = []
    if len(pure_marginals) == state.m:
        candidates.append((StateClass.PRODUCT, None))
    if state.dims == (2, 2, 2):
        if len(pure_marginals) == 1:
            split = pure_marginals[0]
            pair = tuple(k for k in (1, 2, 3) if k != split)
            if pairwise[pair] > tol:
                candidates.append((StateClass.BISEPARABLE, split))
        if tangle > tol:
            candidates.append((StateClass.GHZ_CLASS, None))
        if len(pure_marginals) == 0 and tangle <= tol:
            candidates.append((StateClass.W_CLASS, None))
        if not candidates:
            # numerically ambiguous corner (e.g. one near-pure marginal with a
            # near-product pair); fall back on the tangle test
            candidates.append((StateClass.GHZ_CLASS if tangle > tol else StateClass.W_CLASS, None))
    elif not candidates:
        candidates.append((StateClass.ENTANGLED, None))

    # appended in priority order (GHZ_CLASS and W_CLASS exclude each other)
    label, split = candidates[0]
    ties = tuple(c[0] for c in candidates[1:])
    return OracleVerdict(
        purities=purities,
        pairwise_concurrence=pairwise,
        three_tangle=tangle,
        label=label,
        split=split,
        ties=ties,
    )


def verdicts_agree(verdict: Verdict, oracle: OracleVerdict) -> bool:
    """Consistency of the condition verdict with the oracle label.

    A fired condition certifies the state is not fully product, and the
    converse does not hold, so agreement means: conditions fire exactly when
    the oracle sees entanglement, and when exactly one family fires while
    the oracle commits to W or GHZ, the families match.
    """
    fired = verdict is not Verdict.NO_CONDITION_FIRES
    entangled = oracle.label is not StateClass.PRODUCT
    if fired != entangled:
        return False
    if verdict is Verdict.W_CLASS_CONDITIONS and oracle.label is StateClass.GHZ_CLASS:
        return False
    if verdict is Verdict.GHZ_CLASS_CONDITIONS and oracle.label is StateClass.W_CLASS:
        return False
    return True


def crosscheck(state: PureState, verdict: Verdict, tol: float) -> tuple[OracleVerdict | None, str | None]:
    """`(oracle_classify(state, tol), "AGREE" | "DISAGREE")` for dims (2, 2, 2), else (None, None)."""
    if state.dims != (2, 2, 2):
        return None, None
    oracle = oracle_classify(state, tol)
    return oracle, "AGREE" if verdicts_agree(verdict, oracle) else "DISAGREE"
