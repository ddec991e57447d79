"""Multipartite pure states as dense complex amplitude vectors.

Amplitudes are stored flat in row-major order with subsystem 1 as the most
significant digit, so for three qubits the basis order is |111>, |112>,
|121>, ..., |222>.  Basis labels are 1-based (|1>..|N>) in user-facing
notation; flat offsets are 0-based.  States are kept unnormalized unless
`normalize` is called explicitly, since every condition evaluated downstream
is homogeneous in the amplitudes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9

# squared norms that `PureState.scaled_amplitudes` leaves unscaled
_NORM2_WINDOW = (2.0**-511, 2.0**511)


def require_tol(tol: float) -> None:
    """Raise ValueError unless `tol` is a positive finite number.

    A NaN compares false with everything, and with 0, a negative or an
    infinite tol every threshold test comes out the same way whatever the
    state, so none of them can separate one verdict from another.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be a positive finite number, got {tol}")


def _readonly_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1:
        raise ValueError(f"amplitude data must be one-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """An m-partite pure state: subsystem dimensions plus a flat amplitude vector."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        if len(self.dims) < 1:
            raise ValueError("a state needs at least one subsystem")
        if any(n < 2 for n in self.dims):
            raise ValueError(f"every subsystem dimension must be >= 2, got {self.dims}")
        amps = _readonly_complex_vector(self.amps)
        if amps.size != self.dim:
            raise ValueError(
                f"expected {self.dim} amplitudes for dims {list(self.dims)}, got {amps.size}"
            )
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amps", amps)

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def norm2(self) -> float:
        """Squared norm sum |a|^2 (states are not required to be normalized)."""
        return float(np.sum(np.abs(self.amps) ** 2))

    def scaled_amplitudes(self) -> tuple[np.ndarray, float, int]:
        """(amps * 2**-k, its squared norm, k), with k = 0 inside the working range.

        Inside the working range, squared norm in [2**-511, 2**511], the
        result is `(amps, norm2, 0)` bit for bit.  Outside it (0, subnormal
        or overflowing included) k is the binary exponent of the largest
        |re| or |im|, which puts that part in [0.5, 1) and the squared norm
        in [0.25, 2 * dim].  The window is half the float exponent range, so
        the products of two amplitudes that degree-2 quantities sum stay
        normal down to 2**-511 of the squared norm.  A power-of-two scale
        commutes with rounding, so a ratio of two degree-2 quantities, such
        as |value| / norm2, comes out bit for bit as for the same state
        scaled into the window.  The zero vector comes back as
        `(amps, 0.0, 0)`.  No overflow or underflow is reported.
        """
        with np.errstate(over="ignore", under="ignore"):
            n2 = self.norm2
            if _NORM2_WINDOW[0] <= n2 <= _NORM2_WINDOW[1]:
                return self.amps, n2, 0
            parts = self.amps.view(float)
            peak = float(np.abs(parts).max())
            if peak == 0.0:
                return self.amps, 0.0, 0
            k = math.frexp(peak)[1]
            amps = np.ldexp(parts, -k).view(complex)
            return amps, float(np.sum(np.abs(amps) ** 2)), k

    def normalize(self) -> "PureState":
        amps, n2, _ = self.scaled_amplitudes()
        if n2 == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.dims, amps / math.sqrt(n2))


class OperatorMatrix:
    """Complex square matrix tagged with the subsystem dimensions it acts on.

    One class, two forms, both read-only and compared by identity:

    * dense, `OperatorMatrix(dims, mat)`: the matrix is stored.  A
      complex128 ndarray that owns its data and is already read-only is
      adopted as it is, without a copy; every other input, including a
      caller's writable array, is copied, so later writes to the caller's
      array do not reach `mat`.
    * monomial, `OperatorMatrix.monomial(dims, cols, values)`: one entry
      per row and per column, stored as the pair with values[q] at
      (q, cols[q]) under the same adoption rule (this is how `build_r` hands
      over a gate, in O(d)).  `monomial_entries` returns the stored pair
      itself, never a copy, so the checks that read it allocate nothing d x d.
      The dense `mat` is built on its first read, and that same read-only
      array is returned on every later read.
    """

    def __init__(self, dims: Sequence[int], mat: np.ndarray):
        dims = tuple(int(n) for n in dims)
        mat = _adopt_readonly(mat, complex)
        d = math.prod(dims)
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix for dims {list(dims)}, got {mat.shape}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "_entries", None)
        object.__setattr__(self, "mat", mat)  # shadows the lazy `mat` below

    @classmethod
    def monomial(cls, dims: Sequence[int], cols, values) -> "OperatorMatrix":
        """The matrix with values[q] at (q, cols[q]), cols a permutation of 0..d-1."""
        dims = tuple(int(n) for n in dims)
        cols = _adopt_readonly(cols, np.intp)
        values = _adopt_readonly(values, complex)
        d = math.prod(dims)
        if cols.shape != (d,) or values.shape != (d,):
            raise ValueError(
                f"expected {d} columns and values for dims {list(dims)}, got {cols.shape} and {values.shape}"
            )
        in_range = np.all((cols >= 0) & (cols < d))  # bincount refuses negative entries
        if not (in_range and np.all(np.bincount(cols, minlength=d) == 1)):
            raise ValueError("cols must be a permutation of 0..d-1 (one entry per column)")
        op = cls.__new__(cls)
        object.__setattr__(op, "dims", dims)
        object.__setattr__(op, "_entries", (cols, values))
        return op

    @functools.cached_property
    def mat(self) -> np.ndarray:
        """The dense matrix; a monomial operator builds it here, once."""
        return _monomial_matrix(*self._entries)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def __setattr__(self, name, value):
        raise AttributeError(f"OperatorMatrix is read-only: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"OperatorMatrix is read-only: cannot delete {name!r}")

    def __repr__(self) -> str:
        form = "dense" if self._entries is None else "monomial"
        return f"OperatorMatrix(dims={self.dims}, {form})"


def _adopt_readonly(arr, dtype) -> np.ndarray:
    """`arr` itself if it is a `dtype` ndarray owning its data and read-only, else a read-only copy."""
    adoptable = (
        isinstance(arr, np.ndarray)
        and arr.dtype == dtype
        and arr.flags.owndata
        and not arr.flags.writeable
    )
    if not adoptable:
        arr = np.array(arr, dtype=dtype)
        arr.setflags(write=False)
    return arr


def _monomial_matrix(cols: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The dense read-only matrix with values[q] at (q, cols[q]) and zeros elsewhere."""
    d = len(cols)
    mat = np.zeros((d, d), dtype=complex)
    mat[np.arange(d), cols] = values
    mat.setflags(write=False)
    return mat


def monomial_entries(op: OperatorMatrix | np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The column and the value of each row's nonzero, if the matrix is monomial.

    Monomial means every row and every column holds exactly one nonzero, and
    all of them are finite; any other square matrix gives None.  A monomial
    `OperatorMatrix` answers from its stored pair in O(d) and returns that
    pair, or None if a stored value is zero or non-finite, as the scan of its
    `mat` would; a dense one, or an array, is scanned in O(d^2).
    """
    if isinstance(op, OperatorMatrix):
        if op._entries is not None:
            values = op._entries[1]
            return op._entries if np.all(np.isfinite(values) & (values != 0)) else None
        op = op.mat
    d = op.shape[0]
    nonzero = op != 0
    if np.count_nonzero(nonzero) != d:
        return None
    rows = np.arange(d)
    cols = nonzero.argmax(axis=1)  # first nonzero column of each row
    # d nonzeros, at least one in every row, each column hit once
    if not (nonzero[rows, cols].all() and np.all(np.bincount(cols, minlength=d) == 1)):
        return None
    values = op[rows, cols]
    return (cols, values) if np.all(np.isfinite(values)) else None


@dataclass(frozen=True)
class MultiIndex:
    """1-based per-subsystem digits together with the matching 0-based flat offset."""

    digits: tuple[int, ...]
    flat: int

    @classmethod
    def from_digits(cls, digits: Sequence[int], dims: Sequence[int]) -> "MultiIndex":
        return cls(tuple(digits), flatten(digits, dims))

    @classmethod
    def from_flat(cls, flat: int, dims: Sequence[int]) -> "MultiIndex":
        return cls(unflatten(flat, dims), flat)


def flatten(digits: Sequence[int], dims: Sequence[int]) -> int:
    """Map 1-based per-subsystem digits to the 0-based row-major flat offset.

    Subsystem 1 is the most significant digit.  Raises IndexError naming the
    offending subsystem when a digit falls outside 1..N_k.
    """
    if len(digits) != len(dims):
        raise ValueError(f"got {len(digits)} digits for {len(dims)} subsystems")
    flat = 0
    for k, (j, n) in enumerate(zip(digits, dims), start=1):
        if not 1 <= j <= n:
            raise IndexError(f"subsystem {k}: digit {j} outside 1..{n}")
        flat = flat * n + (j - 1)
    return flat


def unflatten(flat: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Inverse of `flatten`: recover the 1-based digit tuple from a flat offset."""
    total = math.prod(dims)
    if not 0 <= flat < total:
        raise IndexError(f"flat offset {flat} outside 0..{total - 1}")
    digits = []
    for n in reversed(dims):
        digits.append(flat % n + 1)
        flat //= n
    return tuple(reversed(digits))


def conjugate_state(state: PureState) -> PureState:
    """Complex-conjugate every amplitude (an involution; dims unchanged)."""
    return PureState(state.dims, np.conj(state.amps))


def product_state(factors: Sequence[PureState]) -> PureState:
    """Tensor product of single-subsystem states.

    The amplitude at (j_1..j_m) is the product of the factor amplitudes, and
    the dims are concatenated in factor order.
    """
    if len(factors) == 0:
        raise ValueError("product_state needs at least one factor")
    for i, f in enumerate(factors, start=1):
        if f.m != 1:
            raise ValueError(f"factor {i} must be a single-subsystem state, has m={f.m}")
    dims = tuple(f.dims[0] for f in factors)
    return PureState(dims, kron_all([f.amps for f in factors]))


def uniform_input(m: int, N: int) -> PureState:
    """The unnormalized all-ones product state (|1> + ... + |N>)^(x m)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 2:
        raise ValueError("N must be >= 2")
    return PureState((N,) * m, np.ones(N**m, dtype=complex))


def basis_state(dims: Sequence[int], digits: Sequence[int]) -> PureState:
    """The computational basis state |j_1...j_m> (1-based digits)."""
    dims = tuple(dims)
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[flatten(digits, dims)] = 1.0
    return PureState(dims, amps)


def ghz_state(m: int = 3, N: int = 2) -> PureState:
    """Normalized (|1...1> + |N...N>)/sqrt(2)."""
    dims = (N,) * m
    amps = np.zeros(N**m, dtype=complex)
    amps[0] = amps[-1] = 1.0 / math.sqrt(2)
    return PureState(dims, amps)


def w_state(m: int = 3) -> PureState:
    """Normalized equal superposition of the m single-excitation qubit strings."""
    dims = (2,) * m
    amps = np.zeros(2**m, dtype=complex)
    for k in range(m):
        digits = [1] * m
        digits[k] = 2
        amps[flatten(digits, dims)] = 1.0 / math.sqrt(m)
    return PureState(dims, amps)


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a nonempty sequence, leftmost factor most significant."""
    if len(mats) == 0:
        raise ValueError("kron_all needs at least one factor")
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out
