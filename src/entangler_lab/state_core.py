"""Multipartite pure states as dense complex amplitude vectors.

Amplitudes are stored flat in row-major order with subsystem 1 as the most
significant digit, so for three qubits the basis order is |111>, |112>,
|121>, ..., |222>.  Basis labels are 1-based (|1>..|N>) in user-facing
notation; flat offsets are 0-based.  States are kept unnormalized unless
`normalize` is called explicitly, since every condition evaluated downstream
is homogeneous in the amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_TOL = 1e-9


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

    def normalize(self) -> "PureState":
        n2 = self.norm2
        if n2 == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return PureState(self.dims, self.amps / math.sqrt(n2))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex square matrix tagged with the subsystem dimensions it acts on."""

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))
        mat = np.array(self.mat, dtype=complex)
        d = math.prod(self.dims)
        if mat.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix for dims {list(self.dims)}, got {mat.shape}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)


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
    amps = factors[0].amps
    for f in factors[1:]:
        amps = np.kron(amps, f.amps)
    dims = tuple(f.dims[0] for f in factors)
    return PureState(dims, amps)


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
