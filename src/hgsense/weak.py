"""Impulsive weak coupling of a qubit to a transverse-mode pointer.

The chain: prepare qubit |i> and pointer |psi_i>, couple them impulsively
with strength alpha through a qubit observable (a Pauli axis) and a pointer
generator (orbital angular momentum for beam rotation, transverse momentum
for displacement), post-select the qubit on |f>, and read the pointer out.

The pointer is evolved exactly: the coupling splits along the +-1
eigenspaces of the Pauli axis, which only needs exp(-+ i alpha Omega) acting
on the pointer. The weak value A_w = <f|A|i> / <f|i> and the weak-regime
guard serve the first-order Fisher formula in fisher.

Omega is applied and exponentiated by one block kernel, Generator: one
tridiagonal Lz block per shell m + n, or one px block along the m axis.
A block depends only on the coupling, the cutoff and its shell (Lz) or
sigma0 (px), so _coupling_eig memoizes each block with its eigh pair under
that key, least recently used out past _EIG_CACHE_SIZE = 128 entries. A
k-row entry holds 32 k^2 + 8 k bytes (block, eigenvectors, eigenvalues),
with k <= cutoff + 1: at most 4.0 MB up to cutoff 30, 68 MB at cutoff 128
(HG(64, 64) in its own shell).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    DegeneratePostSelectionError,
    InvalidStateError,
    NoCarrierError,
    TotalExtinctionError,
    WeakRegimeError,
    finite,
    finite_in,
    finite_positive,
    positive_square,
)
from .modes import (
    ModeIndex,
    ModeState,
    OperatorMatrix,
    basis_dim,
    lz_matrix,
    momentum_matrix_x,
)

ORTHOGONALITY_FLOOR = 1e-12
WEAK_LIMIT = 0.1  # bound on |alpha A_w| for the first-order expansion
_EIG_CACHE_SIZE = 128  # invariant blocks _coupling_eig keeps, least recent out


@dataclass(frozen=True)
class QubitState:
    """Normalized two-level amplitude pair (c0, c1)."""

    c0: complex
    c1: complex

    def __post_init__(self):
        finite_in("qubit norm", math.hypot(abs(self.c0), abs(self.c1)),
                  1.0 - 1e-12, 1.0 + 1e-12)

    @classmethod
    def from_amplitudes(cls, c0: complex, c1: complex) -> "QubitState":
        n = finite_positive("qubit amplitude norm", math.hypot(abs(c0), abs(c1)))
        return cls(c0 / n, c1 / n)

    @classmethod
    def from_angles(cls, theta: float, phi: float) -> "QubitState":
        """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
        return cls(math.cos(theta / 2.0),
                   cmath.exp(1j * phi) * math.sin(theta / 2.0))

    @classmethod
    def plus(cls) -> "QubitState":
        return cls.from_amplitudes(1.0, 1.0)

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)

    @property
    def polar_angle(self) -> float:
        return 2.0 * math.atan2(abs(self.c1), abs(self.c0))


def post_selected_pair(epsilon: float) -> tuple[QubitState, QubitState]:
    """Diagonal input and an analyzer rotated epsilon short of extinction.

    The pair gives weak value A_w = cot(epsilon) for the sigma_z observable.
    """
    finite("post-selection angle", epsilon)
    pre = QubitState.plus()
    post = QubitState.from_amplitudes(
        math.cos(math.pi / 4.0 - epsilon), -math.sin(math.pi / 4.0 - epsilon))
    return pre, post


@dataclass(frozen=True)
class PauliAxis:
    """Qubit observable n . sigma with n = (sin t cos p, sin t sin p, cos t)."""

    theta: float
    phi: float

    def __post_init__(self):
        finite_in("theta", self.theta, 0.0, math.pi)
        finite_in("phi", self.phi, 0.0, 2.0 * math.pi, ends="[)")

    @classmethod
    def z(cls) -> "PauliAxis":
        return cls(0.0, 0.0)

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])

    @property
    def matrix(self) -> np.ndarray:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        ep = cmath.exp(1j * self.phi)
        return np.array([[ct, st / ep], [st * ep, -ct]], dtype=complex)


def _bracket(post: QubitState, mat: np.ndarray, pre: QubitState) -> complex:
    return complex(post.vector.conj() @ (mat @ pre.vector))


def weak_value(pre: QubitState, post: QubitState, axis: PauliAxis) -> complex:
    """<f|A|i> / <f|i> for A = axis observable."""
    denom = complex(np.vdot(post.vector, pre.vector))
    if abs(denom) <= ORTHOGONALITY_FLOOR:
        raise DegeneratePostSelectionError(
            "pre- and post-selection are orthogonal; weak value undefined")
    return _bracket(post, axis.matrix, pre) / denom


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_weak_values(pre: QubitState, post: QubitState) -> tuple[complex, complex, complex]:
    """Weak values of sigma_x, sigma_y, sigma_z for the selection pair."""
    denom = complex(np.vdot(post.vector, pre.vector))
    if abs(denom) <= ORTHOGONALITY_FLOOR:
        raise DegeneratePostSelectionError(
            "pre- and post-selection are orthogonal; weak value undefined")
    return tuple(_bracket(post, s, pre) / denom
                 for s in (_SIGMA_X, _SIGMA_Y, _SIGMA_Z))


class Coupling(Enum):
    """Pointer generator entering the impulse Hamiltonian."""

    OAM = "oam"            # beam rotation, generator Lz
    MOMENTUM_X = "momentum_x"  # beam displacement, generator px


def coupling_matrix(coupling: Coupling, cutoff: int, sigma0: float = 1.0) -> OperatorMatrix:
    if coupling is Coupling.OAM:
        return lz_matrix(cutoff)
    if coupling is Coupling.MOMENTUM_X:
        return momentum_matrix_x(cutoff, sigma0)
    raise ValueError(f"unknown coupling {coupling!r}")


def _tridiagonal(upper: np.ndarray) -> np.ndarray:
    """Hermitian block with i * upper above and -i * upper below the diagonal."""
    return np.diag(1j * upper, 1) + np.diag(-1j * upper, -1)


def _shell_rows(cutoff: int, s: int) -> np.ndarray:
    """j = m over the Lz shell s = m + n inside the truncation, ascending."""
    return np.arange(max(0, s - cutoff), min(s, cutoff) + 1)


@functools.lru_cache(maxsize=_EIG_CACHE_SIZE)
def _coupling_eig(coupling: Coupling, cutoff: int, shell: int | None,
                  sigma0: float | None) -> tuple:
    """One invariant block of a coupling and its eigh pair, (block, w, v),
    all read-only: the Lz block of shell (sigma0 None) or the p block of
    sigma0 (shell None)."""
    if coupling is Coupling.MOMENTUM_X:
        block = _tridiagonal(-np.sqrt(np.arange(1, cutoff + 1)) / (2.0 * sigma0))
    else:
        j = _shell_rows(cutoff, shell)[1:]
        block = _tridiagonal(np.sqrt(j * (shell - j + 1)))
    entry = (block, *np.linalg.eigh(block))
    for a in entry:
        a.flags.writeable = False
    return entry


@dataclass(frozen=True)
class Generator:
    """Pointer generator Omega of a coupling, applied block by block.

    OAM: one tridiagonal block per shell s = m + n, over j = m from
    max(0, s - cutoff) to min(s, cutoff), with <j-1|Lz|j> = i sqrt(j (s-j+1))
    (exactly the truncation of lz_matrix). MOMENTUM_X: px = p (x) 1, one
    (cutoff + 1)-square block along m, <j-1|p|j> = -i sqrt(j) / (2 sigma0).
    Only blocks a state has support on are read, each from _coupling_eig
    and none larger than (cutoff + 1)-square.
    """

    coupling: Coupling
    cutoff: int
    sigma0: float = 1.0

    def __post_init__(self):
        if not isinstance(self.coupling, Coupling):
            raise ValueError(f"unknown coupling {self.coupling!r}")
        finite_in("cutoff", self.cutoff, 0, math.inf, ends="[)")
        positive_square("sigma0", self.sigma0)

    def _grid(self, state: ModeState) -> np.ndarray:
        if state.cutoff != self.cutoff:
            raise ValueError("operator and state truncations differ")
        return state.amplitudes.reshape(self.cutoff + 1, self.cutoff + 1)

    def _blocks(self, x: np.ndarray):
        """Yield ((block, w, v) from _coupling_eig, (rows, cols) in the grid)
        per block x has support on."""
        if self.coupling is Coupling.MOMENTUM_X:
            yield (_coupling_eig(self.coupling, self.cutoff, None, self.sigma0),
                   (slice(None), np.flatnonzero(np.any(x != 0, axis=0))))
            return
        # occupied shells, sorted; np.unique would import numpy.ma on first use
        for s in map(int, np.flatnonzero(np.bincount(np.add(*np.nonzero(x))))):
            j = _shell_rows(self.cutoff, s)
            yield (_coupling_eig(self.coupling, self.cutoff, s, None),
                   (j[:, None], s - j[:, None]))

    def apply(self, state: ModeState) -> np.ndarray:
        """Omega |state> as a flat amplitude vector."""
        x = self._grid(state)
        out = np.zeros_like(x)
        for (block, _, _), (rows, cols) in self._blocks(x):
            out[rows, cols] = block @ x[rows, cols]
        return out.reshape(-1)

    def evolve(self, alphas, state: ModeState) -> np.ndarray:
        """exp(-i alpha Omega) |state> for each alpha, one flat row per alpha."""
        x = self._grid(state)
        alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
        out = np.zeros((len(alphas),) + x.shape, dtype=complex)
        for (_, w, v), (rows, cols) in self._blocks(x):
            phases = np.exp(-1j * np.multiply.outer(alphas, w))[:, :, None]
            out[:, rows, cols] = v @ (phases * (v.conj().T @ x[rows, cols]))
        return out.reshape(len(alphas), -1)


@dataclass(frozen=True)
class WeakScenario:
    """One measurement configuration: coupling, selections, pointer.

    The operations that rely on the first-order expansion require
    |alpha * A_w| < WEAK_LIMIT; the exact evolution ignores it.
    """

    alpha: float
    pre: QubitState
    post: QubitState
    axis: PauliAxis
    coupling: Coupling
    pointer: ModeState
    sigma0: float = 1.0

    def __post_init__(self):
        finite("alpha", self.alpha)
        positive_square("sigma0", self.sigma0)
        # fails fast when the selections are orthogonal
        weak_value(self.pre, self.post, self.axis)

    @property
    def weak_value(self) -> complex:
        return weak_value(self.pre, self.post, self.axis)

    @property
    def coupling_strength(self) -> complex:
        """M_w = alpha * A_w, the small parameter of the expansion."""
        return self.alpha * self.weak_value

    def operator(self) -> Generator:
        return Generator(self.coupling, self.pointer.cutoff, self.sigma0)

    def require_weak_regime(self):
        finite_in("weak-regime |alpha * A_w|", abs(self.coupling_strength),
                  0.0, WEAK_LIMIT, WeakRegimeError, "[)")


def carrier_state(idx: ModeIndex, cutoff: int) -> ModeState:
    """Normalized mode the rotation signal is deposited into.

    [sqrt(m(n+1)) |m-1, n+1> - sqrt((m+1)n) |m+1, n-1>] / sqrt(2mn + m + n);
    Lz |m, n> = i sqrt(2mn + m + n) times this state. Both the pointer and
    its carrier must lie inside the truncation.
    """
    m, n = idx.m, idx.n
    if m == 0 and n == 0:
        raise NoCarrierError("the fundamental mode has no rotation carrier")
    if (m >= 1 and n + 1 > cutoff) or (n >= 1 and m + 1 > cutoff):
        raise ValueError(
            f"cutoff {cutoff} cannot hold the carrier of ({m}, {n})")
    lz_psi = Generator(Coupling.OAM, cutoff).apply(ModeState.basis(cutoff, m, n))
    return ModeState(cutoff, lz_psi / (1j * math.sqrt(2 * m * n + m + n)))


class ExactPointer(NamedTuple):
    pointer: ModeState
    success_prob: float


def _post_selected_branches(s: WeakScenario, fwd: np.ndarray, bwd: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray, float]:
    """The two branches of the exact post-selected pointer and its norm.

    Splits exp(-i alpha A x Omega) along the +-1 projectors of the axis:
    returns a+ fwd and a- bwd (fwd, bwd: the pointer after exp(-+ i alpha
    Omega); a+- = <f|P+-|i>) and the probability |sum|^2 (exact within the
    truncation). Raises TotalExtinctionError when the sum underflows, or
    falls below ORTHOGONALITY_FLOOR^2 times |plus|^2 + |minus|^2, where it
    is round-off of cancelling branches.
    """
    braket = complex(np.vdot(s.post.vector, s.pre.vector))
    bra_a_ket = _bracket(s.post, s.axis.matrix, s.pre)
    amp_plus = 0.5 * (braket + bra_a_ket)
    amp_minus = 0.5 * (braket - bra_a_ket)
    plus, minus = amp_plus * fwd, amp_minus * bwd
    vec = plus + minus
    prob = float(np.real(np.vdot(vec, vec)))
    branches = float(np.real(np.vdot(plus, plus) + np.vdot(minus, minus)))
    if not prob >= max(1e-300, ORTHOGONALITY_FLOOR ** 2 * branches):  # NaN too
        raise TotalExtinctionError(
            "post-selected amplitude underflowed or cancelled to round-off")
    return plus, minus, prob


def final_pointer_exact(s: WeakScenario) -> ExactPointer:
    """Exact post-selected pointer at any coupling strength.

    |psi~> = <f|P+|i> exp(-i alpha Omega)|psi_i>
           + <f|P-|i> exp(+i alpha Omega)|psi_i>.
    Returns the normalized pointer and the post-selection probability
    |psi~|^2 (exact within the truncation).
    """
    plus, minus, prob = _post_selected_branches(
        s, *s.operator().evolve((s.alpha, -s.alpha), s.pointer))
    vec = plus + minus
    return ExactPointer(ModeState(s.pointer.cutoff, vec / math.sqrt(prob)), prob)


def require_density(entries: np.ndarray):
    """Raise InvalidStateError unless a square matrix is a density operator:
    Hermitian to 1e-12, trace 1 to 1e-10, no eigenvalue below -1e-10 (by
    Cholesky of a copy shifted up by 1e-10, cheaper than eigvalsh)."""
    if not np.max(np.abs(entries - entries.conj().T)) <= 1e-12:
        raise InvalidStateError("density matrix not Hermitian")
    finite_in("trace", float(np.real(np.trace(entries))), 1.0 - 1e-10,
              1.0 + 1e-10, InvalidStateError)
    shifted = np.array(entries, dtype=complex)
    shifted.flat[::len(shifted) + 1] += 1e-10
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        raise InvalidStateError("density matrix not positive semidefinite") from None


@dataclass(frozen=True)
class DensityMatrix:
    """Pointer density operator; validated by require_density."""

    cutoff: int
    entries: np.ndarray

    def __post_init__(self):
        ent = np.array(self.entries, dtype=complex)
        dim = basis_dim(self.cutoff)
        if ent.shape != (dim, dim):
            raise InvalidStateError(
                f"expected {dim}x{dim} entries, got {ent.shape}")
        require_density(ent)
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


def monitor_branches(alpha: float,
                     pointer: ModeState) -> tuple[np.ndarray, np.ndarray]:
    """Pointer branches exp(-+ i alpha Lz)|psi_i> tagged by the qubit basis."""
    fwd, bwd = Generator(Coupling.OAM, pointer.cutoff).evolve(
        (alpha, -alpha), pointer)
    return fwd, bwd


def qubit_monitor_channel(qubit: QubitState, alpha: float,
                          pointer: ModeState) -> DensityMatrix:
    """Pointer state after the qubit which-path record is traced out.

    The monitor couples through rotation (Lz). With qubit weights
    cos^2(theta/2), sin^2(theta/2) the pointer dephases into a rank-<=2
    mixture of the two rotated branches.
    """
    fwd, bwd = monitor_branches(alpha, pointer)
    w0, w1 = abs(qubit.c0) ** 2, abs(qubit.c1) ** 2
    rho = w0 * np.outer(fwd, fwd.conj()) + w1 * np.outer(bwd, bwd.conj())
    return DensityMatrix(pointer.cutoff, rho)
