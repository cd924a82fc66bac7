"""Impulsive weak coupling of a qubit to a transverse-mode pointer.

The chain: prepare qubit |i> and pointer |psi_i>, couple them impulsively
with strength alpha through a qubit observable (a Pauli axis) and a pointer
generator (orbital angular momentum for beam rotation, transverse momentum
for displacement), post-select the qubit on |f>, and read the pointer out.
A selection pair has one reader, _brackets (<f|i> and <f|M|i>, in Python
arithmetic: no BLAS kernel sets their bits): the weak value A_w = <f|A|i> /
<f|i>, the Pauli weak values of fisher.weak_fisher and the branch
amplitudes a+- = <f|P+-|i> are built on it.

Generator applies Omega to a ModeState block by block, at the state's
cutoff: one tridiagonal Lz block per shell m + n, or one px block on m per
column n, each a strided run of the flat amplitudes. Every function of
Omega runs through one block kernel, Generator._spectral, v (c(w) *
v^dagger psi) on each block's eigh pair: c = exp(-i alpha w) in evolve,
sin(alpha w) in monitor_separation, and s cos(alpha w) - i d sin(alpha w)
in final_pointer_exact, with s = a+ + a- and d = a+ - a-, which never sums
the branches a+- exp(-+ i alpha Omega)|psi_i> that cancel near extinction.
Three bounded memos, least recently used out, hold what a call would
otherwise rebuild, read-only:
- _coupling_eig, up to _EIG_CACHE_SIZE = 128 keys of the coupling, the
  cutoff and the shell (Lz) or sigma0 (px), holds one _Block: the block,
  its eigh pair, v.conj().T and the extreme |w| for the overflow guard.
  apply reads the block, the kernel the rest, and
  rotation_family_eigenbasis w and v^dagger, both behind _check_phase. A
  k-row key holds 48 k^2 + 8 k bytes, k <= cutoff + 1: at most 5.9 MB up
  to cutoff 30, 102 MB at cutoff 128 (HG(64, 64) in its own shell).
- _selection_memo, up to _SELECTION_CACHE_SIZE = 128 keys of the bits of a
  selection pair's two vectors and axis matrix (a -0.0 is its own key),
  holds the amplitudes <f|P+-|i>: about 0.45 KB a key with Python's object
  headers.
- _pointer_memo, up to _POINTER_CACHE_SIZE = 16 keys of the bits of alpha,
  a+- and sigma0, the coupling and the pointer itself (by identity, so the
  key keeps it alive; it fixes the cutoff), holds final_pointer_exact's
  ExactPointer, so a Fisher stencil's seven points run the kernel once for
  the QFI and the CFI of one family. An entry holds 16 (cutoff + 1)^2 bytes
  of amplitudes: 15.4 KB at cutoff 30 and 266 KB at cutoff 128, so at most
  246 KB and 4.3 MB when full, besides the pointers its keys keep alive.
What a frozen input fixes is built once and kept, read-only: a QubitState's
vector (32 bytes), a PauliAxis's matrix (64 bytes), a ModeState's occupied
Lz shells (8 bytes each) and a WeakScenario's selection amplitudes. The
dense references coupling_matrix and qubit_monitor_channel return arrays.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DegeneratePostSelectionError,
    InvalidStateError,
    NoCarrierError,
    TotalExtinctionError,
    WeakRegimeError,
    finite,
    finite_in,
    finite_positive,
    frozen,
    positive_square,
)
from .modes import (
    ModeIndex,
    ModeState,
    lz_matrix,
    momentum_matrix_x,
    oam_variance,
    variance,
)

ORTHOGONALITY_FLOOR = 1e-12
WEAK_LIMIT = 0.1  # bound on x = |alpha A_w| dOmega of the first order
_EIG_CACHE_SIZE = 128  # entries the block memo keeps, least recent out
_SELECTION_CACHE_SIZE = 128  # selection triples the amplitude memo keeps
_POINTER_CACHE_SIZE = 16  # exact pointers the pointer memo keeps, >= 7


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

    @functools.cached_property
    def vector(self) -> np.ndarray:
        return frozen(np.array([self.c0, self.c1], dtype=complex))

    @property
    def polar_angle(self) -> float:
        return 2.0 * math.atan2(abs(self.c1), abs(self.c0))


def check_epsilon(epsilon: float, name: str = "post-selection angle") -> float:
    """cot(epsilon)^2, or ConfigError naming name unless epsilon lies in
    (0, pi/2) with a finite cot^2 (an angle under ~1e-154 rad has none)."""
    finite_in(name, epsilon, 0.0, math.pi / 2, ends="()")
    tan2 = math.tan(epsilon) ** 2
    return finite(f"cot^2 of the {name} {epsilon}:",
                  1.0 / tan2 if tan2 else math.inf)


def post_selected_pair(epsilon: float) -> tuple[QubitState, QubitState]:
    """Diagonal input and an analyzer rotated epsilon short of extinction:
    the pair gives weak value A_w = cot(epsilon) for sigma_z."""
    check_epsilon(epsilon)
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

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        ct, st = math.cos(self.theta), math.sin(self.theta)
        ep = cmath.exp(1j * self.phi)
        return frozen(np.array([[ct, st / ep], [st * ep, -ct]], complex))


def _brackets(pre: np.ndarray, post: np.ndarray,
              *mats: np.ndarray) -> tuple[complex, ...]:
    """(<f|i>, <f|M|i> for each M) of the selection vectors pre |i> and
    post |f>, refused where they are orthogonal: the one reader of a
    selection pair."""
    (f0, f1), (i0, i1) = post.conj().tolist(), pre.tolist()
    overlap = f0 * i0 + f1 * i1
    if abs(overlap) <= ORTHOGONALITY_FLOOR:
        raise DegeneratePostSelectionError(
            "pre- and post-selection are orthogonal; weak value undefined")
    return (overlap, *(f0 * (a * i0 + b * i1) + f1 * (c * i0 + d * i1)
                       for (a, b), (c, d) in map(np.ndarray.tolist, mats)))


def weak_value(pre: QubitState, post: QubitState, axis: PauliAxis) -> complex:
    """<f|A|i> / <f|i> for A = axis observable."""
    overlap, bra_a_ket = _brackets(pre.vector, post.vector, axis.matrix)
    return bra_a_ket / overlap


_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def pauli_weak_values(pre: QubitState, post: QubitState) -> tuple[complex, complex, complex]:
    """Weak values of sigma_x, sigma_y, sigma_z for the selection pair."""
    overlap, *brackets = _brackets(pre.vector, post.vector, _SIGMA_X,
                                   _SIGMA_Y, _SIGMA_Z)
    return tuple(b / overlap for b in brackets)


class Coupling(Enum):
    """Pointer generator entering the impulse Hamiltonian."""

    OAM = "oam"            # beam rotation, generator Lz
    MOMENTUM_X = "momentum_x"  # beam displacement, generator px


def coupling_matrix(coupling: Coupling, cutoff: int, sigma0: float = 1.0) -> np.ndarray:
    if coupling is Coupling.OAM:
        return lz_matrix(cutoff)
    if coupling is Coupling.MOMENTUM_X:
        return momentum_matrix_x(cutoff, sigma0)
    raise ConfigError(f"unknown coupling {coupling!r}")


def _tridiagonal(upper: np.ndarray) -> np.ndarray:
    """Hermitian block with i * upper above and -i * upper below the diagonal."""
    return np.diag(1j * upper, 1) + np.diag(-1j * upper, -1)


class _Block(NamedTuple):
    """One invariant block of a coupling with what each evolution reads, all
    read-only: its eigh pair (w ascending), vh = v.conj().T (an F-ordered
    view) and the extreme |w| for the overflow guard."""

    matrix: np.ndarray
    w: np.ndarray
    v: np.ndarray
    vh: np.ndarray
    w_peak: float


@functools.lru_cache(maxsize=_EIG_CACHE_SIZE)
def _coupling_eig(coupling: Coupling, cutoff: int, shell: int | None,
                  sigma0: float | None) -> _Block:
    """The _Block of one invariant block of a coupling: the Lz block of
    shell (sigma0 None) or the p block of sigma0."""
    if coupling is Coupling.MOMENTUM_X:
        block = _tridiagonal(-np.sqrt(np.arange(1, cutoff + 1))
                             / (2.0 * sigma0))
    else:  # <m-1|Lz|m> = i sqrt(m (shell - m + 1)), m over the shell
        m = np.arange(max(0, shell - cutoff), min(shell, cutoff) + 1)
        block = _tridiagonal(np.sqrt(m[1:] * (shell - m[:-1])))
    w, v = map(frozen, np.linalg.eigh(frozen(block)))
    return _Block(block, w, v, frozen(v.conj().T), max(-w[0], w[-1]).item())


@dataclass(frozen=True)
class Generator:
    """Pointer generator Omega of a coupling, applied block by block at the
    cutoff c of the state it acts on.

    OAM: one tridiagonal block per shell s = m + n, over j = m from
    max(0, s - c) to min(s, c), with <j-1|Lz|j> = i sqrt(j (s-j+1))
    (exactly the truncation of lz_matrix). MOMENTUM_X: px = p (x) 1, one
    (c + 1)-square block along m, <j-1|p|j> = -i sqrt(j) / (2 sigma0), read
    once per column n. Only the blocks a state has support on are read,
    each from the memo and each as a strided run of the flat amplitudes,
    and none is larger than (c + 1)-square. ConfigError refuses a state
    that is not a ModeState."""

    coupling: Coupling
    sigma0: float = field(default=1.0, kw_only=True)

    def __post_init__(self):
        if not isinstance(self.coupling, Coupling):
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        positive_square("sigma0", self.sigma0)

    def _blocks(self, state: ModeState):
        """An iterator of (memo entry, rows) per block the ModeState state
        has support on, rows the basic slice of that block in its flat
        amplitudes: its Lz shells s, at m c + s, or the columns n of its p
        block, at m (c + 1) + n."""
        if not isinstance(state, ModeState):
            raise ConfigError(f"generator takes a ModeState, not a "
                              f"{type(state).__name__}")
        c = state.cutoff
        if self.coupling is Coupling.MOMENTUM_X:
            entry = _coupling_eig(self.coupling, c, None, self.sigma0)
            grid = state.amplitudes.reshape(c + 1, c + 1)
            return ((entry, slice(n, None, c + 1)) for n in
                    np.flatnonzero(np.any(grid != 0, axis=0)).tolist())
        return ((_coupling_eig(self.coupling, c, s, None),
                 slice(max(0, s - c) * c + s, min(s, c) * c + s + 1,
                       max(c, 1))) for s in state.shells.tolist())

    def apply(self, state: ModeState) -> np.ndarray:
        """Omega |state> as a flat amplitude vector."""
        blocks, x = self._blocks(state), state.amplitudes
        out = np.zeros(x.shape, dtype=complex)
        for entry, rows in blocks:
            out[rows, None] = entry.matrix @ x[rows, None].copy()
        return out

    def evolve(self, alphas, state: ModeState) -> np.ndarray:
        """exp(-i alpha Omega) |state> for each alpha (a scalar or 1-D), one
        flat row per alpha; ConfigError where a phase alpha w overflows."""
        alphas = np.array(alphas, dtype=float, ndmin=1)
        if alphas.ndim != 1:
            raise ConfigError(f"alphas shape {alphas.shape} is not 0-D or 1-D")
        peak = abs(alphas).max(initial=0.0).item()  # NaN propagates
        return self._spectral(state, peak, len(alphas), lambda w: np.exp(
            -1j * np.multiply.outer(alphas, w))[:, :, None])

    def _spectral(self, state: ModeState, peak: float, rows: int,
                  coef) -> np.ndarray:
        """The block kernel: v (coef(w) * v^dagger x) per block x the state
        has support on, from the memo's eigh pair, one flat row per row of
        coef(w) (shape (rows, k, 1)), behind _check_phase of peak |alpha|."""
        blocks, x = self._blocks(state), state.amplitudes
        out = np.zeros((rows, x.size), dtype=complex)
        for entry, run in blocks:
            _check_phase(entry, peak)
            out[:, run, None] = entry.v @ (
                coef(entry.w) * (entry.vh @ x[run, None].copy()))
        return out


def _check_phase(entry: _Block, peak: float):
    """ConfigError where peak |alpha| times an eigenvalue of a memo entry
    overflows: the sorted w's two ends bound every phase."""
    if not math.isfinite(peak * entry.w_peak):
        raise ConfigError(f"alpha {peak} times a generator eigenvalue "
                          f"in [{entry.w[0]}, {entry.w[-1]}] is not finite")


@dataclass(frozen=True)
class WeakScenario:
    """One measurement configuration: coupling, selections, pointer. What
    relies on the first-order expansion requires x = |alpha A_w| dOmega <
    WEAK_LIMIT; the exact evolution ignores it. The constructor forms the
    selection amplitudes (<f|P+|i>, <f|P-|i>) once, refusing orthogonal
    selections."""

    alpha: float
    pre: QubitState
    post: QubitState
    axis: PauliAxis
    coupling: Coupling
    pointer: ModeState
    sigma0: float = 1.0
    selection: tuple[complex, complex] = field(init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        finite("alpha", self.alpha)
        positive_square("sigma0", self.sigma0)
        object.__setattr__(self, "selection", selection_amplitudes(
            self.pre, self.post, self.axis))

    @property
    def coupling_strength(self) -> complex:
        """M_w = alpha * A_w; times the pointer spread, the expansion's x."""
        return self.alpha * weak_value(self.pre, self.post, self.axis)

    def operator(self) -> Generator:
        return Generator(self.coupling, sigma0=self.sigma0)

    def require_weak_regime(self) -> float:
        """The pointer variance dOmega^2 of the generator, once
        check_weak_regime passes M_w on its spread dOmega."""
        # an Lz eigenstate's variance can round below 0: its spread is 0
        var = max(variance(self.operator(), self.pointer), 0.0)
        check_weak_regime(self.coupling_strength, math.sqrt(var))
        return var


def check_weak_regime(coupling_strength: complex, spread: float) -> float:
    """x = |alpha A_w| dOmega of M_w on a pointer of spread dOmega, or
    WeakRegimeError unless x is below WEAK_LIMIT: the first-order expansion
    of exp(-i alpha A Omega) needs x << 1 (Duck, Stevenson and Sudarshan,
    PRD 40, 2112 (1989)), not |alpha A_w| << 1."""
    strength = abs(coupling_strength)
    return finite_in(f"weak-regime x = |alpha * A_w| {strength!r} * dOmega "
                     f"{spread!r} =", strength * spread, 0.0, WEAK_LIMIT,
                     WeakRegimeError, "[)")


def carrier_state(idx: ModeIndex, cutoff: int) -> ModeState:
    """Normalized mode the rotation signal is deposited into.

    [sqrt(m(n+1)) |m-1, n+1> - sqrt((m+1)n) |m+1, n-1>] / sqrt(2mn + m + n);
    Lz |m, n> = i sqrt(2mn + m + n) times this state. Both the pointer and
    its carrier must lie inside the truncation."""
    m, n = idx.m, idx.n
    if m == 0 and n == 0:
        raise NoCarrierError("the fundamental mode has no rotation carrier")
    if (m >= 1 and n + 1 > cutoff) or (n >= 1 and m + 1 > cutoff):
        raise ConfigError(
            f"cutoff {cutoff} cannot hold the carrier of ({m}, {n})")
    lz_psi = Generator(Coupling.OAM).apply(ModeState.basis(cutoff, m, n))
    return ModeState(cutoff,
                     frozen(lz_psi / (1j * math.sqrt(oam_variance(idx)))))


class ExactPointer(NamedTuple):
    pointer: ModeState
    success_prob: float


def selection_amplitudes(pre: QubitState, post: QubitState,
                          axis: PauliAxis) -> tuple[complex, complex]:
    """a+- = <f|P+-|i> = (<f|i> +- <f|A|i>) / 2 over the +-1 projectors of
    the axis, refused where the selections are orthogonal: read from a memo
    keyed on the bits of the two vectors and the axis matrix, so a -0.0 in
    either is its own key."""
    return _selection_memo(pre.vector.tobytes(), post.vector.tobytes(),
                           axis.matrix.tobytes())


@functools.lru_cache(maxsize=_SELECTION_CACHE_SIZE)
def _selection_memo(pre: bytes, post: bytes,
                    axis: bytes) -> tuple[complex, complex]:
    braket, bra_a_ket = _brackets(
        np.frombuffer(pre, dtype=complex), np.frombuffer(post, dtype=complex),
        np.frombuffer(axis, dtype=complex).reshape(2, 2))
    return 0.5 * (braket + bra_a_ket), 0.5 * (braket - bra_a_ket)


def _check_light(prob: float, branches: float):
    """TotalExtinctionError unless a post-selected |phi|^2 (prob) is at least
    1e-300 (underflow) and ORTHOGONALITY_FLOOR^2 times the |plus|^2 +
    |minus|^2 of its branches (round-off of cancelling branches), a NaN
    failing too: the extinction guard of every exact post-selected family."""
    if not prob >= max(1e-300, ORTHOGONALITY_FLOOR ** 2 * branches):
        raise TotalExtinctionError(
            "post-selected amplitude underflowed or cancelled to round-off")


class _Same:
    """A memo key that matches one object by identity and holds it, so its
    id is not reused while the key is kept."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return self.obj is other.obj


def final_pointer_exact(s: WeakScenario) -> ExactPointer:
    """Exact post-selected pointer at any coupling strength, |psi~> =
    (a+ exp(-i alpha Omega) + a- exp(+i alpha Omega))|psi_i>: the normalized
    pointer and the post-selection probability |psi~|^2 (exact within the
    truncation). Read from a memo keyed on the bits of alpha, a+- and sigma0
    (a -0.0 is its own key), the coupling and the pointer object; what
    raises is not kept."""
    plus, minus = s.selection
    return _pointer_memo(
        struct.pack("<6d", s.alpha, plus.real, plus.imag, minus.real,
                    minus.imag, s.sigma0), s.coupling, _Same(s.pointer))


@functools.lru_cache(maxsize=_POINTER_CACHE_SIZE)
def _pointer_memo(bits: bytes, coupling: Coupling,
                  pointer: _Same) -> ExactPointer:
    """final_pointer_exact in one pass of the block kernel, refused by
    _check_light against the branches' (|a+|^2 + |a-|^2) |psi_i|^2."""
    alpha, *parts, sigma0 = struct.unpack("<6d", bits)
    pointer, x = pointer.obj, pointer.obj.amplitudes
    plus, minus = complex(*parts[:2]), complex(*parts[2:])
    s, d = plus + minus, -1j * (plus - minus)
    (vec,) = Generator(coupling, sigma0=sigma0)._spectral(
        pointer, abs(alpha), 1, lambda w: (
            s * np.cos(alpha * w) + d * np.sin(alpha * w))[None, :, None])
    prob = np.vdot(vec, vec).real.item()
    _check_light(prob, (abs(plus) ** 2 + abs(minus) ** 2)
                 * np.vdot(x, x).real.item())
    return ExactPointer(
        ModeState(pointer.cutoff, frozen(vec / math.sqrt(prob))), prob)


def rotation_family_eigenbasis(indices: Iterable[ModeIndex], alpha: float,
                               selections: Sequence[tuple]) -> tuple:
    """final_pointer_exact's family phi before it normalizes, and dphi = d
    phi/d alpha, of each basis pointer |m, n> (at cutoff m + n) and
    selection a+-, on the memo's eigenpairs (w_j, v_j) of the pointer's
    shell: with u_j = <v_j|m, n>, phi_j = u_j (s cos alpha w_j - i d sin
    alpha w_j) (s = a+ + a-, exact where a- ~ -a+ by Sterbenz's lemma) and
    dphi_j = -u_j w_j (s sin alpha w_j + i d cos alpha w_j). Returns
    (starts, sizes, phi, dphi, norm2, overlap): the pointers' components
    back to back, phi and dphi one row per selection, and <phi|phi> and
    <phi|dphi> as segment sums per selection (rows) and pointer. Refused
    where evolve and final_pointer_exact refuse."""
    peak, w, u, starts, sizes, total = abs(float(alpha)), [], [], [], [], 0
    for idx in indices:
        entry = _coupling_eig(Coupling.OAM, idx.total, idx.total, None)
        _check_phase(entry, peak)
        w.append(entry.w)
        u.append(entry.vh[:, idx.m])
        starts.append(total)
        sizes.append(len(entry.w))
        total += sizes[-1]
    w = np.concatenate(w or [np.empty(0)])
    # u cos, u sin, u w cos and u w sin, from real parts set in place
    basis = np.zeros((4, total), dtype=complex)
    parts, theta = basis.real, alpha * w
    np.cos(theta, out=parts[0])
    np.sin(theta, out=parts[1])
    np.multiply(parts[:2], w, out=parts[2:])
    basis = (basis * np.concatenate(u or [np.empty(0)])).reshape(2, 2, total)
    coef = []
    for plus, minus in selections:  # phi on basis[0], dphi on basis[1]
        s, d = plus + minus, plus - minus
        coef += (s, -1j * d, -1j * d, -s)
    coef = np.array(coef, dtype=complex).reshape(-1, 2, 2, 1)
    family = coef[:, :, 0] * basis[:, 0] + coef[:, :, 1] * basis[:, 1]
    starts, sizes = np.array([starts, sizes], dtype=np.intp)
    sums = np.add.reduceat(family[:, :1].conj() * family, starts, axis=2)
    norm2 = sums[:, 0].real
    for low, (plus, minus) in zip(norm2.min(axis=1, initial=np.inf).tolist(),
                                  selections):
        _check_light(low, abs(plus) ** 2 + abs(minus) ** 2)
    return starts, sizes, family[:, 0], family[:, 1], norm2, sums[:, 1]


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


def monitor_branches(alpha: float,
                     pointer: ModeState) -> tuple[np.ndarray, np.ndarray]:
    """Pointer branches exp(-+ i alpha Lz)|psi_i> tagged by the qubit basis."""
    return tuple(Generator(Coupling.OAM).evolve(
        (alpha, -alpha), pointer))


def monitor_separation(alpha: float, pointer: ModeState) -> float:
    """|psi+ - psi-|^2 / 2 = 2 |sin(alpha Lz) psi_i|^2 of the branches psi+-
    = exp(-+ i alpha Lz)|psi_i>: 1 - Re <psi+|psi-> of a unit pointer."""
    (half,) = Generator(Coupling.OAM)._spectral(
        pointer, abs(alpha), 1, lambda w: np.sin(alpha * w)[None, :, None])
    return 2.0 * np.vdot(half, half).real.item()


def qubit_monitor_channel(qubit: QubitState, alpha: float,
                          pointer: ModeState) -> np.ndarray:
    """Read-only pointer density matrix once the qubit record is traced out:
    the monitor couples through rotation (Lz), and with qubit weights
    cos^2(theta/2), sin^2(theta/2) the pointer dephases into a rank-<=2
    mixture of the two rotated branches."""
    fwd, bwd = monitor_branches(alpha, pointer)
    w0, w1 = abs(qubit.c0) ** 2, abs(qubit.c1) ** 2
    rho = w0 * np.outer(fwd, fwd.conj()) + w1 * np.outer(bwd, bwd.conj())
    require_density(rho)
    return frozen(rho)
