"""Hermite-Gaussian transverse modes as a two-dimensional oscillator.

The transverse pattern of a paraxial beam maps onto harmonic-oscillator
eigenstates: HG(m, n) with intensity-profile standard deviation sigma0 at
the waist is the |m, n> number state. Everything downstream (weak coupling,
Fisher bounds, field synthesis) builds on the ladder algebra defined here.

Basis order is row-major in (m, n): flat index = m * (cutoff + 1) + n.
Raising past the cutoff discards the raised amplitude; matrices are exact
on the interior block m, n <= cutoff - 1.

The dense matrices here (ladder_matrices, lz_matrix, momentum_matrix_x) are
built from one 1-D lowering matrix by Kronecker products. They are not
exported from the package: they are the small-cutoff reference that tests
pin the block kernel weak.Generator against, which does the evolution. HG
amplitudes factor into one-axis hg_factor terms.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Protocol

import numpy as np

from .errors import UnsupportedOrderError

MAX_HERMITE_ORDER = 64


def hermite_eval(order: int, x):
    """Physicists' Hermite polynomial H_order(x) by the three-term recurrence.

    Accepts scalars or arrays. Orders above MAX_HERMITE_ORDER are refused
    rather than silently losing precision.
    """
    if order < 0:
        raise ValueError("polynomial order must be non-negative")
    if order > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(
            f"order {order} above supported bound {MAX_HERMITE_ORDER}")
    arr = np.asarray(x, dtype=float)
    h_prev = np.ones_like(arr)
    if order == 0:
        return float(h_prev) if arr.ndim == 0 else h_prev
    h = 2.0 * arr
    for k in range(1, order):
        h, h_prev = 2.0 * arr * h - 2.0 * k * h_prev, h
    return float(h) if arr.ndim == 0 else h


@dataclass(frozen=True)
class ModeIndex:
    """Transverse mode order pair (m along x, n along y)."""

    m: int
    n: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise ValueError("mode indices must be non-negative")
        if self.m > MAX_HERMITE_ORDER or self.n > MAX_HERMITE_ORDER:
            raise UnsupportedOrderError(
                f"mode ({self.m}, {self.n}) above supported order bound")

    @property
    def total(self) -> int:
        return self.m + self.n


def flat_index(m: int, n: int, cutoff: int) -> int:
    """Position of |m, n> in the flattened basis (row-major in m)."""
    if not (0 <= m <= cutoff and 0 <= n <= cutoff):
        raise ValueError(f"({m}, {n}) outside basis with cutoff {cutoff}")
    return m * (cutoff + 1) + n


def index_to_mode(i: int, cutoff: int) -> tuple[int, int]:
    return divmod(i, cutoff + 1)


def basis_dim(cutoff: int) -> int:
    return (cutoff + 1) ** 2


@dataclass(frozen=True)
class ModeState:
    """Complex amplitudes over the truncated |m, n> basis.

    Amplitudes are stored read-only; normalize() returns a fresh state with
    unit norm (to 1e-12).
    """

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be non-negative")
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.shape != (basis_dim(self.cutoff),):
            raise ValueError(
                f"expected {basis_dim(self.cutoff)} amplitudes, got {amp.shape}")
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def basis(cls, cutoff: int, m: int, n: int) -> "ModeState":
        amp = np.zeros(basis_dim(cutoff), dtype=complex)
        amp[flat_index(m, n, cutoff)] = 1.0
        return cls(cutoff, amp)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "ModeState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize a zero state")
        return ModeState(self.cutoff, self.amplitudes / n)

    def amplitude(self, m: int, n: int) -> complex:
        return complex(self.amplitudes[flat_index(m, n, self.cutoff)])

    def overlap(self, other: "ModeState") -> complex:
        if other.cutoff != self.cutoff:
            raise ValueError("states live in different truncations")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_json(self) -> str:
        return json.dumps({
            "cutoff": self.cutoff,
            "index_order": "m*(cutoff+1)+n",
            "amplitudes": [[z.real, z.imag] for z in self.amplitudes],
        })

    @classmethod
    def from_json(cls, text: str) -> "ModeState":
        data = json.loads(text)
        amp = np.array([complex(re, im) for re, im in data["amplitudes"]])
        return cls(int(data["cutoff"]), amp)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense operator on the truncated basis, same flat-index order."""

    cutoff: int
    entries: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        ent = np.array(self.entries, dtype=complex)
        dim = basis_dim(self.cutoff)
        if ent.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} entries, got {ent.shape}")
        if self.hermitian:
            dev = np.max(np.abs(ent - ent.conj().T))
            if dev > 1e-12:
                raise ValueError(f"matrix not Hermitian (deviation {dev:.3e})")
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    def apply(self, state: ModeState) -> np.ndarray:
        if state.cutoff != self.cutoff:
            raise ValueError("operator and state truncations differ")
        return self.entries @ state.amplitudes


class StateOperator(Protocol):
    """Maps a state to op|state>: OperatorMatrix or weak.Generator."""

    def apply(self, state: ModeState) -> np.ndarray: ...


def expectation(op: StateOperator, state: ModeState) -> complex:
    return complex(np.vdot(state.amplitudes, op.apply(state)))


def second_moment(op: StateOperator, state: ModeState) -> float:
    """<state| op^dagger op |state>; equals <op^2> for Hermitian op."""
    v = op.apply(state)
    return float(np.real(np.vdot(v, v)))


def variance(op: StateOperator, state: ModeState) -> float:
    """<op^dagger op> - |<op>|^2, both moments from one op.apply."""
    v = op.apply(state)
    mu = complex(np.vdot(state.amplitudes, v))
    return float(np.real(np.vdot(v, v))) - abs(mu) ** 2


def hg_factor(order: int, sigma0: float, x):
    """One-axis factor of the waist HG amplitude, unit L2 norm along the axis.

    phi_k(x) = H_k(x / (sqrt2 sigma0)) exp(-x^2 / (4 sigma0^2))
               / sqrt(2^k k! sqrt(2 pi) sigma0)
    """
    if not 0 < sigma0 < math.inf:
        raise ValueError("sigma0 must be finite and positive")
    xs = np.asarray(x, dtype=float)
    norm = math.sqrt(2.0 ** order * math.factorial(order)
                     * math.sqrt(2.0 * math.pi) * sigma0)
    val = (hermite_eval(order, xs / (math.sqrt(2.0) * sigma0))
           * np.exp(-xs ** 2 / (4.0 * sigma0 ** 2)) / norm)
    return float(val) if np.ndim(val) == 0 else val


def hg_wavefunction(idx: ModeIndex, sigma0: float, x, y):
    """Waist-plane HG amplitude, unit L2 norm over the transverse plane.

    psi_mn(x, y) = phi_m(x) phi_n(y) with the hg_factor terms, i.e.
                   H_m(x / (sqrt2 sigma0)) H_n(y / (sqrt2 sigma0))
                   * exp(-(x^2 + y^2) / (4 sigma0^2))
                   / sqrt(2^(m+n+1) pi sigma0^2 m! n!)

    Real-valued; sigma0 is the intensity-profile standard deviation of the
    fundamental mode.
    """
    return hg_factor(idx.m, sigma0, x) * hg_factor(idx.n, sigma0, y)


@dataclass(frozen=True)
class BeamGeometry:
    """Waist size, wavelength and propagation distance of a paraxial beam."""

    sigma0: float
    wavelength: float
    z: float = 0.0

    def __post_init__(self):
        if not (0 < self.sigma0 < math.inf and 0 < self.wavelength < math.inf
                and math.isfinite(self.z)):
            raise ValueError(
                "sigma0 and wavelength must be finite and positive, z finite")
        if self.rayleigh <= 0:  # underflow for a tiny sigma0
            raise ValueError("rayleigh must be positive")

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def rayleigh(self) -> float:
        """Confocal parameter b = 2 k sigma0^2, fixed by the waist."""
        return 2.0 * self.wavenumber * self.sigma0 ** 2


class BeamParams(NamedTuple):
    sigma: float
    gouy: float
    q_inv: complex


def beam_params(geom: BeamGeometry) -> BeamParams:
    """Size, Gouy phase and complex curvature combination at geom.z.

    Returns (sigma(z), chi(z), 1/(2 sigma^2) - i k / q), the last being the
    combination that collapses to k / (b + i z). sigma and the wavefront
    curvature q are computed from their own closed forms so the identity is
    a real check, not a tautology.
    """
    b, z, k = geom.rayleigh, geom.z, geom.wavenumber
    sigma = geom.sigma0 * math.sqrt(1.0 + (z / b) ** 2)
    gouy = math.atan2(z, b)
    inv_q = z / (b ** 2 + z ** 2)  # 1/q, curvature of the wavefront
    q_inv = 1.0 / (2.0 * sigma ** 2) - 1j * k * inv_q
    return BeamParams(sigma, gouy, q_inv)


class LadderOps(NamedTuple):
    ax: OperatorMatrix
    ax_dag: OperatorMatrix
    ay: OperatorMatrix
    ay_dag: OperatorMatrix


def ladder_matrices(cutoff: int) -> LadderOps:
    """Truncated ladder operators for both transverse axes.

    ax = a (x) 1 and ay = 1 (x) a from the one-axis lowering matrix a with
    <k-1|a|k> = sqrt(k), so ax |m, n> = sqrt(m) |m-1, n> and
    ax_dag |m, n> = sqrt(m+1) |m+1, n> while m + 1 <= cutoff; amplitude
    raised out of the basis is discarded.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be non-negative")
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    eye = np.eye(cutoff + 1)
    ax, ay = np.kron(a, eye), np.kron(eye, a)
    return LadderOps(*(OperatorMatrix(cutoff, op)
                       for op in (ax, ax.T, ay, ay.T)))


def lz_matrix(cutoff: int) -> OperatorMatrix:
    """Orbital angular momentum i(ax ay_dag - ax_dag ay) on the truncated basis.

    Hermitian everywhere; the action on boundary modes m = cutoff or
    n = cutoff loses the raised component, so moment checks should stay on
    the interior block.
    """
    ops = ladder_matrices(cutoff)
    lz = 1j * (ops.ax.entries @ ops.ay_dag.entries
               - ops.ax_dag.entries @ ops.ay.entries)
    return OperatorMatrix(cutoff, lz, hermitian=True)


def momentum_matrix_x(cutoff: int, sigma0: float) -> OperatorMatrix:
    """Transverse momentum px = -i (ax - ax_dag) / (2 sigma0)."""
    if not 0 < sigma0 < math.inf:
        raise ValueError("sigma0 must be finite and positive")
    ops = ladder_matrices(cutoff)
    px = -1j * (ops.ax.entries - ops.ax_dag.entries) / (2.0 * sigma0)
    return OperatorMatrix(cutoff, px, hermitian=True)


def oam_variance(idx: ModeIndex) -> float:
    """<delta Lz^2> on |m, n>: 2mn + m + n (mean vanishes)."""
    return float(2 * idx.m * idx.n + idx.m + idx.n)


def momentum_variance_x(idx: ModeIndex, sigma0: float) -> float:
    """<delta px^2> on |m, n>: (2m + 1) / (4 sigma0^2)."""
    if not 0 < sigma0 < math.inf:
        raise ValueError("sigma0 must be finite and positive")
    return (2 * idx.m + 1) / (4.0 * sigma0 ** 2)
