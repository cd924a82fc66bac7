"""Hermite-Gaussian transverse modes as a two-dimensional oscillator.

The transverse pattern of a paraxial beam maps onto harmonic-oscillator
eigenstates: HG(m, n) with intensity-profile standard deviation sigma0 at
the waist is the |m, n> number state. Everything downstream (weak coupling,
Fisher bounds, field synthesis) builds on the ladder algebra defined here.

Basis order is row-major in (m, n): flat index = m * (cutoff + 1) + n, and
divmod(index, cutoff + 1) gives (m, n) back.
Raising past the cutoff discards the raised amplitude; matrices are exact
on the interior block m, n <= cutoff - 1.

The one operator type on this basis is the block kernel weak.Generator,
which second_moment and variance read. The dense matrices here
(ladder_matrices, lz_matrix, momentum_matrix_x) are read-only arrays, not
exported from the package, built from one 1-D lowering matrix by Kronecker
products: the small-cutoff reference that tests pin the kernel against. Nor
is hg_wavefunction, the product of two one-axis hg_factor terms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    UnsupportedOrderError,
    adopted,
    finite,
    finite_in,
    finite_positive,
    frozen,
    integer,
    positive_square,
)

if TYPE_CHECKING:
    from .weak import Generator

MAX_HERMITE_ORDER = 64


def hermite_eval(order: int, x):
    """Physicists' Hermite polynomial H_order(x) by the three-term recurrence.

    Accepts scalars or arrays. Orders above MAX_HERMITE_ORDER are refused
    rather than silently losing precision; so are a bool or non-integer
    order, an x that is not finite (one isfinite pass over x) and an x
    whose H_order overflows.
    """
    integer("polynomial order", order)
    finite_in("polynomial order", order, 0, math.inf, ends="[)")
    if order > MAX_HERMITE_ORDER:
        raise UnsupportedOrderError(
            f"order {order} above supported bound {MAX_HERMITE_ORDER}")
    arr = np.asarray(x, dtype=float)
    finite_x = np.isfinite(arr)
    if not finite_x.all():
        raise ConfigError(f"Hermite polynomial argument "
                          f"{arr[~finite_x].flat[0]} must be finite")
    h_prev = np.ones_like(arr)
    if order == 0:
        return float(h_prev) if arr.ndim == 0 else h_prev
    try:
        with np.errstate(over="raise"):
            h = 2.0 * arr
            for k in range(1, order):
                h, h_prev = 2.0 * arr * h - 2.0 * k * h_prev, h
    except FloatingPointError:
        raise ConfigError(f"H_{order}(x) overflows for |x| up to "
                          f"{np.abs(arr).max()}") from None
    return float(h) if arr.ndim == 0 else h


@dataclass(frozen=True)
class ModeIndex:
    """Transverse mode order pair (m along x, n along y)."""

    m: int
    n: int

    def __post_init__(self):
        integer("mode index", self.m)
        integer("mode index", self.n)
        finite_in("mode index", min(self.m, self.n), 0, math.inf, ends="[)")
        if max(self.m, self.n) > MAX_HERMITE_ORDER:
            raise UnsupportedOrderError(
                f"mode ({self.m}, {self.n}) above supported order bound")

    @property
    def total(self) -> int:
        return self.m + self.n


def flat_index(m: int, n: int, cutoff: int) -> int:
    """Position of |m, n> in the flattened basis (row-major in m)."""
    if not (0 <= m <= cutoff and 0 <= n <= cutoff):
        raise ConfigError(f"({m}, {n}) outside basis with cutoff {cutoff}")
    return m * (cutoff + 1) + n


def basis_dim(cutoff: int) -> int:
    return (cutoff + 1) ** 2


@dataclass(frozen=True)
class ModeState:
    """Complex amplitudes over the truncated |m, n> basis.

    Amplitudes are stored read-only; normalize() returns a fresh state with
    unit norm (to 1e-12). Built through errors.adopted: a caller's vector is
    copied and refused if an amplitude is NaN or infinite; a frozen complex
    vector that owns its data, as modes and weak make, is taken with no pass
    and for good: writing to it again voids shells and the memo of
    weak.final_pointer_exact, which answer for the old amplitudes.
    """

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        finite_in("cutoff", integer("cutoff", self.cutoff), 0, math.inf,
                  ends="[)")
        amp = adopted("amplitude", self.amplitudes, complex)
        if amp.shape != (basis_dim(self.cutoff),):
            raise ConfigError(
                f"expected {basis_dim(self.cutoff)} amplitudes, got {amp.shape}")
        object.__setattr__(self, "amplitudes", amp)

    @classmethod
    def basis(cls, cutoff: int, m: int, n: int) -> "ModeState":
        amp = np.zeros(basis_dim(cutoff), dtype=complex)
        amp[flat_index(m, n, cutoff)] = 1.0
        state = cls(cutoff, frozen(amp))
        state.__dict__["shells"] = frozen(np.array([m + n]))  # its one shell
        return state

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    @functools.cached_property
    def shells(self) -> np.ndarray:
        """Sorted shells m + n with amplitude: found once, read-only."""
        m, n = np.divmod(np.flatnonzero(self.amplitudes), self.cutoff + 1)
        return frozen(np.flatnonzero(np.bincount(m + n)))  # np.unique imports ma

    def normalize(self) -> "ModeState":
        return ModeState(self.cutoff, frozen(
            self.amplitudes / finite_positive("norm", self.norm)))


def second_moment(op: Generator, state: ModeState) -> float:
    """<state| op^dagger op |state>; equals <op^2> for Hermitian op."""
    v = op.apply(state)
    return finite("second moment", float(np.real(np.vdot(v, v))))


def variance(op: Generator, state: ModeState) -> float:
    """<op^dagger op> - |<op>|^2, both moments from one op.apply."""
    v = op.apply(state)
    mu = complex(np.vdot(state.amplitudes, v))
    return finite("variance", float(np.real(np.vdot(v, v))) - abs(mu) ** 2)


def hg_factor(order: int, sigma0: float, x):
    """One-axis factor of the waist HG amplitude, unit L2 norm along the axis.

    phi_k(x) = H_k(x / (sqrt2 sigma0)) exp(-x^2 / (4 sigma0^2))
               / sqrt(2^k k! sqrt(2 pi) sigma0)

    hermite_eval checks the order and x before the factorial is taken; an
    x / (sqrt2 sigma0) that overflows is refused before it.
    """
    positive_square("sigma0", sigma0)
    xs = np.asarray(x, dtype=float)
    try:
        with np.errstate(over="raise"):
            scaled = xs / (math.sqrt(2.0) * sigma0)
    except FloatingPointError:
        raise ConfigError(f"x / (sqrt2 sigma0) overflows for x up to "
                          f"{np.abs(xs).max()} at sigma0 {sigma0}") from None
    hermite = hermite_eval(order, scaled)
    norm = math.sqrt(2.0 ** order * math.factorial(order)
                     * math.sqrt(2.0 * math.pi) * sigma0)
    with np.errstate(over="ignore"):  # far out in the tail: exp(-inf) = 0
        gauss = np.exp(-xs ** 2 / (4.0 * sigma0 ** 2))
    val = hermite * gauss / norm
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


def ladder_matrices(cutoff: int) -> tuple[np.ndarray, ...]:
    """Truncated ladder operators (ax, ax_dag, ay, ay_dag) for both
    transverse axes, as read-only complex matrices.

    ax = a (x) 1 and ay = 1 (x) a from the one-axis lowering matrix a with
    <k-1|a|k> = sqrt(k), so ax |m, n> = sqrt(m) |m-1, n> and
    ax_dag |m, n> = sqrt(m+1) |m+1, n> while m + 1 <= cutoff; amplitude
    raised out of the basis is discarded.
    """
    finite_in("cutoff", integer("cutoff", cutoff), 0, math.inf, ends="[)")
    a = np.diag(np.sqrt(np.arange(1.0, cutoff + 1)), 1)
    eye = np.eye(cutoff + 1)
    ax, ay = np.kron(a, eye), np.kron(eye, a)
    return tuple(frozen(op.astype(complex)) for op in (ax, ax.T, ay, ay.T))


def lz_matrix(cutoff: int) -> np.ndarray:
    """Orbital angular momentum i(ax ay_dag - ax_dag ay) on the truncated basis.

    Hermitian everywhere; the action on boundary modes m = cutoff or
    n = cutoff loses the raised component, so moment checks should stay on
    the interior block.
    """
    ax, ax_dag, ay, ay_dag = ladder_matrices(cutoff)
    return frozen(1j * (ax @ ay_dag - ax_dag @ ay))


def momentum_matrix_x(cutoff: int, sigma0: float) -> np.ndarray:
    """Transverse momentum px = -i (ax - ax_dag) / (2 sigma0)."""
    positive_square("sigma0", sigma0)
    ax, ax_dag, _, _ = ladder_matrices(cutoff)
    return frozen(-1j * (ax - ax_dag) / (2.0 * sigma0))


def oam_variance(idx: ModeIndex) -> float:
    """<delta Lz^2> on |m, n>: 2mn + m + n (mean vanishes)."""
    return float(2 * idx.m * idx.n + idx.m + idx.n)


def oam_fourth_moment(idx: ModeIndex) -> float:
    """<Lz^4> on |m, n>: (3K^2 - 4K + 3(m - n)^2) / 2 with K = 2mn + m + n."""
    k_var = 2 * idx.m * idx.n + idx.m + idx.n
    return (3 * k_var * k_var - 4 * k_var + 3 * (idx.m - idx.n) ** 2) / 2.0


def momentum_variance_x(idx: ModeIndex, sigma0: float) -> float:
    """<delta px^2> on |m, n>: (2m + 1) / (4 sigma0^2), which must be finite."""
    positive_square("sigma0", sigma0)
    return finite("momentum variance", (2 * idx.m + 1) / (4.0 * sigma0 ** 2))
