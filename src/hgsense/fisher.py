"""Quantum and classical Fisher information and the derived precision bounds.

Routes: a numeric one (finite-difference Fisher information of any state
family), the exact post-selected rotation QFI from the closed-form
derivative of its family, a quadratic weak-coupling one
(4 |dM_w/dg|^2 <delta Omega^2>), and closed forms for special cases. All of
them evolve the pointer through the one weak.Generator kernel, so they check
approximations against each other, not independent evolution code.
Readouts work on the vectors they span: a POVM is a set of rank-1
Projector elements (the carrier readout is two of them), and the
dephased-monitor SLD is solved on the branch plane, with sld_solve on the
full truncated basis as the reference.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import (
    InvalidStateError,
    NoSensitivityError,
    SmallProbabilityWarning,
    StepSizeError,
)
from .modes import (
    ModeIndex,
    ModeState,
    OperatorMatrix,
    expectation,
    oam_variance,
    second_moment,
    variance,
)
from .output import format_cell, write_atomic
from .weak import (
    Coupling,
    DensityMatrix,
    Generator,
    PauliAxis,
    QubitState,
    WeakScenario,
    _post_selected_branches,
    monitor_branches,
    pauli_weak_values,
    require_density,
)

PROBABILITY_FLOOR = 1e-15
_STENCIL_RTOL = 0.25


class Parameter(Enum):
    """Which knob of the impulse coupling is being estimated."""

    ALPHA = "alpha"
    THETA = "theta"
    PHI = "phi"


@dataclass(frozen=True)
class BoundResult:
    """Per-sample Fisher information and the matching variance bound."""

    parameter: Parameter
    fisher_info: float
    n_samples: float
    variance_bound: float

    @classmethod
    def from_fisher(cls, parameter: Parameter, fisher_info: float,
                    n_samples: float) -> "BoundResult":
        bound = math.inf if fisher_info == 0.0 else 1.0 / (n_samples * fisher_info)
        return cls(parameter, fisher_info, n_samples, bound)


def default_step(g: float) -> float:
    return max(1e-6, 1e-4 * abs(g))


def _stencil_value(fn: Callable[[float], np.ndarray],
                   reduce: Callable[[np.ndarray], float], g: float,
                   step: float | None) -> float:
    """reduce(d fn / dg) from the fourth-order central difference at step h.

    fn may return vectors. Recomputing at 2h guards against a step small
    enough to hit round-off cancellation (or too coarse to resolve the
    curvature): values that disagree by more than _STENCIL_RTOL raise
    StepSizeError.
    """
    h = default_step(g) if step is None else step
    if h <= 0:
        raise ValueError("step must be positive")

    def derivative(d: float) -> np.ndarray:
        return (np.asarray(fn(g - 2 * d)) - 8 * np.asarray(fn(g - d))
                + 8 * np.asarray(fn(g + d)) - np.asarray(fn(g + 2 * d))) / (12.0 * d)

    q_h = reduce(derivative(h))
    q_2h = reduce(derivative(2 * h))
    scale = max(abs(q_h), abs(q_2h), 1e-30)
    if abs(q_h - q_2h) > _STENCIL_RTOL * scale:
        raise StepSizeError(
            f"stencil values disagree ({q_h:.6g} vs {q_2h:.6g}); "
            "adjust the differentiation step")
    return q_h


def qfi_pure_numeric(state_fn: Callable[[float], ModeState], g: float,
                     step: float | None = None) -> float:
    """Fisher information of a pure-state family by numeric differentiation.

    Uses a fourth-order stencil on the normalized state vector and evaluates
    4 (<d psi|d psi> - |<psi|d psi>|^2). A doubled-step recomputation guards
    against a step small enough to hit round-off cancellation.
    """
    vec = lambda x: state_fn(x).amplitudes
    psi = vec(g)

    def qfi(dpsi: np.ndarray) -> float:
        overlap = np.vdot(psi, dpsi)
        return 4.0 * float(np.real(np.vdot(dpsi, dpsi)) - abs(overlap) ** 2)

    return _stencil_value(vec, qfi, g, step)


def _parameter_derivative(s: WeakScenario, parameter: Parameter) -> complex:
    """dM_w/dg from the Pauli weak values of the selection pair."""
    sxw, syw, szw = pauli_weak_values(s.pre, s.post)
    t, p = s.axis.theta, s.axis.phi
    st, ct = math.sin(t), math.cos(t)
    sp, cp = math.sin(p), math.cos(p)
    if parameter is Parameter.ALPHA:
        return sxw * st * cp + syw * st * sp + szw * ct
    if parameter is Parameter.THETA:
        return s.alpha * (sxw * ct * cp + syw * ct * sp - szw * st)
    if parameter is Parameter.PHI:
        return s.alpha * (syw * st * cp - sxw * st * sp)
    raise ValueError(f"unknown parameter {parameter!r}")


def qfi_weak_approx(s: WeakScenario, parameter: Parameter,
                    check_regime: bool = True) -> float:
    """Quadratic weak-coupling Fisher information 4 |dM_w/dg|^2 <dOmega^2>.

    check_regime=False skips the |alpha A_w| guard; breakdown sweeps use it
    to draw the naive reference curve past its own validity.
    """
    if check_regime:
        s.require_weak_regime()
    dm = _parameter_derivative(s, parameter)
    return 4.0 * abs(dm) ** 2 * variance(s.operator(), s.pointer)


@dataclass(frozen=True)
class Projector:
    """Rank-one projector |c><c| onto a mode state c, or its complement
    1 - |c><c|, applied as c <c|psi> without forming a matrix."""

    vector: ModeState
    complement: bool = False

    @property
    def cutoff(self) -> int:
        return self.vector.cutoff

    def apply(self, state: ModeState) -> np.ndarray:
        if state.cutoff != self.cutoff:
            raise ValueError("operator and state truncations differ")
        c = self.vector.amplitudes
        along = c * np.vdot(c, state.amplitudes)
        return state.amplitudes - along if self.complement else along


@dataclass(frozen=True)
class PovmSet:
    """Projector elements summing to the identity on the truncated basis.

    Positivity and completeness are checked without a d x d array: |c><c|
    and 1 - |c><c| are positive iff |c| = 1. With one complement the set
    sums to 1 iff S = sum_k s_k |c_k><c_k| = 0 (s = -1 for the complement);
    |S|_F = |R diag(s) R^dagger|_F with R the K x K factor of the QR
    decomposition of [c_1 ... c_K] (R^dagger R is their Gram matrix).
    """

    elements: tuple[Projector, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("POVM needs at least one element")
        if not all(isinstance(el, Projector) for el in self.elements):
            raise ValueError("POVM elements must be Projector instances")
        cutoff = self.elements[0].cutoff
        if any(el.cutoff != cutoff for el in self.elements):
            raise ValueError("POVM elements live in different truncations")
        vectors = np.array([el.vector.amplitudes for el in self.elements]).T
        norms2 = np.sum(np.abs(vectors) ** 2, axis=0)
        if not np.all(np.abs(norms2 - 1.0) <= 1e-10):
            raise InvalidStateError(
                "projector vector not of unit norm: POVM element not positive "
                "semidefinite")
        signs = np.array([-1.0 if el.complement else 1.0
                          for el in self.elements])
        if np.count_nonzero(signs < 0) != 1:
            raise InvalidStateError(
                "a projector POVM needs exactly one complement")
        r = np.linalg.qr(vectors, mode="r")
        if not np.linalg.norm((r * signs) @ r.conj().T) <= 1e-10:
            raise InvalidStateError("POVM elements do not sum to identity")
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def cutoff(self) -> int:
        return self.elements[0].cutoff


def carrier_projection_povm(carrier: ModeState) -> PovmSet:
    """Two-outcome set {|c><c|, 1 - |c><c|} on the normalized carrier c, as
    two Projector elements: O(cutoff^2) memory, no square matrix."""
    c = carrier.normalize()
    return PovmSet((Projector(c), Projector(c, complement=True)))


def cfi_povm(state_fn: Callable[[float], ModeState], g: float, povm: PovmSet,
             step: float | None = None) -> float:
    """Classical Fisher information sum_k (d p_k/dg)^2 / p_k.

    Every probability is modes.expectation(element, state). Outcomes with
    probability below 1e-15 contribute zero and raise a
    SmallProbabilityWarning. Same stencil and disagreement guard as the
    quantum counterpart.
    """

    def probs(x: float) -> np.ndarray:
        state = state_fn(x)
        return np.array([float(np.real(expectation(el, state)))
                         for el in povm.elements])

    p0 = probs(g)

    def fisher_sum(dp: np.ndarray) -> float:
        total = 0.0
        for pk, dpk in zip(p0, dp):
            if pk < PROBABILITY_FLOOR:
                warnings.warn(
                    f"outcome probability {pk:.3g} below floor; contributes 0",
                    SmallProbabilityWarning, stacklevel=4)
                continue
            total += dpk ** 2 / pk
        return total

    return _stencil_value(probs, fisher_sum, g, step)


def min_detectable_rotation(idx: ModeIndex, epsilon: float, n_photons: float) -> float:
    """Unit-SNR rotation 1 / (sqrt(2mn+m+n) * 2 |cot eps| * sqrt(N))."""
    if idx.m == 0 and idx.n == 0:
        raise NoSensitivityError("fundamental mode has no rotation sensitivity")
    if not 0 < n_photons < math.inf:
        raise ValueError(f"photon number must be finite and positive, "
                         f"got {n_photons}")
    if not math.isfinite(epsilon):
        raise ValueError(f"post-selection angle must be finite, got {epsilon}")
    if math.isclose(math.sin(epsilon), 0.0, abs_tol=1e-12):
        raise ValueError("post-selection angle must not be a multiple of pi")
    if math.isclose(math.cos(epsilon), 0.0, abs_tol=1e-12):
        raise ValueError("cot(epsilon) vanishes; no amplification")
    cot = abs(math.cos(epsilon) / math.sin(epsilon))
    return 1.0 / (math.sqrt(oam_variance(idx)) * 2.0 * cot * math.sqrt(n_photons))


def hamiltonian_bound(parameter: Parameter, s: WeakScenario,
                      n_samples: float = 1.0) -> BoundResult:
    """Variance bound 1 / (N * 4 |dM_w/dg|^2 <delta Omega^2>).

    Requires the weak regime; estimating theta or phi additionally needs a
    nonzero coupling strength (their signal enters multiplied by alpha).
    """
    if not 0 < n_samples < math.inf:
        raise ValueError(f"sample count must be finite and positive, "
                         f"got {n_samples}")
    if parameter is not Parameter.ALPHA and s.alpha <= 0:
        raise ValueError("axis-angle estimation needs alpha > 0")
    fisher = qfi_weak_approx(s, parameter)
    return BoundResult.from_fisher(parameter, fisher, n_samples)


def _sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """SLD of raw arrays, solved in the eigenbasis of rho:
    L_jk = 2 <j|drho|k> / (lambda_j + lambda_k), with pairs below 1e-12 set
    to zero (kernel convention)."""
    lam, vec = np.linalg.eigh(rho)
    d_eig = vec.conj().T @ drho @ vec
    pair = lam[:, None] + lam[None, :]
    coeff = np.zeros_like(pair)
    support = pair >= 1e-12
    coeff[support] = 2.0 / pair[support]
    l_mat = vec @ (coeff * d_eig) @ vec.conj().T
    return 0.5 * (l_mat + l_mat.conj().T)  # scrub round-off asymmetry


def sld_solve(rho: DensityMatrix, drho: np.ndarray) -> OperatorMatrix:
    """Symmetric logarithmic derivative L with rho L + L rho = 2 drho.

    The dense reference on the full truncated basis; qfi_mixed_monitor
    solves the same equation on the branch plane.
    """
    d = np.asarray(drho, dtype=complex)
    if d.shape != rho.entries.shape:
        raise InvalidStateError("derivative shape differs from the state")
    if np.max(np.abs(d - d.conj().T)) > 1e-10:
        raise InvalidStateError("derivative matrix not Hermitian")
    return OperatorMatrix(rho.cutoff, _sld(rho.entries, d), hermitian=True)


def qfi_mixed_monitor(qubit: QubitState, alpha: float, pointer: ModeState) -> float:
    """Exact Fisher information about the qubit polar angle after dephasing.

    rho = cos^2(theta/2) P+ + sin^2(theta/2) P- and d rho/d theta =
    |c0||c1| (P- - P+) vanish off the plane of the two branches, so the SLD
    does too. Both are written 2 x 2 in an orthonormal basis Q of the plane
    (the branch coordinates are R = Q^dagger [fwd, bwd] from a QR
    decomposition, well defined also for parallel branches, as at alpha =
    0), where the SLD is solved; returns Tr(rho L^2). The dense reference is
    sld_solve on qubit_monitor_channel.
    """
    fwd, bwd = monitor_branches(alpha, pointer)
    f, b = np.linalg.qr(np.column_stack((fwd, bwd)), mode="r").T
    p_plus, p_minus = np.outer(f, f.conj()), np.outer(b, b.conj())
    rho = abs(qubit.c0) ** 2 * p_plus + abs(qubit.c1) ** 2 * p_minus
    require_density(rho)
    half_sin = abs(qubit.c0) * abs(qubit.c1)  # sin(theta)/2
    sld = _sld(rho, half_sin * (p_minus - p_plus))
    return float(np.real(np.trace(rho @ sld @ sld)))


def qfi_mixed_closed_form(qubit: QubitState, alpha: float,
                          pointer: ModeState) -> float:
    """Closed form 1 - delta^2 with delta = Re <psi_+|psi_->.

    Independent of the SLD pipeline; shares only the branch propagation.
    """
    fwd, bwd = monitor_branches(alpha, pointer)
    delta = float(np.real(np.vdot(fwd, bwd)))
    return 1.0 - delta ** 2


def qfi_mixed_quadratic(alpha: float, pointer: ModeState) -> float:
    """Small-alpha approximation 4 alpha^2 <Lz^2> of the monitor QFI."""
    op = Generator(Coupling.OAM, pointer.cutoff)
    return 4.0 * alpha ** 2 * second_moment(op, pointer)


def qfi_rotation_exact(pre: QubitState, post: QubitState, axis: PauliAxis,
                       alpha: float, idx: ModeIndex) -> float:
    """Exact QFI about alpha for a basis pointer under rotation coupling.

    The post-selected family phi = a+ exp(-i alpha Lz)|m, n>
    + a- exp(+i alpha Lz)|m, n> (unnormalized, as in final_pointer_exact)
    has d phi/d alpha = -i Lz (a+ exp(-i alpha Lz) - a- exp(+i alpha Lz))|m, n>
    in closed form, so F = 4 (<dphi|dphi> / <phi|phi>
    - |<phi|dphi>|^2 / <phi|phi>^2) needs one evolution at +-alpha and one
    Lz application, and no finite differences. Lz conserves m + n, so the
    work stays in the (m + n + 1)-dimensional shell of the pointer and
    scales to high orders. Raises TotalExtinctionError where
    final_pointer_exact does.
    """
    pointer = ModeState.basis(idx.total, idx.m, idx.n)
    s = WeakScenario(alpha, pre, post, axis, Coupling.OAM, pointer)
    plus, minus, norm2 = _post_selected_branches(s)
    phi = plus + minus
    dphi = -1j * s.operator().apply(ModeState(pointer.cutoff, plus - minus))
    overlap = np.vdot(phi, dphi)
    return 4.0 * (float(np.real(np.vdot(dphi, dphi))) / norm2
                  - abs(overlap) ** 2 / norm2 ** 2)


BOUND_CSV_COLUMNS = ("family", "method", "coupling", "epsilon", "m", "n",
                     "parameter", "fisher_info", "variance_bound")


def write_bound_csv(path, rows: Iterable[Mapping]):
    """Emit bound-sweep rows as CSV through output.write_atomic.

    Columns are BOUND_CSV_COLUMNS: the row family, the method, the coupling
    and the post-selection angle, then m, n, parameter, fisher_info and
    variance_bound; a key a row lacks gives an empty cell. Cells use
    output.format_cell, so output is reproducible byte for byte. Lines end
    in CRLF, the csv default.
    """
    buffer = io.StringIO(newline="")
    writer = csv.DictWriter(buffer, fieldnames=BOUND_CSV_COLUMNS)
    writer.writeheader()
    writer.writerows({k: format_cell(row.get(k, "")) for k in BOUND_CSV_COLUMNS}
                     for row in rows)
    write_atomic(path, buffer.getvalue())
