"""Quantum and classical Fisher information and the derived precision bounds.

Routes: a numeric one (finite-difference Fisher information of any state
family), the exact post-selected rotation QFI from the closed-form
derivative of its family, a quadratic weak-coupling one, and closed forms
for special cases. All evolve the pointer through the one weak.Generator
kernel, so they cross-check approximations, not evolution code. Sweeps
share invariants: weak_fisher forms the selection factor 4 |dM_w/dg|^2 once
for all pointer variances, and the exact QFI evolves once for all selection
pairs. Readouts work on the vectors they span: the carrier readout, the
paper's final projective measurement, is the two-outcome CarrierReadout
{|c><c|, 1 - |c><c|}, and the dephased-monitor SLD is solved on the branch
plane, with sld_solve on the full truncated basis as the reference.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    InvalidStateError,
    NoSensitivityError,
    SmallProbabilityWarning,
    StepSizeError,
    finite,
    finite_in,
    finite_positive,
)
from .modes import (
    ModeIndex,
    ModeState,
    OperatorMatrix,
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
    StepSizeError. The two stencils share g +- 2h, so fn runs once at each of
    the six points g + k h, k in {+-1, +-2, +-4}: with the caller's value at
    g, a Fisher routine evaluates its family 7 times.
    """
    h = finite_positive("step", default_step(g) if step is None else step)
    at = functools.cache(lambda k: np.asarray(fn(g + k * h)))

    def derivative(k: int) -> np.ndarray:
        return (at(-2 * k) - 8 * at(-k) + 8 * at(k) - at(2 * k)) / (12.0 * (k * h))

    q_h = reduce(derivative(1))
    q_2h = reduce(derivative(2))
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


def weak_fisher(s: WeakScenario, parameters: Sequence[Parameter],
                variances: Iterable[float],
                check_regime: bool = True) -> list[list[float]]:
    """4 |dM_w/dg|^2 <dOmega^2> per pointer variance (rows) and parameter,
    with each selection factor 4 |dM_w/dg|^2 computed once from the Pauli
    weak values of s, whose pointer plays no part. check_regime=False skips
    the |alpha A_w| guard, so breakdown sweeps can run past its validity.
    """
    if check_regime:
        s.require_weak_regime()
    sxw, syw, szw = pauli_weak_values(s.pre, s.post)
    st, ct = math.sin(s.axis.theta), math.cos(s.axis.theta)
    sp, cp = math.sin(s.axis.phi), math.cos(s.axis.phi)
    dm = {Parameter.ALPHA: sxw * st * cp + syw * st * sp + szw * ct,
          Parameter.THETA: s.alpha * (sxw * ct * cp + syw * ct * sp - szw * st),
          Parameter.PHI: s.alpha * (syw * st * cp - sxw * st * sp)}
    factors = [4.0 * abs(dm[Parameter(g)]) ** 2 for g in parameters]
    return [[f * var for f in factors] for var in variances]


def qfi_weak_approx(s: WeakScenario, parameter: Parameter,
                    check_regime: bool = True) -> float:
    """weak_fisher for one parameter at the pointer variance of s."""
    return weak_fisher(s, (parameter,), (variance(s.operator(), s.pointer),),
                       check_regime)[0][0]


@dataclass(frozen=True)
class CarrierReadout:
    """Projective readout {|c><c|, 1 - |c><c|} on a unit carrier mode c.

    Both outcomes follow from one inner product: p = |<c|psi>|^2 and
    |psi|^2 - p, so no matrix is formed. The elements are positive iff
    |c| = 1 (to 1e-10).
    """

    carrier: ModeState

    def __post_init__(self):
        finite_in("carrier norm squared", self.carrier.norm ** 2,
                  1.0 - 1e-10, 1.0 + 1e-10, InvalidStateError)

    def probabilities(self, state: ModeState) -> np.ndarray:
        """The two outcome probabilities (p, |psi|^2 - p) for state."""
        if state.cutoff != self.carrier.cutoff:
            raise ValueError("readout and state truncations differ")
        psi = state.amplitudes
        p = abs(np.vdot(self.carrier.amplitudes, psi)) ** 2
        return np.array([p, float(np.real(np.vdot(psi, psi))) - p])


def carrier_projection_povm(carrier: ModeState) -> CarrierReadout:
    """The carrier readout on the normalized carrier c: O(cutoff^2) memory,
    no square matrix."""
    return CarrierReadout(carrier.normalize())


def cfi_povm(state_fn: Callable[[float], ModeState], g: float,
             povm: CarrierReadout, step: float | None = None) -> float:
    """Classical Fisher information sum_k (d p_k/dg)^2 / p_k.

    The probabilities are the readout's two outcomes. Outcomes with
    probability below 1e-15 contribute zero and raise a
    SmallProbabilityWarning. Same stencil and disagreement guard as the
    quantum counterpart.
    """
    probs = lambda x: povm.probabilities(state_fn(x))
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
    finite_positive("photon number", n_photons)
    finite("post-selection angle", epsilon)
    # |cot epsilon| neither infinite nor zero: no amplification at cos = 0
    finite_in("|sin| of the post-selection angle", abs(math.sin(epsilon)),
              1e-12, 1.0, ends="(]")
    finite_in("|cos| of the post-selection angle", abs(math.cos(epsilon)),
              1e-12, 1.0, ends="(]")
    cot = abs(math.cos(epsilon) / math.sin(epsilon))
    return 1.0 / (math.sqrt(oam_variance(idx)) * 2.0 * cot * math.sqrt(n_photons))


def hamiltonian_bound(parameter: Parameter, s: WeakScenario,
                      n_samples: float = 1.0) -> BoundResult:
    """Variance bound 1 / (N * 4 |dM_w/dg|^2 <delta Omega^2>).

    Requires the weak regime; estimating theta or phi additionally needs a
    nonzero coupling strength (their signal enters multiplied by alpha).
    """
    finite_positive("sample count", n_samples)
    if parameter is not Parameter.ALPHA:
        finite_positive("alpha of an axis-angle estimate", s.alpha)
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
    """qfi_rotation_exact_selections for one selection pair."""
    return qfi_rotation_exact_selections([(pre, post)], axis, alpha, idx)[0]


def qfi_rotation_exact_selections(pairs: Sequence[tuple], axis: PauliAxis,
                                  alpha: float, idx: ModeIndex) -> list[float]:
    """Exact QFI about alpha of a basis pointer under rotation coupling, one
    value per (pre, post) selection pair.

    The post-selected family phi = a+ exp(-i alpha Lz)|m, n>
    + a- exp(+i alpha Lz)|m, n> (as in final_pointer_exact) has
    d phi/d alpha = -i Lz (a+ exp(-i alpha Lz) - a- exp(+i alpha Lz))|m, n>,
    so F = 4 (<dphi|dphi> / <phi|phi> - |<phi|dphi>|^2 / <phi|phi>^2) needs
    one evolution at +-alpha for all pairs, one Lz application per pair and
    no stencil. Lz keeps the work in the pointer's shell m + n. Raises
    TotalExtinctionError where final_pointer_exact does.
    """
    pointer = ModeState.basis(idx.total, idx.m, idx.n)
    scenarios = [WeakScenario(alpha, pre, post, axis, Coupling.OAM, pointer)
                 for pre, post in pairs]
    lz = Generator(Coupling.OAM, pointer.cutoff)
    fwd, bwd = lz.evolve((alpha, -alpha), pointer)
    out = []
    for s in scenarios:
        plus, minus, norm2 = _post_selected_branches(s, fwd, bwd)
        dphi = -1j * lz.apply(ModeState(pointer.cutoff, plus - minus))
        overlap = np.vdot(plus + minus, dphi)
        out.append(4.0 * (float(np.real(np.vdot(dphi, dphi))) / norm2
                          - abs(overlap) ** 2 / norm2 ** 2))
    return out


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
