"""Quantum and classical Fisher information and the derived precision bounds.

Routes: a numeric one (finite-difference Fisher information of any state
family), the exact post-selected rotation QFI from the closed-form
derivative of its family, a quadratic weak-coupling one, and closed forms
for special cases. All evolve the pointer through weak's one block
exponential, _evolve_block, so they cross-check approximations, not
evolution code. Sweeps over (pre, post) pairs share invariants: weak_fisher
forms a pair's selection factor 4 |dM_w/dg|^2 once for all pointer
variances, and the exact QFI forms each pair's amplitudes once for all
pointers and evolves each pointer once for all pairs on its Lz shell block
(its vdots stay on the full layout, whose bits the bounds CSV holds).
Readouts work on the vectors they span: the carrier
readout, the paper's final projective measurement, is the two-outcome
CarrierReadout {|c><c|, 1 - |c><c|}, and the dephased-monitor SLD is solved
on the branch plane, with sld_solve on plain matrices of the full truncated
basis (weak.qubit_monitor_channel's density matrix) as the reference.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ConfigError,
    InvalidStateError,
    SmallProbabilityWarning,
    StepSizeError,
    finite,
    finite_in,
    finite_positive,
    frozen,
)
from .modes import ModeIndex, ModeState, second_moment, variance
from .output import format_rows, write_atomic
from .weak import (
    Coupling,
    Generator,
    PauliAxis,
    QubitState,
    WeakScenario,
    _coupling_eig,
    _evolve_block,
    _post_selected_branches,
    _selection_amplitudes,
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


def variance_bound(fisher_info: float, n_samples: float) -> float:
    """The Cramer-Rao variance bound 1 / (N F); inf at zero information."""
    return math.inf if fisher_info == 0.0 else 1.0 / (n_samples * fisher_info)


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
        return cls(parameter, fisher_info, n_samples,
                   variance_bound(fisher_info, n_samples))


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
    """Fisher information 4 (<d psi|d psi> - |<psi|d psi>|^2) of a pure-state
    family by the fourth-order stencil on its normalized vector, guarded by
    a doubled-step recomputation against round-off cancellation."""
    vec = lambda x: state_fn(x).amplitudes
    psi = vec(g)

    def qfi(dpsi: np.ndarray) -> float:
        overlap = np.vdot(psi, dpsi)
        return 4.0 * float(np.vdot(dpsi, dpsi).real - abs(overlap) ** 2)

    return _stencil_value(vec, qfi, g, step)


def weak_fisher(pair: tuple[QubitState, QubitState], axis: PauliAxis,
                alpha: float, parameters: Sequence[Parameter],
                variances: Iterable[float]) -> list[list[float]]:
    """4 |dM_w/dg|^2 <dOmega^2> per pointer variance (rows) and parameter,
    M_w = alpha A_w of the (pre, post) pair on axis, with each selection
    factor computed once from the pair's Pauli weak values. The |alpha A_w|
    guard is the caller's, so breakdown sweeps can run past its validity.

    Measured on the bounds breakdown family (|o, o> under rotation), the
    exact QFI is this value times 1 / (1 + x^2)^2, x = alpha |A_w| dOmega
    with dOmega^2 the pointer variance, while alpha dOmega << 1: within
    2e-5 at alpha = 1e-4 and 2e-3 at 1e-3, orders 1-25, eps 0.01-0.1.
    """
    finite("alpha", alpha)
    sxw, syw, szw = pauli_weak_values(*pair)
    st, ct = math.sin(axis.theta), math.cos(axis.theta)
    sp, cp = math.sin(axis.phi), math.cos(axis.phi)
    dm = {Parameter.ALPHA: sxw * st * cp + syw * st * sp + szw * ct,
          Parameter.THETA: alpha * (sxw * ct * cp + syw * ct * sp - szw * st),
          Parameter.PHI: alpha * (syw * st * cp - sxw * st * sp)}
    factors = [4.0 * abs(dm[Parameter(g)]) ** 2 for g in parameters]
    return [[f * var for f in factors] for var in variances]


def qfi_weak_approx(s: WeakScenario, parameter: Parameter) -> float:
    """weak_fisher at the pointer variance of s, inside the |alpha A_w| guard.
    The guard ignores the spread: the exact QFI is this value over
    (1 + x^2)^2, x = |alpha A_w| dOmega (see weak_fisher)."""
    s.require_weak_regime()
    return weak_fisher((s.pre, s.post), s.axis, s.alpha, (parameter,),
                       (variance(s.operator(), s.pointer),))[0][0]


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
            raise ConfigError("readout and state truncations differ")
        psi = state.amplitudes
        p = abs(np.vdot(self.carrier.amplitudes, psi)) ** 2
        return np.array([p, np.vdot(psi, psi).real.item() - p])


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


def hamiltonian_bound(parameter: Parameter, s: WeakScenario,
                      n_samples: float = 1.0) -> BoundResult:
    """Variance bound 1 / (N * 4 |dM_w/dg|^2 <delta Omega^2>) in the weak
    regime; theta or phi also need a nonzero alpha, which multiplies their
    signal."""
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


def sld_solve(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative L with rho L + L rho = 2 drho, read-
    only: the dense reference on the full truncated basis, which
    qfi_mixed_monitor solves on the branch plane. rho must pass
    require_density."""
    rho = np.asarray(rho, dtype=complex)
    require_density(rho)
    d = np.asarray(drho, dtype=complex)
    if d.shape != rho.shape:
        raise InvalidStateError("derivative shape differs from the state")
    if np.max(np.abs(d - d.conj().T)) > 1e-10:
        raise InvalidStateError("derivative matrix not Hermitian")
    return frozen(_sld(rho, d))


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
    """Closed form 1 - delta^2 with delta = Re <psi_+|psi_->, independent of
    the SLD pipeline: it shares only the branch propagation."""
    fwd, bwd = monitor_branches(alpha, pointer)
    delta = np.vdot(fwd, bwd).real.item()
    return 1.0 - delta ** 2


def qfi_mixed_quadratic(alpha: float, pointer: ModeState) -> float:
    """Small-alpha approximation 4 alpha^2 <Lz^2> of the monitor QFI."""
    alpha = float(finite("alpha", alpha))
    op = Generator(Coupling.OAM, pointer.cutoff)
    return finite("4 alpha^2 <Lz^2>",
                  4.0 * alpha * alpha * second_moment(op, pointer))


def qfi_rotation_exact(pre: QubitState, post: QubitState, axis: PauliAxis,
                       alpha: float, idx: ModeIndex) -> float:
    """qfi_rotation_exact_selections for one selection pair and pointer."""
    return qfi_rotation_exact_selections([(pre, post)], axis, alpha,
                                         [idx])[0][0]


def qfi_rotation_exact_selections(pairs: Sequence[tuple], axis: PauliAxis,
                                  alpha: float, indices: Iterable[ModeIndex]
                                  ) -> list[list[float]]:
    """Exact QFI about alpha of basis pointers under rotation coupling, one
    row per pointer index and one value per (pre, post) selection pair.

    The post-selected family phi = a+ exp(-i alpha Lz)|m, n>
    + a- exp(+i alpha Lz)|m, n> (as in final_pointer_exact) has
    d phi/d alpha = -i Lz (a+ exp(-i alpha Lz) - a- exp(+i alpha Lz))|m, n>,
    so F = 4 (<dphi|dphi> / <phi|phi> - |<phi|dphi>|^2 / <phi|phi>^2) needs
    no stencil. Each pair's a+- are formed once; each pointer's column, row
    m of its shell's memo block at cutoff m + n, evolves once at +-alpha
    through weak._evolve_block and Lz applies to each branch difference.
    The vdots run on the full layout: on shell vectors they change bits.
    Raises TotalExtinctionError where final_pointer_exact does."""
    finite("alpha", alpha)
    amplitudes = [_selection_amplitudes(pre, post, axis)
                  for pre, post in pairs]
    alphas, peak = np.array((alpha, -alpha), dtype=float), abs(float(alpha))
    out = []
    for idx in indices:
        shell = idx.total  # the cutoff too: row m of the block is |m, n>
        entry = _coupling_eig(Coupling.OAM, shell, shell, None)
        unit = np.eye(shell + 1, 1, -idx.m, dtype=complex)  # 1 at row m
        branches = np.zeros((2, (shell + 1) ** 2), dtype=complex)
        branches[entry.rows] = _evolve_block(entry, unit, alphas, peak)
        flat = entry.index
        row = []
        for amps in amplitudes:
            plus, minus, phi, norm2 = _post_selected_branches(amps, *branches)
            dphi = np.zeros(phi.shape, dtype=complex)
            dphi[flat] = -1j * (entry.matrix @ (plus - minus)[flat])
            overlap = np.vdot(phi, dphi)
            row.append(float(4.0 * (np.vdot(dphi, dphi).real.item() / norm2
                                    - abs(overlap) ** 2 / norm2 ** 2)))
        out.append(row)
    return out


# fisher_info and variance_bound are at the run's photon budget in projective
# rows and per photon in hamiltonian and postselection rows.
BOUND_CSV_COLUMNS = ("family", "method", "coupling", "epsilon", "m", "n",
                     "parameter", "fisher_info", "variance_bound")


def write_bound_csv(path, rows: Iterable[Sequence]):
    """Emit bound-sweep rows as CSV through output.write_atomic.

    The header is BOUND_CSV_COLUMNS. Each row holds the cells up to
    fisher_info: the row family, the method, the coupling and the
    post-selection angle, then m, n, parameter and fisher_info (projective
    at the run's photon budget, the rest per photon).
    variance_bound(fisher_info, 1.0) appends the last cell, and
    output.format_rows writes every cell. Lines end in CRLF: csv.writer's
    bytes for cells with no comma, quote or break.
    """
    cells = ((*row, variance_bound(row[-1], 1.0)) for row in rows)
    lines = format_rows(cells, ",")
    write_atomic(path, "\r\n".join([",".join(BOUND_CSV_COLUMNS), *lines, ""]))
