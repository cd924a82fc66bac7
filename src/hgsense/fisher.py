"""Quantum and classical Fisher information and the derived precision bounds.

Routes: a numeric one (finite-difference Fisher information of any state
family), the exact post-selected rotation QFI from the closed-form
derivative of its family, a quadratic weak-coupling one, and closed forms
for special cases. All evolve the pointer on the eigh pairs of weak's block
memo (Generator.evolve, or weak.rotation_family_eigenbasis for the exact
family), so they cross-check approximations, not evolution code. Sweeps over
(pre, post) pairs share invariants: weak_fisher forms a pair's selection
factor 4 |dM_w/dg|^2 once for all pointer variances, and the exact QFI takes
every pointer and pair in one pass on the eigenvectors of each Lz shell,
through a projected form that keeps its digits near extinction. Readouts
work on the vectors they span: the carrier readout, the paper's final
projective measurement, is the two-outcome CarrierReadout {|c><c|, 1 -
|c><c|}, and the dephased-monitor SLD is solved on the branch plane, with
sld_solve on plain matrices of the full truncated basis
(weak.qubit_monitor_channel's density matrix) as the reference.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from collections import namedtuple
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
    integer,
)
from .modes import (
    MAX_HERMITE_ORDER,
    ModeIndex,
    ModeState,
    momentum_variance_x,
    oam_variance,
    second_moment,
)
from .output import format_rows, write_atomic
from .weak import (
    Coupling,
    Generator,
    PauliAxis,
    QubitState,
    WeakScenario,
    check_epsilon,
    monitor_branches,
    pauli_weak_values,
    post_selected_pair,
    require_density,
    rotation_family_eigenbasis,
    selection_amplitudes,
)

PROBABILITY_FLOOR = 1e-15
_STENCIL_RTOL = 0.25
_Orders = namedtuple("_Orders", "m n")  # all the variance closed forms read


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
    g, a Fisher routine evaluates its family 7 times. The QFI and CFI of one
    exact-pointer family at one point share those seven evaluations through
    weak.final_pointer_exact's memo.
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
    factor computed once from the pair's Pauli weak values. The weak-regime
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
    """weak_fisher at the pointer variance dOmega^2 of s, refused unless
    x = |alpha A_w| dOmega is below WEAK_LIMIT: on the bounds breakdown
    family the exact QFI is this value over (1 + x^2)^2 (see weak_fisher),
    about 2% less at the limit."""
    return weak_fisher((s.pre, s.post), s.axis, s.alpha, (parameter,),
                       (s.require_weak_regime(),))[0][0]


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

    weak.rotation_family_eigenbasis gives every family phi and its closed-form
    derivative dphi in one pass (each pair's a+- formed once), so no stencil.
    With c = <phi|dphi> / <phi|phi>, F = 4 |dphi - c phi|^2 / <phi|phi>, the
    projected form (Braunstein and Caves, PRL 72, 3439 (1994)): a sum of
    squares, where 4 (<dphi|dphi> / <phi|phi> - |c|^2) cancels. Against the
    60-digit oracle of tests/test_fisher.py, HG(1, 1) to HG(25, 25) at alpha
    1e-7 to 1e-3, the relative error measured 1.5e-15 for eps >= 1e-3,
    5.5e-15 at 1e-4 and 2.8e-13 at 1e-5 and 1e-6. Raises
    TotalExtinctionError where final_pointer_exact does."""
    finite("alpha", alpha)
    amplitudes = [selection_amplitudes(pre, post, axis) for pre, post in pairs]
    starts, sizes, phi, dphi, norm2, overlap = rotation_family_eigenbasis(
        indices, alpha, amplitudes)
    resid = dphi - np.repeat(overlap / norm2, sizes, axis=1) * phi
    spread = np.add.reduceat((resid * resid.conj()).real, starts, axis=1)
    return (4.0 * (spread / norm2)).T.tolist()


def bound_rows(epsilon: float, photons: float, grid_max: int, sweep_max: int,
               alpha_breakdown: float, breakdown_epsilons: Sequence[float]
               ) -> list[tuple]:
    """The bounds table's rows up to fisher_info: projective, the carrier
    readout's 4 cot^2 eps (2mn + m + n) a photon at epsilon, times photons,
    1 <= m, n <= grid_max; per photon, hamiltonian, weak_fisher per Parameter
    of the symmetric pair with unit success (A_w = 1/2 on the tilted axis) at
    sigma0 = 1/sqrt2 on |o, o> and the Gaussian, 0 <= o <= sweep_max, and
    postselection, the exact and first-order QFI of |o, o>, o >= 1, per
    breakdown angle. Pointers and pairs are refused before anything evolves."""
    for name, limit in (("grid_max", grid_max), ("sweep_max", sweep_max)):
        finite_in(name, integer(name, limit), 0, math.inf, ends="[)")
    cot2 = check_epsilon(epsilon)
    finite_positive("photons", photons)
    breakdown = [post_selected_pair(eps_b) for eps_b in breakdown_epsilons]
    orders = range(1, sweep_max + 1)
    sweep = [ModeIndex(order, order) for order in orders]
    # the grid's limit, checked once: its rows pass plain (m, n) pairs
    ModeIndex(1, min(grid_max, MAX_HERMITE_ORDER + 1))
    exact = qfi_rotation_exact_selections(
        breakdown, PauliAxis.z(), alpha_breakdown, sweep)

    def carrier(k_var: float) -> float:  # the rule, in the CSV's bits
        return 4.0 * cot2 * k_var
    rows = [("projective", "carrier-povm", "oam", epsilon, m, n, "alpha",
             carrier(oam_variance(_Orders(m, n))) * photons)
            for m in range(1, grid_max + 1) for n in range(1, grid_max + 1)]
    diag = QubitState.from_amplitudes(1.0, cmath.exp(1j * math.pi / 4.0))
    sigma0 = 1.0 / math.sqrt(2.0)
    gaussian = momentum_variance_x(_Orders(0, 0), sigma0)
    variances = {}  # <delta Omega^2> of the pointer by (coupling label, order)
    for order in range(0, sweep_max + 1):
        pointer = _Orders(order, order)
        variances["oam", order] = oam_variance(pointer)
        variances["momentum-x", order] = momentum_variance_x(pointer, sigma0)
        variances["gaussian-pointer", order] = gaussian
    fishers = weak_fisher((diag, diag), PauliAxis(math.pi / 4.0, 0.0), 1e-3,
                          tuple(Parameter), variances.values())
    for (label, order), row in zip(variances, fishers):
        rows += [("hamiltonian", "quantum-bound", label, "", order, order,
                  parameter.value, fisher)
                 for parameter, fisher in zip(Parameter, row)]
    for eps_b, pair, by_order in zip(breakdown_epsilons, breakdown,
                                     zip(*exact)):
        approx = weak_fisher(pair, PauliAxis.z(), alpha_breakdown,
                             (Parameter.ALPHA,),
                             [variances["oam", order] for order in orders])
        rows += [("postselection", method, "oam", eps_b, order, order,
                  "alpha", fisher)
                 for order, exact_qfi, (approx_qfi,) in zip(orders, by_order,
                                                            approx)
                 for method, fisher in (("exact", exact_qfi),
                                        ("weak-approx", approx_qfi))]
    return rows


BOUND_CSV_COLUMNS = ("family", "method", "coupling", "epsilon", "m", "n",
                     "parameter", "fisher_info", "variance_bound")


def write_bound_csv(path, rows: Iterable[Sequence]):
    """Emit bound_rows' rows as CSV through output.write_atomic under the
    header BOUND_CSV_COLUMNS: variance_bound(fisher_info, 1.0) appends the
    last cell and output.format_rows writes every cell. Lines end in CRLF:
    csv.writer's bytes for cells with no comma, quote or break."""
    cells = ((*row, variance_bound(row[-1], 1.0)) for row in rows)
    lines = format_rows(cells, ",")
    write_atomic(path, "\r\n".join([",".join(BOUND_CSV_COLUMNS), *lines, ""]))
