"""Cross-route checks for the Fisher-information layer.

Everything that matters is computed at least twice: finite differences
against closed forms, classical readouts against the quantum ceiling, the
SLD pipeline against the rank-2 closed form. Pointer evolution reads one
memo of eigh pairs, through weak._evolve_block behind Generator.evolve and
through weak.rotation_family_eigenbasis (the exact QFI's family), pinned
against the dense matrices in test_weak and here against a Wigner small-d
(Jacobi polynomial) oracle, which also gives the exact rotation QFI in
closed form, in float and at 60 digits in mpmath, and against the
displacement (Laguerre polynomial) oracle of the momentum coupling. Dense
POVMs are computed on the test side, in reference.dense_cfi.
"""

import cmath
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hgsense import fisher, weak
from hgsense.errors import (
    ConfigError,
    DegeneratePostSelectionError,
    InvalidStateError,
    NoSensitivityError,
    SmallProbabilityWarning,
    StepSizeError,
    TotalExtinctionError,
    UnsupportedOrderError,
    WeakRegimeError,
)
from hgsense.cli import build_parser
from hgsense.experiment import PhotonBudget, min_detectable_rotation
from hgsense.fisher import (
    BOUND_CSV_COLUMNS,
    BoundResult,
    CarrierReadout,
    Parameter,
    bound_rows,
    carrier_projection_povm,
    cfi_povm,
    default_step,
    hamiltonian_bound,
    qfi_mixed_closed_form,
    qfi_mixed_monitor,
    qfi_mixed_quadratic,
    qfi_pure_numeric,
    qfi_rotation_exact,
    qfi_rotation_exact_selections,
    qfi_weak_approx,
    sld_solve,
    weak_fisher,
    write_bound_csv,
)
from hgsense.modes import (
    ModeIndex,
    ModeState,
    basis_dim,
    flat_index,
    lz_matrix,
    oam_variance,
    variance,
)
from hgsense.weak import (
    Coupling,
    Generator,
    PauliAxis,
    QubitState,
    WeakScenario,
    carrier_state,
    check_epsilon,
    final_pointer_exact,
    monitor_branches,
    post_selected_pair,
    qubit_monitor_channel,
)
from make_hologram_golden import BOUNDS_GOLDEN_ARGV
from reference import (
    dense_cfi,
    dense_variance,
    qfi_rotation_exact_selections_per_order,
    stencil_value_nine_calls,
)

DIAG = QubitState.from_amplitudes(1.0, complex(np.exp(1j * math.pi / 4)))
TILTED = PauliAxis(math.pi / 4, 0.0)


def rotation_family(epsilon: float, idx: ModeIndex):
    """alpha -> exact post-selected pointer for the standard rotation setup."""
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(idx.total, idx.m, idx.n)

    def fam(a: float) -> ModeState:
        s = WeakScenario(a, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
        return final_pointer_exact(s).pointer

    return fam


def test_numeric_qfi_matches_generator_variance():
    # unitary phase family: QFI must equal 4 var(generator) on the seed state
    cutoff = 4
    lz = lz_matrix(cutoff)
    w, v = np.linalg.eigh(lz)
    amp = np.zeros(basis_dim(cutoff), dtype=complex)
    amp[flat_index(1, 0, cutoff)] = 1.0
    amp[flat_index(2, 1, cutoff)] = 0.7j
    amp[flat_index(0, 3, cutoff)] = -0.4
    amp /= np.linalg.norm(amp)
    seed = ModeState(cutoff, amp)

    def family(g: float) -> ModeState:
        vec = v @ (np.exp(-1j * g * w) * (v.conj().T @ amp))
        return ModeState(cutoff, vec)

    assert qfi_pure_numeric(family, 0.123) == pytest.approx(
        4.0 * dense_variance(lz, seed), rel=1e-9)


def test_weak_approx_equals_amplified_carrier_weight():
    for epsilon in (0.1, 0.05):
        cot2 = (math.cos(epsilon) / math.sin(epsilon)) ** 2
        for m, n in ((1, 1), (3, 3), (5, 5)):
            pointer = ModeState.basis(m + n, m, n)
            pre, post = post_selected_pair(epsilon)
            expected = 4.0 * cot2 * oam_variance(ModeIndex(m, n))
            for alpha in (1e-4, 1e-5):
                s = WeakScenario(alpha, pre, post, PauliAxis.z(),
                                 Coupling.OAM, pointer)
                got = qfi_weak_approx(s, Parameter.ALPHA)
                assert got == pytest.approx(expected, rel=1e-12)


def test_axis_angle_fisher_scales_with_coupling():
    pointer = ModeState.basis(4, 2, 2)
    vals = {}
    for alpha in (1e-3, 2e-3):
        s = WeakScenario(alpha, DIAG, DIAG, TILTED, Coupling.OAM, pointer)
        vals[alpha] = (qfi_weak_approx(s, Parameter.THETA),
                       qfi_weak_approx(s, Parameter.PHI))
    for k in (0, 1):
        assert vals[2e-3][k] == pytest.approx(4.0 * vals[1e-3][k], rel=1e-12)


def test_axis_angle_routes_agree():
    alpha = 1e-3
    pointer = ModeState.basis(4, 2, 2)

    def theta_family(t: float) -> ModeState:
        s = WeakScenario(alpha, DIAG, DIAG, PauliAxis(t, 0.0),
                         Coupling.OAM, pointer)
        return final_pointer_exact(s).pointer

    s0 = WeakScenario(alpha, DIAG, DIAG, TILTED, Coupling.OAM, pointer)
    weak_theta = qfi_weak_approx(s0, Parameter.THETA)
    # dM/dtheta = alpha/2 for these settings, so QFI = alpha^2 (2mn+m+n)
    assert weak_theta == pytest.approx(alpha ** 2 * 12.0, rel=1e-12)
    numeric = qfi_pure_numeric(theta_family, math.pi / 4, step=1e-4)
    assert numeric == pytest.approx(weak_theta, rel=0.02)

    phi0 = 0.1  # interior point; the axis rejects phi < 0

    def phi_family(p: float) -> ModeState:
        s = WeakScenario(alpha, DIAG, DIAG, PauliAxis(math.pi / 4, p),
                         Coupling.OAM, pointer)
        return final_pointer_exact(s).pointer

    s_phi = WeakScenario(alpha, DIAG, DIAG, PauliAxis(math.pi / 4, phi0),
                         Coupling.OAM, pointer)
    weak_phi = qfi_weak_approx(s_phi, Parameter.PHI)
    numeric_phi = qfi_pure_numeric(phi_family, phi0, step=1e-4)
    assert numeric_phi == pytest.approx(weak_phi, rel=0.02)

    s_zero = WeakScenario(alpha, DIAG, DIAG, TILTED, Coupling.OAM, pointer)
    assert qfi_weak_approx(s_zero, Parameter.PHI) == pytest.approx(
        alpha ** 2 * 12.0, rel=1e-12)


def test_classical_readout_never_beats_quantum():
    rng = np.random.default_rng(7)
    cutoff = 2
    dim = basis_dim(cutoff)
    fam = rotation_family(0.1, ModeIndex(1, 1))
    alpha = 1e-3
    ceiling = qfi_pure_numeric(fam, alpha)
    for _ in range(10):
        raw = []
        for _ in range(4):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            raw.append(a @ a.conj().T)
        total = sum(raw)
        w, v = np.linalg.eigh(total)
        inv_half = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
        povm = [inv_half @ r @ inv_half for r in raw]
        assert dense_cfi(fam, alpha, povm) <= ceiling * (1.0 + 1e-9)


def test_carrier_projection_saturates_quantum_limit():
    alpha = 1e-4
    for epsilon, (m, n) in ((0.1, (1, 1)), (0.05, (3, 3))):
        idx = ModeIndex(m, n)
        pre, post = post_selected_pair(epsilon)
        pointer = ModeState.basis(idx.total, m, n)
        s = WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
        povm = carrier_projection_povm(carrier_state(idx, idx.total))
        classical = cfi_povm(rotation_family(epsilon, idx), alpha, povm)
        assert classical == pytest.approx(
            qfi_weak_approx(s, Parameter.ALPHA), rel=0.01)


def test_projector_povm_matches_dense_povm():
    pre, post = post_selected_pair(0.1)
    for cutoff in range(1, 7):
        idx = ModeIndex(1, cutoff - 1)
        pointer = ModeState.basis(cutoff, idx.m, idx.n)

        def family(a: float) -> ModeState:
            s = WeakScenario(a, pre, post, PauliAxis.z(), Coupling.OAM,
                             pointer)
            return final_pointer_exact(s).pointer

        carrier = carrier_state(idx, cutoff)
        c = carrier.amplitudes
        proj = np.outer(c, c.conj())
        dense = (proj, np.eye(len(c)) - proj)
        povm = carrier_projection_povm(carrier)
        state = family(1e-3)
        psi = state.amplitudes
        assert np.allclose(
            povm.probabilities(state),
            [np.real(np.vdot(psi, ref @ psi)) for ref in dense], atol=1e-15)
        assert cfi_povm(family, 1e-3, povm) == pytest.approx(
            dense_cfi(family, 1e-3, dense), rel=1e-12)


def test_projector_povm_validation():
    cutoff = 2
    c = carrier_state(ModeIndex(1, 1), cutoff)
    psi = ModeState(cutoff, np.arange(basis_dim(cutoff)) + 0.5j)
    # a phase on the carrier leaves the projector unchanged
    assert np.allclose(
        CarrierReadout(ModeState(cutoff, 1j * c.amplitudes)).probabilities(psi),
        CarrierReadout(c).probabilities(psi), rtol=1e-15, atol=0.0)
    with pytest.raises(InvalidStateError):  # not unit: not positive
        CarrierReadout(ModeState(cutoff, 2.0 * c.amplitudes))


def test_monitor_plane_matches_dense_sld():
    for m, n in ((1, 1), (2, 2), (3, 1)):
        pointer = ModeState.basis(m + n, m, n)
        for theta_q in (0.0, 0.4, 1.1, math.pi / 2, 2.8, math.pi):
            qubit = QubitState.from_angles(theta_q, 0.0)
            for alpha in (0.0, 1e-3, 0.05, 0.3):
                rho = qubit_monitor_channel(qubit, alpha, pointer)
                fwd, bwd = monitor_branches(alpha, pointer)
                drho = abs(qubit.c0) * abs(qubit.c1) * (
                    np.outer(bwd, bwd.conj()) - np.outer(fwd, fwd.conj()))
                sld = sld_solve(rho, drho)
                dense = float(np.real(np.trace(rho @ sld @ sld)))
                plane = qfi_mixed_monitor(qubit, alpha, pointer)
                if 0.0 < theta_q < math.pi and alpha > 0.0:
                    # the dense eigensolve misses the closed form by up to
                    # 4.2e-10 at alpha = 1e-3; the 2 x 2 one does not
                    closed = qfi_mixed_closed_form(qubit, alpha, pointer)
                    assert plane == pytest.approx(closed, rel=1e-11)
                    assert plane == pytest.approx(dense, rel=5e-10)
                else:
                    assert plane == pytest.approx(dense, rel=1e-10, abs=1e-30)


def test_min_detectable_rotation_frozen_values():
    eps = math.radians(5.0)
    frozen = {(1, 1): 3.4411302265843428e-06,
              (3, 3): 1.4048355322665837e-06,
              (5, 5): 8.884960039794742e-07}
    for (m, n), value in frozen.items():
        assert min_detectable_rotation(ModeIndex(m, n), eps, 4.04e7) == \
            pytest.approx(value, rel=1e-12)
    ratio = (min_detectable_rotation(ModeIndex(1, 1), 0.3, 1e6)
             / min_detectable_rotation(ModeIndex(5, 5), 0.3, 1e6))
    assert ratio == pytest.approx(math.sqrt(15.0), rel=1e-12)
    with pytest.raises(NoSensitivityError):
        min_detectable_rotation(ModeIndex(0, 0), eps, 1e6)
    for n_photons in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            min_detectable_rotation(ModeIndex(1, 1), eps, n_photons)
    with pytest.raises(ValueError):
        min_detectable_rotation(ModeIndex(1, 1), math.nan, 1e6)
    with pytest.raises(ValueError):
        min_detectable_rotation(ModeIndex(1, 1), math.pi, 1e6)
    # a finite, nonzero |cot| outside (0, pi/2): snr and table2 refuse it too
    for outside in (-0.1, 2.0):
        with pytest.raises(ConfigError, match="post-selection angle"):
            min_detectable_rotation(ModeIndex(1, 1), outside, 1e6)
    for vanishing_cot in (math.pi / 2, 3 * math.pi / 2):
        with pytest.raises(ValueError):
            min_detectable_rotation(ModeIndex(1, 1), vanishing_cot, 1e6)


def test_min_detectable_matches_fisher_bound_route():
    # 1 / sqrt(N F) from the weak-approx Fisher info, no shared formula
    n_photons = 2.5e7
    for epsilon in (0.08, 0.25):
        pre, post = post_selected_pair(epsilon)
        for m, n in ((1, 1), (4, 2)):
            idx = ModeIndex(m, n)
            pointer = ModeState.basis(idx.total, m, n)
            s = WeakScenario(1e-5, pre, post, PauliAxis.z(),
                             Coupling.OAM, pointer)
            fisher = qfi_weak_approx(s, Parameter.ALPHA)
            assert min_detectable_rotation(idx, epsilon, n_photons) == \
                pytest.approx(1.0 / math.sqrt(n_photons * fisher), rel=1e-12)


def test_bound_ordering_rotation_wins():
    # same impulse budget: rotation beats beam displacement beats a
    # structureless pointer, for every m = n >= 1
    sigma0 = 1.0 / math.sqrt(2.0)
    alpha = 1e-3
    gauss = ModeState.basis(2, 0, 0)
    for m in (1, 2, 3):
        pointer = ModeState.basis(2 * m, m, m)
        rot = hamiltonian_bound(Parameter.ALPHA, WeakScenario(
            alpha, DIAG, DIAG, TILTED, Coupling.OAM, pointer, sigma0=sigma0))
        disp = hamiltonian_bound(Parameter.ALPHA, WeakScenario(
            alpha, DIAG, DIAG, TILTED, Coupling.MOMENTUM_X, pointer,
            sigma0=sigma0))
        flat = hamiltonian_bound(Parameter.ALPHA, WeakScenario(
            alpha, DIAG, DIAG, TILTED, Coupling.MOMENTUM_X, gauss,
            sigma0=sigma0))
        assert rot.variance_bound < disp.variance_bound < flat.variance_bound
        # displacement route gains (2m+1) over the structureless pointer
        assert flat.variance_bound / disp.variance_bound == pytest.approx(
            2 * m + 1, rel=1e-12)


def test_sld_solves_lyapunov_residual():
    for theta_q, alpha, (m, n) in ((math.pi / 3, 0.05, (2, 2)),
                                   (0.4, 0.01, (1, 1)),
                                   (2.0, 0.12, (3, 1))):
        qubit = QubitState.from_angles(theta_q, 0.0)
        cutoff = m + n
        pointer = ModeState.basis(cutoff, m, n)
        fwd, bwd = monitor_branches(alpha, pointer)
        w0, w1 = abs(qubit.c0) ** 2, abs(qubit.c1) ** 2
        p_plus = np.outer(fwd, fwd.conj())
        p_minus = np.outer(bwd, bwd.conj())
        rho = w0 * p_plus + w1 * p_minus
        drho = abs(qubit.c0) * abs(qubit.c1) * (p_minus - p_plus)
        sld = sld_solve(rho, drho)
        residual = rho @ sld + sld @ rho - 2.0 * drho
        assert np.max(np.abs(residual)) < 1e-10


def test_sld_closed_form_on_branch_plane():
    # entries of L in the orthonormal sym/antisym branch basis
    theta_q = math.pi / 3
    alpha = 0.05
    cutoff = 4
    pointer = ModeState.basis(cutoff, 2, 2)
    qubit = QubitState.from_angles(theta_q, 0.0)
    fwd, bwd = monitor_branches(alpha, pointer)
    p_plus = np.outer(fwd, fwd.conj())
    p_minus = np.outer(bwd, bwd.conj())
    rho = abs(qubit.c0) ** 2 * p_plus + abs(qubit.c1) ** 2 * p_minus
    drho = abs(qubit.c0) * abs(qubit.c1) * (p_minus - p_plus)
    sld = sld_solve(rho, drho)
    delta = float(np.real(np.vdot(fwd, bwd)))
    sym = (fwd + bwd) / np.linalg.norm(fwd + bwd)
    anti = (fwd - bwd) / np.linalg.norm(fwd - bwd)
    cot = math.cos(theta_q) / math.sin(theta_q)
    assert complex(np.vdot(sym, sld @ sym)) == pytest.approx(
        (1.0 - delta) * cot, abs=1e-10)
    assert complex(np.vdot(anti, sld @ anti)) == pytest.approx(
        (1.0 + delta) * cot, abs=1e-10)
    assert complex(np.vdot(sym, sld @ anti)) == pytest.approx(
        -math.sqrt(1.0 - delta ** 2) / math.sin(theta_q), abs=1e-10)


def test_mixed_fisher_three_routes():
    qubit = QubitState.from_angles(1.1, 0.0)
    for m in (1, 3, 5):
        pointer = ModeState.basis(2 * m, m, m)
        for alpha in (1e-3, 0.02):
            via_sld = qfi_mixed_monitor(qubit, alpha, pointer)
            closed = qfi_mixed_closed_form(qubit, alpha, pointer)
            assert via_sld == pytest.approx(closed, abs=1e-10)
        quad = qfi_mixed_quadratic(1e-3, pointer)
        assert qfi_mixed_closed_form(qubit, 1e-3, pointer) == pytest.approx(
            quad, rel=1e-3)


def test_shell_route_matches_dense_route():
    # the stencil on the exact family differentiates it numerically, an
    # independent check of the closed-form derivative in qfi_rotation_exact
    pre, post = post_selected_pair(0.1)
    for m, n in ((1, 1), (2, 1), (3, 3)):
        fam = rotation_family(0.1, ModeIndex(m, n))
        dense = qfi_pure_numeric(fam, 5e-3)
        shell = qfi_rotation_exact(pre, post, PauliAxis.z(), 5e-3,
                                   ModeIndex(m, n))
        assert dense == pytest.approx(shell, rel=1e-9)


def _jacobi_near_one(n: int, b: int, s: float) -> tuple[float, float, float]:
    """(1 - P, dP/ds, d2P/ds2) of P = P_n^(0,b)(1 - 2s), three-term recurrence.

    P_k(1) = 1, so 1 - P_k follows the same recurrence plus a source term
    and is carried as its own sequence, free of cancellation at small s.
    """
    if n == 0:
        return 0.0, 0.0, 0.0
    prev = np.array([0.0, 1.0, 0.0, 0.0])  # (1 - P, P, P_s, P_ss) of P_0
    cur = np.array([(b + 2) * s, 1.0 - (b + 2) * s, -(b + 2.0), 0.0])
    for k in range(2, n + 1):
        c = 2 * k + b
        a1 = 2 * k * (k + b) * (c - 2)
        a3 = (c - 1) * c * (c - 2)
        a4 = 2 * (k - 1) * (k + b - 1) * c
        lin = a1 + a4  # a2 + a3 of the x-form, since P_k(1) = 1
        # a1 P_k = (lin - 2 a3 s) P_{k-1} - a4 P_{k-2}, differentiated in s
        nxt = np.array([
            lin * cur[0] - a4 * prev[0] + 2 * a3 * s * cur[1],
            (lin - 2 * a3 * s) * cur[1] - a4 * prev[1],
            (lin - 2 * a3 * s) * cur[2] - 2 * a3 * cur[1] - a4 * prev[2],
            (lin - 2 * a3 * s) * cur[3] - 4 * a3 * cur[2] - a4 * prev[3],
        ]) / a1
        prev, cur = cur, nxt
    return cur[0], cur[2], cur[3]


def _diagonal_rotation_element(m: int, n: int,
                               theta: float) -> tuple[float, float, float]:
    """(1 - C, C', C'') of C(theta) = <m,n|exp(-i theta Lz)|m,n>.

    C = P_n^(0,m-n)(cos 2 theta) cos^(m-n) theta for m >= n, a Wigner small-d
    element (Lz is twice a Schwinger SU(2) generator); C is symmetric in
    m, n. No truncation and no weak.Generator.
    """
    n, b = min(m, n), abs(m - n)
    s1, s2 = math.sin(2 * theta), 2.0 * math.cos(2 * theta)  # s' and s''
    q, p_s, p_ss = _jacobi_near_one(n, b, math.sin(theta) ** 2)
    p, p1, p2 = 1.0 - q, p_s * s1, p_ss * s1 ** 2 + p_s * s2
    c, sn = math.cos(theta), math.sin(theta)
    g = c ** b
    g1 = -b * c ** (b - 1) * sn if b >= 1 else 0.0
    g2 = (b * (b - 1) * c ** (b - 2) * sn ** 2 if b >= 2 else 0.0) - b * g
    # 1 - cos^b theta without cancellation near theta = 0
    one_minus_g = -math.expm1(b * math.log(c)) if c > 0 else 1.0 - g
    return (one_minus_g + g * q, p1 * g + p * g1,
            p2 * g + 2.0 * p1 * g1 + p * g2)


def _rotation_qfi_closed_form(epsilon: float, alpha: float, m: int,
                              n: int) -> float:
    """F(alpha) of the post-selected rotation family from C at 2 alpha.

    With a+ = <f|0><0|i>, a- = <f|1><1|i>, S = |a+|^2 + |a-|^2,
    r = 2 Re(a+* a-) and <Lz^2> = 2mn + m + n on |m, n>:
    <phi|phi> = |a+ + a-|^2 - r (1 - C), <dphi|dphi> = S <Lz^2> + r C'',
    <phi|dphi> = r C'. The norm is written with 1 - C, since it cancels
    near extinction.
    """
    pre, post = post_selected_pair(epsilon)
    a_plus = post.c0.conjugate() * pre.c0
    a_minus = post.c1.conjugate() * pre.c1
    r = 2.0 * (a_plus.conjugate() * a_minus).real
    one_minus_c, c1, c2 = _diagonal_rotation_element(m, n, 2.0 * alpha)
    norm2 = abs(a_plus + a_minus) ** 2 - r * one_minus_c
    spread = oam_variance(ModeIndex(m, n))
    dphi2 = (abs(a_plus) ** 2 + abs(a_minus) ** 2) * spread + r * c2
    return 4.0 * (dphi2 / norm2 - (r * c1) ** 2 / norm2 ** 2)


def test_wigner_d_oracle_matches_block_evolution():
    thetas = np.array([1e-3, 0.1, 0.7, 1.3, 2.9])
    for m in range(21):
        for n in range(21 - m):
            cutoff = m + n
            rows = Generator(Coupling.OAM, cutoff).evolve(
                thetas, ModeState.basis(cutoff, m, n))
            got = rows[:, flat_index(m, n, cutoff)]
            want = [1.0 - _diagonal_rotation_element(m, n, t)[0]
                    for t in thetas]
            assert np.max(np.abs(got - want)) <= 1e-13, (m, n)


def _laguerre(m: int, x: float) -> float:
    """L_m(x) by (k + 1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1}."""
    prev, cur = 0.0, 1.0
    for k in range(m):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def test_displacement_oracle_matches_momentum_evolution():
    # exp(-i theta p) is the displacement D(theta / (2 sigma0)) along x, so
    # <m|exp(-i theta p)|m> = exp(-theta^2 / (8 sigma0^2))
    #                         * L_m(theta^2 / (4 sigma0^2)), whatever n is
    cutoff = 60
    thetas = np.array([0.05, 0.3, 1.0])
    for sigma0 in (0.5, 1.0 / math.sqrt(2.0), 1.0):
        gen = Generator(Coupling.MOMENTUM_X, cutoff, sigma0)
        for m in range(11):
            for n in (0, 3):
                rows = gen.evolve(thetas, ModeState.basis(cutoff, m, n))
                got = rows[:, flat_index(m, n, cutoff)]
                x = thetas ** 2 / (4.0 * sigma0 ** 2)
                want = np.exp(-x / 2.0) * [_laguerre(m, xi) for xi in x]
                assert np.max(np.abs(got - want)) <= 1e-13, (sigma0, m, n)


def test_rotation_qfi_matches_wigner_d_closed_form():
    # F = 4 (<dphi|dphi> <phi|phi> - |<phi|dphi>|^2) / <phi|phi>^2 subtracts
    # terms whose difference shrinks with |<f|i>|^2 ~ epsilon^2, so the
    # round-off of the closed form's C, C', C'' grows as 1 / epsilon^2 in F
    # (the vector route keeps its inner products consistent)
    for epsilon in (0.3, 0.1, 0.01, 1e-3):
        pre, post = post_selected_pair(epsilon)
        for alpha in (0.2, 0.02, 1e-3, 1e-5):
            for m, n in ((1, 0), (1, 1), (2, 1), (3, 9), (7, 7), (20, 20)):
                got = qfi_rotation_exact(pre, post, PauliAxis.z(), alpha,
                                         ModeIndex(m, n))
                want = _rotation_qfi_closed_form(epsilon, alpha, m, n)
                rel = 1e-13 + 1e-15 / epsilon ** 2
                assert got == pytest.approx(want, rel=rel), (epsilon, alpha)


def _rotation_qfi_oracle(mp, a_plus: complex, a_minus: complex,
                         alpha: float, m: int, n: int):
    """_rotation_qfi_closed_form at mp's 60 digits, from the library's float
    a+- taken as exact: C = P_n^(0,m-n)(cos 2 theta) cos^(m-n) theta (m >= n)
    by mpmath.jacobi, its derivatives by mpmath.diffs, so no eigh and no
    truncation. <phi|phi> = S + r C, the form _rotation_qfi_closed_form
    rewrites to keep digits in float."""
    with mp.workdps(60):
        a_plus, a_minus = mp.mpc(a_plus), mp.mpc(a_minus)
        low, b = min(m, n), abs(m - n)
        c, c1, c2 = mp.diffs(lambda t: mp.jacobi(low, 0, b, mp.cos(2 * t))
                             * mp.cos(t) ** b, 2 * mp.mpf(alpha), 2)
        spread = abs(a_plus) ** 2 + abs(a_minus) ** 2
        r = 2 * mp.re(mp.conj(a_plus) * a_minus)
        norm2 = spread + r * c
        dphi2 = spread * (2 * m * n + m + n) + r * c2
        return 4 * (dphi2 / norm2 - (r * c1) ** 2 / norm2 ** 2)


# the bound the exact QFI holds against the oracle, by post-selection angle:
# measured worst 1.4e-13 at 1e-6 and 2.8e-13 at 1e-5 (HG(25, 25), alpha
# 1e-3, where F is 1e-14 of its first-order value), 5.5e-15 at 1e-4 and
# 1.5e-15 from 1e-3 up. A family formed from its cancelling branches gives
# 2.9e-8, 6.5e-10, 2.0e-11, 1.3e-13 and 1.1e-14 from 1e-6 to 0.01, and the
# unprojected 4 (<dphi|dphi> / <phi|phi> - |<phi|dphi>|^2 / <phi|phi>^2)
# 1.4e-9 at 1e-6
_ORACLE_BOUND = {1e-6: 1e-12, 1e-5: 1e-12, 1e-4: 2e-14, 1e-3: 5e-15,
                 1e-2: 5e-15, math.radians(5.0): 5e-15, 0.5: 5e-15}


def test_rotation_qfi_holds_a_60_digit_oracle_across_the_angle_domain():
    mp = pytest.importorskip("mpmath").mp
    pointers = [(o, o) for o in (1, 3, 6, 10, 25)] + [(1, 0), (0, 5), (3, 9),
                                                      (12, 1)]
    for epsilon, bound in _ORACLE_BOUND.items():
        pre, post = post_selected_pair(epsilon)
        a_plus, a_minus = weak.selection_amplitudes(pre, post, PauliAxis.z())
        for alpha in (1e-3, 1e-5, 1e-7):
            for m, n in pointers:
                want = _rotation_qfi_oracle(mp, a_plus, a_minus, alpha, m, n)
                got = qfi_rotation_exact(pre, post, PauliAxis.z(), alpha,
                                         ModeIndex(m, n))
                err = float(abs(got - want) / want)
                assert err <= bound, (epsilon, alpha, m, n, err)


def test_rotation_qfi_sweep_is_bitwise_the_per_order_route():
    # one call over orders 0-30 and off-diagonal pointers against one
    # reference call per pointer, which checks each pair in a WeakScenario,
    # builds each block on the call and searches the shell to apply Lz
    indices = [ModeIndex(order, order) for order in range(31)] + [
        ModeIndex(0, 5), ModeIndex(3, 9), ModeIndex(12, 1), ModeIndex(1, 0)]
    z_pairs = [post_selected_pair(eps) for eps in (0.01, 0.05, 0.1, 0.5)]
    cli_diag = QubitState.from_amplitudes(1.0, cmath.exp(1j * math.pi / 4.0))
    for axis, pairs in ((PauliAxis.z(), z_pairs),
                        (PauliAxis(math.pi / 4.0, 0.0),
                         [(cli_diag, cli_diag)] + z_pairs)):
        for alpha in (1e-3, 0.02, 0.3):
            got = qfi_rotation_exact_selections(pairs, axis, alpha, indices)
            want = [qfi_rotation_exact_selections_per_order(
                pairs, axis, alpha, idx) for idx in indices]
            assert got == want, (axis, alpha)
            assert {type(v) for row in got for v in row} == {float}
    assert type(qfi_rotation_exact(*z_pairs[0], PauliAxis.z(), 100.0,
                                   ModeIndex(3, 3))) is float
    # at exact extinction both refuse with the same error
    plus, z = QubitState.plus(), PauliAxis.z()
    with pytest.raises(TotalExtinctionError) as want:
        qfi_rotation_exact_selections_per_order([(plus, plus)], z,
                                                math.pi / 2, ModeIndex(1, 0))
    with pytest.raises(TotalExtinctionError) as got:
        qfi_rotation_exact_selections([(plus, plus)], z, math.pi / 2,
                                      [ModeIndex(1, 1), ModeIndex(1, 0)])
    assert str(got.value) == str(want.value)


def test_rotation_qfi_shares_the_extinction_guard(monkeypatch):
    # exact extinction: a+ = a- and cos(pi/2 Lz) = 0 on an odd shell, so the
    # branches cancel to round-off (3.7e-33), which no route may normalize
    plus, z = QubitState.plus(), PauliAxis.z()
    dark = WeakScenario(math.pi / 2, plus, plus, z, Coupling.OAM,
                        ModeState.basis(1, 1, 0))
    with pytest.raises(TotalExtinctionError):
        final_pointer_exact(dark)
    with pytest.raises(TotalExtinctionError):
        qfi_rotation_exact(plus, plus, z, math.pi / 2, ModeIndex(1, 0))
    # 1e-8 short of it the probability sin^2(1e-8) is genuine
    near = WeakScenario(math.pi / 2 - 1e-8, plus, plus, z, Coupling.OAM,
                        ModeState.basis(1, 1, 0))
    assert final_pointer_exact(near).success_prob == pytest.approx(
        math.sin(1e-8) ** 2, rel=1e-6)
    # a basis pointer cannot underflow the norm; NaN eigenvalues in the
    # block memo, where both routes read their shell, give NaN branches
    # (behind a finite overflow bound), which must stop both at the same
    # guard
    memo = weak._coupling_eig

    def nan_shell(*key):
        entry = memo(*key)
        return entry._replace(w=np.full_like(entry.w, np.nan))

    monkeypatch.setattr(weak, "_coupling_eig", nan_shell)  # its one binding
    pre, post = post_selected_pair(0.1)
    s = WeakScenario(1e-3, pre, post, PauliAxis.z(), Coupling.OAM,
                     ModeState.basis(2, 1, 1))
    with pytest.raises(TotalExtinctionError):
        final_pointer_exact(s)
    with pytest.raises(TotalExtinctionError):
        qfi_rotation_exact(pre, post, PauliAxis.z(), 1e-3, ModeIndex(1, 1))


def test_step_guard_trips_on_coarse_step():
    fam = rotation_family(0.1, ModeIndex(1, 1))
    with pytest.raises(StepSizeError):
        qfi_pure_numeric(fam, 1e-3, step=0.5)
    pre, post = post_selected_pair(0.1)
    with pytest.raises(TypeError):  # closed form: no step to pass
        qfi_rotation_exact(pre, post, PauliAxis.z(), 1e-3, ModeIndex(1, 1),
                           step=0.5)
    with pytest.raises(ValueError):
        qfi_pure_numeric(fam, 1e-3, step=0.0)
    with pytest.raises(ValueError):
        cfi_povm(fam, 1e-3,
                 carrier_projection_povm(carrier_state(ModeIndex(1, 1), 2)),
                 step=-1.0)


def test_stencil_evaluates_each_point_once(monkeypatch):
    idx, g = ModeIndex(3, 4), 1e-3
    family = rotation_family(0.1, idx)
    readout = carrier_projection_povm(carrier_state(idx, idx.total))
    routes = (lambda fam: qfi_pure_numeric(fam, g),
              lambda fam: cfi_povm(fam, g, readout))

    def counted(route):
        points = []

        def counting_family(a):
            points.append(a)
            return family(a)

        return route(counting_family), points

    got = [counted(route) for route in routes]
    monkeypatch.setattr(fisher, "_stencil_value", stencil_value_nine_calls)
    want = [counted(route) for route in routes]
    for (value, points), (nine_value, nine_points) in zip(got, want):
        assert len(points) == 7 and sorted(points) == sorted(set(nine_points))
        assert len(nine_points) == 9
        assert value.hex() == nine_value.hex()  # bitwise, sign included


def test_high_order_evolution_is_fast_and_small():
    # block evolution: a dense (cutoff + 1)^2 eigendecomposition at these
    # orders would take seconds and gigabytes. The memory bound runs first,
    # at a size where a dense matrix is still only megabytes, so that a
    # dense regression fails there instead of allocating at cutoff 128.
    pre, post = post_selected_pair(0.1)
    runs = []
    for coupling in Coupling:
        s = WeakScenario(1e-3, pre, post, PauliAxis.z(), coupling,
                         ModeState.basis(24, 12, 12))
        runs.append(lambda s=s: (final_pointer_exact(s),
                                 s.operator().apply(s.pointer)))
    # the rank-1 carrier readout and the rank-2 monitor mixture
    idx = ModeIndex(12, 12)
    runs.append(lambda: cfi_povm(
        rotation_family(0.1, idx), 1e-3,
        carrier_projection_povm(carrier_state(idx, 24))))
    runs.append(lambda: qfi_mixed_monitor(
        QubitState.from_angles(1.1, 0.0), 1e-3, ModeState.basis(24, 12, 12)))
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 16 * basis_dim(24)  # 16 complex amplitude vectors

    def best_time(fn) -> float:
        times = []
        for _ in range(2):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    for coupling in Coupling:
        s = WeakScenario(1e-3, pre, post, PauliAxis.z(), coupling,
                         ModeState.basis(64, 32, 32))
        assert best_time(lambda: final_pointer_exact(s)) < 1.0
    assert best_time(lambda: qfi_rotation_exact(
        pre, post, PauliAxis.z(), 1e-5, ModeIndex(64, 64))) < 1.0


def test_weak_regime_guard():
    pre, post = post_selected_pair(0.01)
    pointer = ModeState.basis(2, 1, 1)
    s = WeakScenario(5e-3, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
    with pytest.raises(WeakRegimeError):
        qfi_weak_approx(s, Parameter.ALPHA)
    variances = (variance(s.operator(), s.pointer),)
    assert weak_fisher((pre, post), s.axis, s.alpha, (Parameter.ALPHA,),
                       variances)[0][0] > 0.0


def test_weak_regime_counts_the_pointer_spread():
    # HG(25, 25) at |alpha A_w| = 0.0999 has x = 0.0999 sqrt(1300) = 3.6,
    # where the first-order information, 5.20e7, is 195 times the exact one
    pre, post = post_selected_pair(0.01)
    pointer = ModeState.basis(50, 25, 25)
    wide = WeakScenario(0.0999 * math.tan(0.01), pre, post, PauliAxis.z(),
                        Coupling.OAM, pointer)
    message = (r"^weak-regime x = \|alpha \* A_w\| 0.099\d* \* dOmega "
               r"36.05\d* = 3.60\d* must be finite and lie in \[0.0, 0.1\)$")
    with pytest.raises(WeakRegimeError, match=message):
        qfi_weak_approx(wide, Parameter.ALPHA)
    with pytest.raises(WeakRegimeError, match=message):
        hamiltonian_bound(Parameter.ALPHA, wide)
    (first,), = weak_fisher((pre, post), PauliAxis.z(), wide.alpha,
                            (Parameter.ALPHA,), (1300.0,))
    exact = qfi_rotation_exact(pre, post, PauliAxis.z(), wide.alpha,
                               ModeIndex(25, 25))
    assert first == pytest.approx(5.2e7, rel=1e-3)
    assert exact == pytest.approx(2.66e5, rel=1e-2)
    # x = 0.099 passes, and the exact QFI is within (1 + x^2)^2 of the value
    inside = WeakScenario(0.099 / math.sqrt(1300.0) * math.tan(0.01), pre,
                          post, PauliAxis.z(), Coupling.OAM, pointer)
    first = qfi_weak_approx(inside, Parameter.ALPHA)
    assert first == hamiltonian_bound(Parameter.ALPHA, inside).fisher_info
    exact = qfi_rotation_exact(pre, post, PauliAxis.z(), inside.alpha,
                               ModeIndex(25, 25))
    assert exact / first * (1.0 + 0.099 ** 2) ** 2 == pytest.approx(
        1.0, abs=1e-3)


def test_weak_regime_reads_a_rounded_negative_variance_as_no_spread():
    # an Lz eigenstate has no spread, but its variance rounds to -5.7e-14 at
    # shell 20 of cutoff 11: the guard takes x = 0, not a square root, and
    # the first-order information is 0, not negative
    entry = weak._coupling_eig(Coupling.OAM, 11, 20, None)
    amp = np.zeros(12 ** 2, dtype=complex)
    amp[entry.index[:, 0]] = entry.v[:, 0]
    pointer = ModeState(11, amp)
    assert -1e-12 < variance(Generator(Coupling.OAM, 11), pointer) < 0.0
    pre, post = post_selected_pair(0.01)
    s = WeakScenario(5e-3, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
    assert s.require_weak_regime() == 0.0
    bound = hamiltonian_bound(Parameter.ALPHA, s)
    assert bound.fisher_info == 0.0 and bound.variance_bound == math.inf


def test_weak_fisher_refuses_an_orthogonal_pair_and_a_nonfinite_alpha():
    # the pair and alpha are read directly: no WeakScenario refuses them first
    pair = (QubitState.from_amplitudes(1.0, 0.0),
            QubitState.from_amplitudes(0.0, 1.0))
    with pytest.raises(DegeneratePostSelectionError, match="orthogonal"):
        weak_fisher(pair, PauliAxis.z(), 1e-3, tuple(Parameter), (1.0,))
    with pytest.raises(ConfigError, match="alpha nan must be finite"):
        weak_fisher(post_selected_pair(0.1), PauliAxis.z(), math.nan,
                    tuple(Parameter), (1.0,))


@pytest.mark.parametrize("alpha, match", [
    # NaN and inf came back as the QFI, and 1e200 raised a bare OverflowError
    (math.nan, r"^alpha nan must be finite$"),
    (math.inf, r"^alpha inf must be finite$"),
    (-math.inf, r"^alpha -inf must be finite$"),
    (1e200, r"^4 alpha\^2 <Lz\^2> inf must be finite$"),
])
def test_quadratic_monitor_qfi_refuses_a_non_finite_alpha_or_value(alpha, match):
    with pytest.raises(ConfigError, match=match):
        qfi_mixed_quadratic(alpha, ModeState.basis(4, 1, 3))


def test_weak_approx_overstates_fisher_past_regime():
    epsilon = 0.1
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(2, 1, 1)
    naive = qfi_weak_approx(
        WeakScenario(1e-6, pre, post, PauliAxis.z(), Coupling.OAM, pointer),
        Parameter.ALPHA)
    spread = math.sqrt(oam_variance(ModeIndex(1, 1)))
    inside = 0.05 * epsilon / spread
    outside = 1.0 * epsilon / spread
    exact_in = qfi_rotation_exact(pre, post, PauliAxis.z(), inside,
                                  ModeIndex(1, 1))
    exact_out = qfi_rotation_exact(pre, post, PauliAxis.z(), outside,
                                   ModeIndex(1, 1))
    assert abs(exact_in / naive - 1.0) < 0.02
    assert abs(exact_out / naive - 1.0) > 0.10


@pytest.mark.parametrize("alpha, bound", [(1e-4, 4e-5), (1e-3, 3.6e-3)])
def test_exact_over_first_order_qfi_follows_the_spread_law(alpha, bound):
    # the bounds breakdown family: |o, o> under post_selected_pair(eps),
    # A_w = cot eps. exact / first order = 1 / (1 + x^2)^2 with
    # x = alpha |A_w| sqrt(2mn+m+n), while alpha sqrt(2mn+m+n) << 1; the
    # worst deviation measured 2.0e-5 at alpha = 1e-4 and 1.8e-3 at 1e-3
    epsilons = (0.01, 0.02, 0.03, 0.05, 0.07, 0.1)
    orders = range(1, 26)
    variances = [oam_variance(ModeIndex(o, o)) for o in orders]
    pairs = [post_selected_pair(eps) for eps in epsilons]
    exact = qfi_rotation_exact_selections(
        pairs, PauliAxis.z(), alpha, [ModeIndex(o, o) for o in orders])
    xs, deviations = [], []
    for column, (eps, pair) in enumerate(zip(epsilons, pairs)):
        first = weak_fisher(pair, PauliAxis.z(), alpha, (Parameter.ALPHA,),
                            variances)
        for row, var in enumerate(variances):
            x = alpha / math.tan(eps) * math.sqrt(var)
            xs.append(x)
            ratio = exact[row][column] / first[row][0]
            deviations.append(abs(ratio * (1.0 + x * x) ** 2 - 1.0))
    assert max(deviations) < bound
    # at alpha = 1e-3 the law is pinned well past the regime: x reaches 3.6,
    # where the first-order QFI is 196 times the exact one
    assert max(xs) > 3600.0 * alpha


def test_small_probability_outcomes_warn_and_drop():
    cutoff = 2
    frozen = ModeState.basis(cutoff, 0, 0)
    povm = carrier_projection_povm(carrier_state(ModeIndex(1, 1), cutoff))
    with pytest.warns(SmallProbabilityWarning):
        value = cfi_povm(lambda _a: frozen, 1e-3, povm)
    assert value == 0.0


def test_povm_validation():
    readout = CarrierReadout(ModeState.basis(1, 0, 0))
    with pytest.raises(ValueError):  # a state in another truncation
        readout.probabilities(ModeState.basis(2, 0, 0))


def test_hamiltonian_bound_guards():
    pointer = ModeState.basis(2, 1, 1)
    still = WeakScenario(0.0, DIAG, DIAG, TILTED, Coupling.OAM, pointer)
    with pytest.raises(ValueError):
        hamiltonian_bound(Parameter.THETA, still)
    for n_samples in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            hamiltonian_bound(Parameter.ALPHA, still, n_samples=n_samples)
    assert BoundResult.from_fisher(Parameter.ALPHA, 0.0, 10.0).variance_bound \
        == math.inf
    result = hamiltonian_bound(Parameter.ALPHA, still, n_samples=100.0)
    assert result.variance_bound == pytest.approx(
        1.0 / (100.0 * result.fisher_info), rel=1e-15)


def test_default_step_floors():
    assert default_step(0.0) == 1e-6
    assert default_step(100.0) == pytest.approx(1e-2)


def test_bound_rows_are_the_bounds_csv(tmp_path):
    # the bounds table without cmd_bounds: the golden arguments' rows, written
    # by write_bound_csv, are the golden CSV that cmd_bounds writes
    out = tmp_path / "bounds.csv"
    args = build_parser().parse_args([*BOUNDS_GOLDEN_ARGV, "--out", str(out)])
    rows = bound_rows(math.radians(args.epsilon_deg), PhotonBudget().photons,
                      args.grid_max, args.sweep_max, args.alpha_rad,
                      args.breakdown_epsilons)
    assert len(rows) == 9 + 3 * 3 * 7 + 3 * 2 * 6
    assert {len(row) for row in rows} == {BOUND_CSV_COLUMNS.index(
        "fisher_info") + 1}
    write_bound_csv(out, rows)
    golden = Path(__file__).parent / "data" / "bounds_golden.csv"
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("args, error, match", [
    ((0.1, 1.0, -1, 2, 1e-3, ()), ConfigError, r"^grid_max -1 must be"),
    ((0.1, 1.0, 2, 2.5, 1e-3, ()), ConfigError,
     r"^sweep_max 2.5 must be an integer$"),
    ((0.0, 1.0, 2, 2, 1e-3, ()), ConfigError, r"^post-selection angle 0.0"),
    ((0.1, math.nan, 2, 2, 1e-3, ()), ConfigError,
     r"^photons nan must be finite and positive$"),
    ((0.1, 1.0, 2, 65, 1e-3, ()), UnsupportedOrderError, r"\(65, 65\)"),
    ((0.1, 1.0, 65, 2, 1e-3, ()), UnsupportedOrderError, r"\(1, 65\)"),
    ((0.1, 1.0, 2, 2, math.nan, (0.1,)), ConfigError,
     r"^alpha nan must be finite$"),
    # a breakdown angle takes post_selected_pair's rule, as the CLI's does
    *[((0.1, 1.0, 2, 2, 1e-3, (eps_b,)), ConfigError,
       rf"^post-selection angle {eps_b!r} must be finite and lie in")
      for eps_b in (0.0, -0.1, math.pi / 2, 5.0)],
])
def test_bound_rows_refuses_its_inputs_before_evolving(args, error, match,
                                                       monkeypatch):
    def no_sweep(*args, **kwargs):
        pytest.fail("bound_rows evolved before its inputs were checked")

    # the exact sweep's kernel, and the block memo that every evolution reads
    monkeypatch.setattr(fisher, "rotation_family_eigenbasis", no_sweep)
    monkeypatch.setattr(weak, "_coupling_eig", no_sweep)
    with pytest.raises(error, match=match):
        bound_rows(*args)


def test_min_detectable_rotation_is_the_carrier_rule_to_a_few_ulp():
    # experiment keeps its own arithmetic; the bounds table's projective
    # rows, 4 cot^2 eps K N in that order to the bit, give it back as
    # 1 / sqrt(F) to a few ulp
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(300):
        m, n = (int(k) for k in rng.integers(1, 17, 2))
        eps = float(rng.uniform(1e-3, math.pi / 2 - 1e-3))
        n_photons = float(10.0 ** rng.uniform(0.0, 12.0))
        rows = bound_rows(eps, n_photons, max(m, n), 0, 1e-3, ())
        (fisher_info,) = [row[-1] for row in rows if row[4:6] == (m, n)]
        assert fisher_info == (4.0 * check_epsilon(eps)
                               * oam_variance(ModeIndex(m, n)) * n_photons)
        alpha_min = min_detectable_rotation(ModeIndex(m, n), eps, n_photons)
        worst = max(worst, abs(alpha_min - 1.0 / math.sqrt(fisher_info))
                    / math.ulp(alpha_min))
    assert worst <= 4.0


def test_bound_csv_output(tmp_path):
    path = tmp_path / "bounds.csv"
    rows = [("projective", "", "", "", 1, 1, "alpha", 1234.5678901234567)]
    write_bound_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(BOUND_CSV_COLUMNS) == (
        "family,method,coupling,epsilon,m,n,parameter,fisher_info,"
        "variance_bound")
    # the writer appends the bound that BoundResult gives at one sample
    bound = BoundResult.from_fisher(Parameter.ALPHA, rows[0][-1], 1.0)
    assert format(bound.variance_bound, ".12g") == "0.00081000000729"
    assert text[1] == "projective,,,,1,1,alpha,1234.56789012,0.00081000000729"
    assert not list(tmp_path.glob("*.tmp"))
