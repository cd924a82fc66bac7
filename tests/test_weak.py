import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hgsense import weak
from hgsense.errors import (
    ConfigError,
    DegeneratePostSelectionError,
    InvalidStateError,
    NoCarrierError,
    TotalExtinctionError,
    WeakRegimeError,
)
from hgsense.modes import (
    ModeIndex,
    ModeState,
    basis_dim,
    flat_index,
    lz_matrix,
    momentum_matrix_x,
    momentum_variance_x,
    oam_variance,
)
from hgsense.weak import (
    Coupling,
    DensityMatrix,
    Generator,
    PauliAxis,
    QubitState,
    WeakScenario,
    carrier_state,
    final_pointer_exact,
    monitor_branches,
    pauli_weak_values,
    post_selected_pair,
    qubit_monitor_channel,
    weak_value,
)
from reference import evolve_uncached, final_pointer_first_order

_SIGMAS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@pytest.mark.parametrize("epsilon", [0.2, 0.1, 0.05, 0.01])
def test_post_selected_pair_amplifies_by_cot(epsilon):
    pre, post = post_selected_pair(epsilon)
    aw = weak_value(pre, post, PauliAxis.z())
    assert aw == pytest.approx(1.0 / math.tan(epsilon), rel=1e-12)
    braket = complex(np.vdot(post.vector, pre.vector))
    assert abs(braket) ** 2 == pytest.approx(math.sin(epsilon) ** 2, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_pauli_axis_matrix_matches_component_sum(theta, phi):
    axis = PauliAxis(theta, phi)
    n = axis.unit_vector
    built = sum(ni * sig for ni, sig in zip(n, _SIGMAS))
    assert np.allclose(axis.matrix, built, atol=1e-12)
    assert np.allclose(axis.matrix, axis.matrix.conj().T, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(1e-3, math.pi - 1e-3), phi=st.floats(0.0, 2 * math.pi, exclude_max=True))
def test_qubit_from_angles_roundtrip(theta, phi):
    q = QubitState.from_angles(theta, phi)
    assert abs(q.c0) ** 2 + abs(q.c1) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert q.polar_angle == pytest.approx(theta, abs=1e-9)


def test_non_finite_qubit_and_coupling_rejected():
    nan = float("nan")
    for build in (lambda: QubitState(nan, 0.0),
                  lambda: QubitState.from_amplitudes(nan, 1.0),
                  lambda: QubitState(1.0, complex(0.0, nan))):
        with pytest.raises(ValueError):
            build()
    for epsilon in (nan, math.inf, -math.inf):
        with pytest.raises(ConfigError,
                           match="post-selection angle .* must be finite"):
            post_selected_pair(epsilon)
    pre, post = post_selected_pair(0.1)
    pointer = ModeState.basis(2, 1, 1)
    for alpha in (nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM,
                         pointer)
    blank = ModeState(2, np.full(basis_dim(2), nan))
    with pytest.raises(TotalExtinctionError):  # a NaN probability
        final_pointer_exact(WeakScenario(1e-3, pre, post, PauliAxis.z(),
                                         Coupling.OAM, blank))


@pytest.mark.parametrize("bad", [float("nan"), math.inf, 0.0, -1.0])
def test_non_finite_or_non_positive_scales_rejected(bad):
    pre, post = post_selected_pair(0.1)
    pointer = ModeState.basis(2, 1, 1)
    builds = (
        lambda: WeakScenario(1e-3, pre, post, PauliAxis.z(),
                             Coupling.MOMENTUM_X, pointer, sigma0=bad),
        lambda: Generator(Coupling.MOMENTUM_X, 2, bad),
        lambda: momentum_matrix_x(2, bad),
        lambda: momentum_variance_x(ModeIndex(1, 1), bad),
    )
    for build in builds:
        with pytest.raises(ValueError, match="sigma0 .* must be positive with "
                                             "a finite, nonzero square"):
            build()


def test_weak_value_consistency_with_pauli_components():
    pre = QubitState.from_angles(0.7, 1.1)
    post = QubitState.from_angles(2.1, 5.0)
    axis = PauliAxis(1.2, 0.4)
    sxw, syw, szw = pauli_weak_values(pre, post)
    n = axis.unit_vector
    assert weak_value(pre, post, axis) == pytest.approx(
        n[0] * sxw + n[1] * syw + n[2] * szw, rel=1e-12)


def test_orthogonal_selection_rejected():
    pre = QubitState.from_amplitudes(1.0, 0.0)
    post = QubitState.from_amplitudes(0.0, 1.0)
    with pytest.raises(DegeneratePostSelectionError):
        weak_value(pre, post, PauliAxis.z())
    with pytest.raises(DegeneratePostSelectionError):
        WeakScenario(1e-3, pre, post, PauliAxis.z(), Coupling.OAM,
                     ModeState.basis(2, 1, 1))


def test_carrier_state_values():
    # Lz|2,3> = i sqrt(17) |carrier>; check the amplitude pattern directly
    cutoff = 6
    car = carrier_state(ModeIndex(2, 3), cutoff)
    k = oam_variance(ModeIndex(2, 3))
    assert k == 17.0
    expected = np.zeros(basis_dim(cutoff), dtype=complex)
    expected[flat_index(1, 4, cutoff)] = math.sqrt(2 * 4)
    expected[flat_index(3, 2, cutoff)] = -math.sqrt(3 * 3)
    expected /= math.sqrt(k)
    assert np.allclose(car.amplitudes, expected, atol=1e-14)
    out = lz_matrix(cutoff).apply(ModeState.basis(cutoff, 2, 3))
    assert complex(np.vdot(car.amplitudes, out)) == pytest.approx(
        1j * math.sqrt(17), rel=1e-12)


def test_carrier_guards():
    with pytest.raises(NoCarrierError):
        carrier_state(ModeIndex(0, 0), 4)
    with pytest.raises(ValueError):
        carrier_state(ModeIndex(2, 2), 2)  # needs room for m+1
    with pytest.raises(ValueError):
        carrier_state(ModeIndex(0, 5), 4)  # pointer outside the truncation


def test_first_order_normalization_formula():
    epsilon = 0.1
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(4, 1, 1)
    alpha = 2e-3
    s = WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
    mw = s.coupling_strength
    raw = pointer.amplitudes - 1j * mw * s.operator().apply(pointer)
    k = oam_variance(ModeIndex(1, 1))
    # <Omega> = 0 on a basis mode, so |raw|^2 = 1 + |Mw|^2 <Omega^2>
    assert float(np.vdot(raw, raw).real) == pytest.approx(
        1.0 + abs(mw) ** 2 * k, rel=1e-12)
    fo = final_pointer_first_order(s)
    assert fo.norm == pytest.approx(1.0, abs=1e-12)


def test_success_probability_tracks_selection_overlap():
    epsilon = 0.07
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(4, 1, 1)
    alpha = 1e-3
    s = WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
    prob = final_pointer_exact(s).success_prob
    cot = 1.0 / math.tan(epsilon)
    expected = math.sin(epsilon) ** 2 * (1.0 + (alpha * cot) ** 2 * 4.0)
    assert prob == pytest.approx(expected, rel=1e-4)


def test_weak_regime_guard():
    pre, post = post_selected_pair(0.01)  # A_w ~ 100
    pointer = ModeState.basis(2, 1, 1)
    s = WeakScenario(2e-3, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
    with pytest.raises(WeakRegimeError):
        final_pointer_first_order(s)
    final_pointer_exact(s)  # exact route has no such restriction


def test_total_extinction_raised():
    # a numerically null pointer must be refused, not normalized into noise
    pre, post = post_selected_pair(0.1)
    amp = np.zeros(basis_dim(1), dtype=complex)
    amp[0] = 1e-200
    s = WeakScenario(1e-3, pre, post, PauliAxis.z(), Coupling.OAM,
                     ModeState(1, amp))
    with pytest.raises(TotalExtinctionError):
        final_pointer_exact(s)


def test_first_order_deficit_scales_quartically_generic_mode():
    epsilon = 0.1
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(3, 1, 2)

    def mismatch(alpha):
        s = WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
        fo = final_pointer_first_order(s)
        ex = final_pointer_exact(s).pointer
        return 1.0 - abs(np.vdot(fo.amplitudes, ex.amplitudes)) ** 2

    ratio = mismatch(4e-3) / mismatch(2e-3)
    assert 8.0 < ratio < 32.0  # fourth-order in alpha, expect ~16


def test_first_order_deficit_sextic_on_1_1():
    # Lz^2 acts as a scalar on |1,1> (its shell spectrum is {-2, 0, 2}), so
    # the quadratic error term is absorbed by normalization and the deficit
    # starts at alpha^6
    epsilon = 0.1
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(2, 1, 1)

    def mismatch(alpha):
        s = WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
        fo = final_pointer_first_order(s)
        ex = final_pointer_exact(s).pointer
        return 1.0 - abs(np.vdot(fo.amplitudes, ex.amplitudes)) ** 2

    ratio = mismatch(8e-3) / mismatch(4e-3)
    assert 48.0 < ratio < 90.0  # sixth-order, expect ~64


def test_monitor_channel_purity():
    # equal-weight dephasing: purity (1 + |<psi+|psi->|^2) / 2
    pointer = ModeState.basis(4, 2, 1)
    alpha = 0.05
    rho = qubit_monitor_channel(QubitState.from_angles(math.pi / 2, 0.0),
                                alpha, pointer)
    fwd, bwd = monitor_branches(alpha, pointer)
    ov2 = abs(np.vdot(fwd, bwd)) ** 2
    assert rho.purity() == pytest.approx((1.0 + ov2) / 2.0, rel=1e-12)


def test_monitor_channel_pure_limits():
    pointer = ModeState.basis(3, 1, 1)
    rho0 = qubit_monitor_channel(QubitState.from_angles(0.0, 0.0), 0.3,
                                 pointer)
    assert rho0.purity() == pytest.approx(1.0, abs=1e-12)
    rho_id = qubit_monitor_channel(QubitState.from_angles(1.0, 0.0), 0.0,
                                   pointer)
    assert rho_id.purity() == pytest.approx(1.0, abs=1e-12)


def test_momentum_coupling_displaces_fundamental():
    # selecting the +1 axis eigenstate keeps only exp(-i alpha px), which
    # displaces the fundamental into a coherent state of size alpha/(2 sigma0)
    up = QubitState.from_amplitudes(1.0, 0.0)
    pointer = ModeState.basis(6, 0, 0)
    alpha, sigma0 = 0.05, 0.5
    s = WeakScenario(alpha, up, up, PauliAxis.z(), Coupling.MOMENTUM_X,
                     pointer, sigma0=sigma0)
    ex = final_pointer_exact(s)
    assert ex.success_prob == pytest.approx(1.0, abs=1e-6)
    overlap = abs(np.vdot(pointer.amplitudes, ex.pointer.amplitudes)) ** 2
    beta = alpha / (2.0 * sigma0)
    assert overlap == pytest.approx(math.exp(-beta ** 2), rel=1e-6)


def test_generator_matches_dense_oracle():
    # random states fill every shell, including the truncated ones s > cutoff
    rng = np.random.default_rng(20140519)
    alpha, sigma0 = 0.37, 0.7
    for cutoff in range(7):
        dim = basis_dim(cutoff)
        for coupling, dense in ((Coupling.OAM, lz_matrix(cutoff)),
                                (Coupling.MOMENTUM_X,
                                 momentum_matrix_x(cutoff, sigma0))):
            gen = Generator(coupling, cutoff, sigma0)
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            state = ModeState(cutoff, vec)
            assert np.max(np.abs(gen.apply(state) - dense.apply(state))) < 1e-12
            w, v = np.linalg.eigh(dense.entries)
            evolved = gen.evolve((alpha, -alpha), state)
            for row, a in zip(evolved, (alpha, -alpha)):
                want = v @ (np.exp(-1j * a * w) * (v.conj().T @ vec))
                assert np.max(np.abs(row - want)) < 1e-12
    gen = Generator(Coupling.OAM, 3)
    with pytest.raises(ValueError):
        gen.apply(ModeState.basis(4, 1, 1))
    with pytest.raises(ValueError):
        gen.evolve((0.1,), ModeState.basis(4, 1, 1))
    with pytest.raises(ValueError):
        Generator("oam", 3)


@pytest.mark.parametrize("coupling", list(Coupling))
def test_memoized_evolution_is_bitwise_the_uncached_one(coupling):
    # random states fill every shell, including the truncated ones s > cutoff;
    # the first call fills the memo and the repeated one reads it
    weak._coupling_eig.cache_clear()
    rng = np.random.default_rng(20140519)
    alphas = (0.37, -1e-3, 2.5)
    for cutoff in range(25):
        dim = basis_dim(cutoff)
        state = ModeState(cutoff, rng.normal(size=dim) + 1j * rng.normal(size=dim))
        for sigma0 in (0.7, 1.3):  # keys the p block only
            gen = Generator(coupling, cutoff, sigma0)
            want = evolve_uncached(gen, alphas, state)
            for _ in range(2):
                got = gen.evolve(alphas, state)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got.real), np.signbit(want.real))
                assert np.array_equal(np.signbit(got.imag), np.signbit(want.imag))


def test_block_memo_is_read_only_bounded_and_hit_on_repeat():
    info = weak._coupling_eig.cache_info()
    assert info.maxsize == weak._EIG_CACHE_SIZE
    gen = Generator(Coupling.OAM, 7)
    state = ModeState.basis(7, 3, 4)
    gen.evolve((1e-3,), state)
    before = weak._coupling_eig.cache_info()
    gen.evolve((1e-3,), state)
    gen.apply(state)
    after = weak._coupling_eig.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    for entry in (weak._coupling_eig(Coupling.OAM, 7, 7, None),
                  weak._coupling_eig(Coupling.MOMENTUM_X, 7, None, 0.7)):
        for array in entry:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0


def test_density_matrix_validation():
    cutoff = 2
    dim = basis_dim(cutoff)
    rng = np.random.default_rng(7)
    u = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]

    def rotated(eigenvalues):
        return u @ np.diag(eigenvalues) @ u.conj().T

    asymmetric = np.eye(dim) / dim
    asymmetric[0, 1] = 0.1
    indefinite = rotated([0.6, 0.6, -0.2] + [0.0] * (dim - 3))
    for entries in (asymmetric, 2.0 * np.eye(dim) / dim, indefinite,
                    rotated([1.0 + 1e-9, -1e-9] + [0.0] * (dim - 2))):
        with pytest.raises(InvalidStateError):
            DensityMatrix(cutoff, entries)
    # within the -1e-10 tolerance, including rank-1 boundary states
    for eigenvalues in ([1.0] + [0.0] * (dim - 1),
                        [1.0 + 1e-11, -1e-11] + [0.0] * (dim - 2)):
        DensityMatrix(cutoff, rotated(eigenvalues))
