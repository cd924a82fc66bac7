import math
import re

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
from hgsense.fisher import (
    carrier_projection_povm,
    cfi_povm,
    qfi_mixed_monitor,
    qfi_pure_numeric,
    qfi_rotation_exact,
    qfi_rotation_exact_selections,
    sld_solve,
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
from reference import (
    apply_uncached,
    evolve_uncached,
    final_pointer_exact_uncached,
    final_pointer_first_order,
    first_order_pointer,
    qfi_rotation_exact_selections_per_order,
)

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
    # the angle takes check_epsilon's rule: (0, pi/2), a finite cot^2
    for epsilon in (nan, math.inf, -math.inf, 0.0, -0.1, math.pi / 2, 5.0):
        with pytest.raises(ConfigError,
                           match="post-selection angle .* must be finite"):
            post_selected_pair(epsilon)
    pre, post = post_selected_pair(0.1)
    pointer = ModeState.basis(2, 1, 1)
    for alpha in (nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM,
                         pointer)
    blank = np.full(basis_dim(2), nan, dtype=complex)
    with pytest.raises(ConfigError, match=r"^amplitude \(nan\+0j\) must be "
                                          r"finite$"):
        ModeState(2, blank)
    # a frozen vector that owns its data is adopted unchecked, as the
    # package's own are: a NaN one still reaches the probability guard
    blank.flags.writeable = False
    blank = ModeState(2, blank)
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
    out = lz_matrix(cutoff) @ ModeState.basis(cutoff, 2, 3).amplitudes
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

    def mismatch(alpha):  # x reaches 0.1 at alpha = 4e-3: no guard here
        s = WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
        fo = first_order_pointer(s)
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

    def mismatch(alpha):  # x reaches 0.16 at alpha = 8e-3: no guard here
        s = WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
        fo = first_order_pointer(s)
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
    assert np.trace(rho @ rho).real == pytest.approx((1.0 + ov2) / 2.0,
                                                     rel=1e-12)


def test_monitor_channel_pure_limits():
    pointer = ModeState.basis(3, 1, 1)
    rho0 = qubit_monitor_channel(QubitState.from_angles(0.0, 0.0), 0.3,
                                 pointer)
    assert np.trace(rho0 @ rho0).real == pytest.approx(1.0, abs=1e-12)
    rho_id = qubit_monitor_channel(QubitState.from_angles(1.0, 0.0), 0.0,
                                   pointer)
    assert np.trace(rho_id @ rho_id).real == pytest.approx(1.0, abs=1e-12)


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
            assert np.max(np.abs(gen.apply(state) - dense @ vec)) < 1e-12
            w, v = np.linalg.eigh(dense)
            evolved = gen.evolve((alpha, -alpha), state)
            for row, a in zip(evolved, (alpha, -alpha)):
                want = v @ (np.exp(-1j * a * w) * (v.conj().T @ vec))
                assert np.max(np.abs(row - want)) < 1e-12
    # a ModeState of this cutoff only: flat amplitudes, of its own size or
    # another truncation's, and states of other cutoffs are refused
    gen = Generator(Coupling.OAM, 3)
    for flat in (np.zeros(basis_dim(3), complex),
                 np.zeros(basis_dim(4), complex)):
        with pytest.raises(ConfigError, match="generator takes a ModeState, "
                                              "not a ndarray"):
            gen.apply(flat)
        with pytest.raises(ConfigError, match="generator takes a ModeState"):
            gen.evolve((0.1,), flat)
    for cutoff in (2, 4):
        with pytest.raises(ConfigError, match=f"truncations differ: cutoff "
                                              f"3 and {cutoff}"):
            gen.apply(ModeState.basis(cutoff, 1, 1))
        with pytest.raises(ConfigError, match="truncations differ"):
            gen.evolve((0.1,), ModeState.basis(cutoff, 1, 1))
    with pytest.raises(ConfigError, match="unknown coupling 'oam'"):
        Generator("oam", 3)


def test_generator_refuses_a_non_integer_cutoff_and_2d_alphas():
    # as ModeState does: a float or bool cutoff fails at construction with
    # ConfigError, not later in evolve with a bare numpy error
    for bad in (2.5, 2.0, True, np.float64(2.0)):
        with pytest.raises(ConfigError, match=f"cutoff {bad} must be an "
                                              "integer"):
            Generator(Coupling.OAM, bad)
    assert Generator(Coupling.OAM, np.int64(2)).cutoff == 2
    gen, pointer = Generator(Coupling.OAM, 2), ModeState.basis(2, 1, 1)
    with pytest.raises(ConfigError, match=r"alphas shape \(2, 1\) is not "
                                          "0-D or 1-D"):
        gen.evolve([[0.1], [-0.1]], pointer)
    assert np.array_equal(gen.evolve(0.1, pointer),
                          gen.evolve((0.1,), pointer))
    # no alpha, no row: an empty evolution keeps the flat width
    for coupling in Coupling:
        rows = Generator(coupling, 2).evolve((), pointer)
        assert rows.shape == (0, basis_dim(2)) and rows.dtype == complex


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


@pytest.mark.parametrize("coupling", list(Coupling))
def test_shell_indexed_apply_is_bitwise_the_uncached_one(coupling):
    # states on each single shell, the truncated ones s > cutoff included,
    # on no shell and on every shell, against a fresh block per call and
    # 2-D fancy indices
    rng = np.random.default_rng(20230601)
    for cutoff in range(25):
        gen = Generator(coupling, cutoff, 0.7)
        shells = np.add.outer(np.arange(cutoff + 1),
                              np.arange(cutoff + 1)).reshape(-1)
        masks = [shells == s for s in range(2 * cutoff + 1)]
        for on in masks + [shells < 0, shells >= 0]:
            vec = np.where(on, rng.normal(size=on.size)
                           + 1j * rng.normal(size=on.size), 0.0)
            state = ModeState(cutoff, vec)
            want, got = apply_uncached(gen, state), gen.apply(state)
            assert np.array_equal(got, want), (cutoff, on.nonzero())
            assert np.array_equal(np.signbit(got.view(float)),
                                  np.signbit(want.view(float)))


def test_evolve_refuses_a_phase_that_overflows():
    # eigh sorts w, so alpha times its two ends bounds every phase: 1e308
    # overflows on the shell-2 Lz block (w = -2, 0, 2) and 1e300 on a px
    # block of sigma0 1e-10 (w ~ 1e10); NaN is refused too. No numpy warning
    # may come first (warnings are errors here)
    pointer = ModeState.basis(2, 1, 1)
    for alpha in (1e308, -1e308, math.nan):
        with pytest.raises(ConfigError,
                           match=re.escape(f"alpha {abs(alpha)} times")):
            Generator(Coupling.OAM, 2).evolve((0.1, alpha), pointer)
    with pytest.raises(ConfigError, match="alpha 1e\\+300 times"):
        Generator(Coupling.MOMENTUM_X, 2, 1e-10).evolve((1e300,), pointer)
    pre, post = post_selected_pair(0.1)
    with pytest.raises(ConfigError, match="alpha 1e\\+308 times"):
        final_pointer_exact(WeakScenario(1e308, pre, post, PauliAxis.z(),
                                         Coupling.OAM, pointer))
    with pytest.raises(ConfigError, match="alpha 1e\\+308 times"):
        qfi_rotation_exact(pre, post, PauliAxis.z(), 1e308, ModeIndex(2, 2))
    # the exact sweep evolves on its shell block with evolve's guard text,
    # which the bounds CLI's --alpha-rad 1e308 refusal prints
    with pytest.raises(ConfigError) as want:
        Generator(Coupling.OAM, 6).evolve((1e308, -1e308),
                                          ModeState.basis(6, 3, 3))
    with pytest.raises(ConfigError) as got:
        qfi_rotation_exact_selections([(pre, post)], PauliAxis.z(), 1e308,
                                      [ModeIndex(3, 3)])
    assert str(got.value) == str(want.value)
    # a phase that stays finite evolves, however large
    rows = Generator(Coupling.OAM, 2).evolve((1e300, -1e300), pointer)
    assert np.all(np.isfinite(rows))
    assert np.linalg.norm(rows, axis=1) == pytest.approx([1.0, 1.0])


def test_block_memo_is_read_only_bounded_and_hit_on_repeat():
    memo = weak._coupling_eig
    assert memo.cache_info().maxsize == weak._EIG_CACHE_SIZE
    gen = Generator(Coupling.OAM, 7)
    state = ModeState.basis(7, 3, 4)
    gen.evolve((1e-3,), state)
    before = memo.cache_info()
    gen.evolve((1e-3,), state)  # reads the eigh pair
    gen.apply(state)  # reads the block that pair was built from
    after = memo.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    for entry in (weak._coupling_eig(Coupling.OAM, 7, 7, None),
                  weak._coupling_eig(Coupling.MOMENTUM_X, 7, None, 0.7)):
        # block, eigh pair, v^dagger, extreme |w|, indices, rows' slice key
        assert len(entry) == 7
        block, w, v, vh, w_peak, index, rows = entry
        for array in (block, w, v, vh, index):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        assert vh.flags.f_contiguous and np.array_equal(vh, v.conj().T)
        assert type(w_peak) is float and w_peak == np.abs(w).max()
    # an Lz shell's slice key reaches the rows of its flat indices, in
    # order, on the truncated shells too; the p block has none
    assert entry.rows is None
    for cutoff, shell in ((7, 7), (7, 12), (7, 14), (0, 0), (1, 2)):
        lz = weak._coupling_eig(Coupling.OAM, cutoff, shell, None)
        flat = np.arange(3 * (cutoff + 1) ** 2).reshape(3, -1)
        assert np.array_equal(flat[lz.rows], flat[:, lz.index])
    # the selection memo: bounded, hit by equal selections, and keyed on
    # bits, so a -0.0 imaginary part is a key of its own
    memo = weak._selection_memo
    memo.cache_clear()
    assert memo.cache_info().maxsize == weak._SELECTION_CACHE_SIZE
    pre, post = post_selected_pair(0.1)
    twin = QubitState(complex(pre.c0, -0.0), pre.c1)
    assert twin == pre
    WeakScenario(1e-3, pre, post, PauliAxis.z(), Coupling.OAM, state)
    WeakScenario(2e-3, *post_selected_pair(0.1), PauliAxis.z(),
                 Coupling.OAM, state)
    WeakScenario(1e-3, twin, post, PauliAxis.z(), Coupling.OAM, state)
    info = memo.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
    for k in range(weak._SELECTION_CACHE_SIZE + 1):
        WeakScenario(1e-3, *post_selected_pair(0.1 + 1e-3 * k),
                     PauliAxis.z(), Coupling.OAM, state)
    assert memo.cache_info().currsize == weak._SELECTION_CACHE_SIZE


def test_stencil_fisher_routes_read_each_shell_eigh_again():
    # two rounds of the numeric QFI, the carrier CFI and the monitor QFI on
    # HG(3, 4): the second round reads the memo only, and gives the same
    # finite values
    idx = ModeIndex(3, 4)
    pre, post = post_selected_pair(0.1)
    pointer = ModeState.basis(idx.total, idx.m, idx.n)

    def family(alpha):
        return final_pointer_exact(WeakScenario(
            alpha, pre, post, PauliAxis.z(), Coupling.OAM, pointer)).pointer

    readout = carrier_projection_povm(carrier_state(idx, idx.total))
    qubit = QubitState.from_angles(1.1, 0.0)
    weak._coupling_eig.cache_clear()
    rounds = []
    for _ in range(2):
        before = weak._coupling_eig.cache_info()
        rounds.append((qfi_pure_numeric(family, 1e-3),
                       cfi_povm(family, 1e-3, readout),
                       qfi_mixed_monitor(qubit, 1e-3, pointer)))
        after = weak._coupling_eig.cache_info()
    assert all(math.isfinite(v) for v in rounds[0])
    assert rounds[1] == rounds[0]
    assert after.hits > before.hits and after.misses == before.misses


@pytest.mark.parametrize("coupling", list(Coupling))
def test_cached_selections_and_shells_are_bitwise_the_uncached_route(
        coupling):
    # one ModeState (its shells found once) and one selection pair reused
    # across calls, then fresh equal ones on every call, against selection
    # amplitudes formed on each call and the uncached evolution
    epsilon, axis, m, n = 0.08, PauliAxis(0.4, 5.9), 3, 4
    cutoff = m + n + (coupling is Coupling.MOMENTUM_X)
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(cutoff, m, n)

    def reused(a, route=final_pointer_exact):
        return route(WeakScenario(a, pre, post, axis, coupling, pointer))

    def fresh(a, route=final_pointer_exact):
        return route(WeakScenario(a, *post_selected_pair(epsilon), axis,
                                  coupling, ModeState.basis(cutoff, m, n)))

    def uncached(a):
        return fresh(a, final_pointer_exact_uncached)

    readout = carrier_projection_povm(
        carrier_state(ModeIndex(m, n), cutoff) if coupling is Coupling.OAM
        else ModeState.basis(cutoff, m + 1, n))
    for family in (reused, fresh):
        for alpha in (1e-3, -0.02, 0.7):
            got, want = family(alpha), uncached(alpha)
            assert (got.pointer.amplitudes.tobytes()
                    == want.pointer.amplitudes.tobytes())
            assert got.success_prob.hex() == want.success_prob.hex()
        for fisher in (qfi_pure_numeric, lambda f, a: cfi_povm(f, a, readout)):
            got = fisher(lambda a: family(a).pointer, 1e-3)
            want = fisher(lambda a: uncached(a).pointer, 1e-3)
            assert got.hex() == want.hex(), (family, fisher)
    # the same pair with -0.0 imaginary parts: equal, with other bits, so
    # read from its own memo key, and bitwise its uncached route
    twins = [QubitState(complex(q.c0, -0.0), complex(q.c1, -0.0))
             for q in (pre, post)]
    assert twins == [pre, post]
    assert twins[0].vector.tobytes() != pre.vector.tobytes()
    for alpha in (1e-3, -0.02, 0.7):
        s = WeakScenario(alpha, *twins, axis, coupling, pointer)
        got, want = final_pointer_exact(s), final_pointer_exact_uncached(s)
        assert (got.pointer.amplitudes.tobytes()
                == want.pointer.amplitudes.tobytes())
        assert got.success_prob.hex() == want.success_prob.hex()
    pairs = [(pre, post), post_selected_pair(0.3), tuple(twins)]
    for indices in ([ModeIndex(m, n)], [ModeIndex(m, n), ModeIndex(2, 2)]):
        got = qfi_rotation_exact_selections(pairs, axis, 0.02, indices)
        assert got == [qfi_rotation_exact_selections_per_order(
            pairs, axis, 0.02, idx) for idx in indices]
    # what is cached is read-only, and kept
    assert pointer.shells is pointer.shells
    assert pointer.shells.tolist() == [m + n]
    for array in (pre.vector, post.vector, axis.matrix, pointer.shells):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert pre.vector is pre.vector and axis.matrix is axis.matrix


def test_qfi_and_cfi_of_one_family_evolve_its_seven_points_once(
        monkeypatch):
    # a rotation-exact op: the numeric QFI, then the carrier CFI, of one
    # basis-pointer family read the same seven stencil points, so the
    # pointer memo evolves each once, and both values are bitwise those of
    # the uncached route
    idx, alpha = ModeIndex(3, 4), 1e-3
    pre, post = post_selected_pair(0.05)
    pointer = ModeState.basis(idx.total, idx.m, idx.n)
    readout = carrier_projection_povm(carrier_state(idx, idx.total))

    def family(a, route=final_pointer_exact):
        return route(WeakScenario(a, pre, post, PauliAxis.z(), Coupling.OAM,
                                  pointer)).pointer

    def both(fam):
        return qfi_pure_numeric(fam, alpha), cfi_povm(fam, alpha, readout)

    calls = []
    evolve = Generator.evolve

    def counted(self, alphas, state):
        calls.append(alphas)
        return evolve(self, alphas, state)

    monkeypatch.setattr(Generator, "evolve", counted)
    got = both(family)
    assert len(calls) == 7
    want = both(lambda a: family(a, final_pointer_exact_uncached))
    assert [v.hex() for v in got] == [v.hex() for v in want]


def test_exact_pointer_memo_keys_on_bits_and_keeps_no_refusal():
    memo = weak._pointer_memo
    memo.cache_clear()
    assert memo.cache_info().maxsize == weak._POINTER_CACHE_SIZE >= 7
    pre, post = post_selected_pair(0.1)
    pointer = ModeState.basis(5, 2, 3)

    def scenario(alpha, coupling=Coupling.OAM, sigma0=1.0):
        return WeakScenario(alpha, pre, post, PauliAxis.z(), coupling,
                            pointer, sigma0)

    # a+- formed by the brackets carry no -0.0 (each sum starts at +0.0),
    # so the twin's selection is set on the scenario: equal a+-, other bits
    plus, minus = scenario(1e-3).selection
    twin = scenario(1e-3)
    object.__setattr__(twin, "selection", (complex(plus.real, -0.0), minus))
    assert twin.selection == scenario(1e-3).selection
    keys = [scenario(0.0), scenario(-0.0), scenario(1e-3), twin,
            scenario(1e-3, Coupling.MOMENTUM_X), scenario(1e-3, sigma0=2.0)]
    for count, s in enumerate(keys, 1):
        got = final_pointer_exact(s)
        assert memo.cache_info().misses == count  # a key of its own
        assert final_pointer_exact(s) is got
        want = final_pointer_exact_uncached(s)
        assert (got.pointer.amplitudes.tobytes()
                == want.pointer.amplitudes.tobytes())
        assert got.success_prob.hex() == want.success_prob.hex()
        assert not got.pointer.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            got.pointer.amplitudes[0] = 0
    # a refusal is raised again, not kept
    plus_state = QubitState.plus()
    dark = WeakScenario(math.pi / 2, plus_state, plus_state, PauliAxis.z(),
                        Coupling.OAM, ModeState.basis(1, 1, 0))
    for _ in range(2):
        with pytest.raises(TotalExtinctionError):
            final_pointer_exact(dark)
    assert memo.cache_info().currsize == len(keys)
    for k in range(2 * weak._POINTER_CACHE_SIZE):
        final_pointer_exact(scenario(1e-3 * (k + 2)))
    assert memo.cache_info().currsize == weak._POINTER_CACHE_SIZE


def test_rotation_family_is_the_exact_pointer_and_its_derivative():
    # the family fisher's exact QFI reads is final_pointer_exact's before it
    # normalizes, on the eigenvectors of its shell: mapped back by them it
    # is that pointer times sqrt(<phi|phi>) to 1e-14, and <phi|phi> its
    # success probability to 1e-14 relative (both measured within 6.7e-16;
    # final_pointer_exact's branches cancel); its closed-form derivative is
    # the fourth-order stencil of that family to 1e-9, and its Fisher
    # information the stencil QFI of the normalized family to 1e-9 relative
    # (measured within 1.6e-12)
    indices = [ModeIndex(2, 3), ModeIndex(1, 1)]
    alpha, h = 1e-3, 1e-5
    scenarios = [[WeakScenario(alpha, pre, post, PauliAxis.z(), Coupling.OAM,
                               ModeState.basis(idx.total, idx.m, idx.n))
                  for pre, post in map(post_selected_pair, (0.1, 0.05))]
                 for idx in indices]
    selections = [s.selection for s in scenarios[0]]
    starts, sizes, phi, dphi, norm2, overlap = (
        weak.rotation_family_eigenbasis(indices, alpha, selections))
    assert norm2.shape == overlap.shape == (2, 2)
    assert phi.shape == dphi.shape == (2, 6 + 3)
    assert starts.tolist() == [0, 6] and sizes.tolist() == [6, 3]

    def family_at(a):
        return weak.rotation_family_eigenbasis(indices, a, selections)[2]

    stencil = (family_at(alpha - 2 * h) - 8 * family_at(alpha - h)
               + 8 * family_at(alpha + h) - family_at(alpha + 2 * h)) / (12 * h)
    np.testing.assert_allclose(dphi, stencil, rtol=0, atol=1e-9)
    for k, (idx, row) in enumerate(zip(indices, scenarios)):
        entry = weak._coupling_eig(Coupling.OAM, idx.total, idx.total, None)
        part = slice(starts[k], starts[k] + sizes[k])
        for e, s in enumerate(row):
            want = final_pointer_exact(s)
            assert norm2[e, k] == pytest.approx(want.success_prob, rel=1e-14)
            flat = np.zeros((idx.total + 1) ** 2, dtype=complex)
            flat[entry.index[:, 0]] = entry.v @ phi[e, part]
            np.testing.assert_allclose(
                flat / math.sqrt(norm2[e, k]), want.pointer.amplitudes,
                rtol=0, atol=1e-14)
            assert overlap[e, k] == pytest.approx(
                np.vdot(phi[e, part], dphi[e, part]), rel=1e-15)
            qfi = qfi_pure_numeric(lambda a: final_pointer_exact(WeakScenario(
                a, s.pre, s.post, s.axis, s.coupling, s.pointer)).pointer,
                alpha)
            assert qfi_rotation_exact(s.pre, s.post, s.axis, alpha,
                                      idx) == pytest.approx(qfi, rel=1e-9)
    with pytest.raises(ConfigError, match="is not finite"):
        weak.rotation_family_eigenbasis(indices, math.nan, selections)


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
            sld_solve(entries, np.zeros((dim, dim)))
    # within the -1e-10 tolerance, including rank-1 boundary states
    for eigenvalues in ([1.0] + [0.0] * (dim - 1),
                        [1.0 + 1e-11, -1e-11] + [0.0] * (dim - 2)):
        sld_solve(rotated(eigenvalues), np.zeros((dim, dim)))
