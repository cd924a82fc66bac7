import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import hermite as np_hermite

from hgsense.errors import ConfigError, UnsupportedOrderError
from hgsense.fields import WINDOW_SIGMA
from hgsense.modes import (
    MAX_HERMITE_ORDER,
    ModeIndex,
    ModeState,
    basis_dim,
    flat_index,
    hermite_eval,
    hg_factor,
    hg_wavefunction,
    ladder_matrices,
    lz_matrix,
    momentum_matrix_x,
    momentum_variance_x,
    oam_fourth_moment,
    oam_variance,
    second_moment,
    variance,
)
from hgsense.weak import Coupling, Generator, carrier_state
from reference import dense_variance


@settings(max_examples=80, deadline=None)
@given(order=st.integers(0, 40), x=st.floats(-8.0, 8.0))
def test_hermite_matches_numpy_oracle(order, x):
    coeffs = np.zeros(order + 1)
    coeffs[order] = 1.0
    expected = np_hermite.hermval(x, coeffs)
    got = hermite_eval(order, x)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_hermite_array_input_and_order_guard():
    xs = np.linspace(-3, 3, 7)
    vals = hermite_eval(3, xs)
    assert np.allclose(vals, 8 * xs ** 3 - 12 * xs)
    with pytest.raises(UnsupportedOrderError):
        hermite_eval(65, 0.5)
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.5)


@pytest.mark.parametrize("m,n", [(0, 0), (1, 0), (2, 3), (5, 5)])
def test_wavefunction_riemann_norm(m, n):
    # 8 sigma window, fine pitch: Riemann sum of |psi|^2 should reach 1
    sigma0 = 0.7
    xs = np.linspace(-8 * sigma0, 8 * sigma0, 801)
    dx = xs[1] - xs[0]
    x, y = np.meshgrid(xs, xs)
    psi = hg_wavefunction(ModeIndex(m, n), sigma0, x, y)
    assert np.sum(psi ** 2) * dx ** 2 == pytest.approx(1.0, abs=1e-6)


def test_wavefunction_scalar_and_guard():
    val = hg_wavefunction(ModeIndex(0, 0), 1.0, 0.0, 0.0)
    assert isinstance(val, float)
    assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi))
    with pytest.raises(ValueError):
        hg_wavefunction(ModeIndex(0, 0), -1.0, 0.0, 0.0)


def test_flat_index_roundtrip():
    cutoff = 6
    seen = set()
    for m in range(cutoff + 1):
        for n in range(cutoff + 1):
            i = flat_index(m, n, cutoff)
            assert divmod(i, cutoff + 1) == (m, n)
            seen.add(i)
    assert seen == set(range(basis_dim(cutoff)))
    with pytest.raises(ValueError):
        flat_index(7, 0, 6)


def test_hg_factor_refuses_a_waist_without_a_finite_square():
    # sigma0^2 underflows to zero, or overflows
    with pytest.raises(ValueError, match="sigma0 1e-170 must be positive with "
                                         "a finite, nonzero square"):
        hg_factor(0, 1e-170, 0.0)
    with pytest.raises(ValueError, match=r"sigma0 1e\+160 must be positive with "
                                         "a finite, nonzero square"):
        hg_factor(0, 1e160, 0.0)
    for sigma0 in (1e160, 1e-170, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite, nonzero square"):
            hg_factor(0, sigma0, 0.0)


def test_ladder_commutator_on_interior_block():
    cutoff = 7
    ax, ax_dag, _, _ = ladder_matrices(cutoff)
    comm = ax @ ax_dag - ax_dag @ ax
    for m in range(cutoff):  # interior in m
        for n in range(cutoff + 1):
            i = flat_index(m, n, cutoff)
            col = comm[:, i]
            assert col[i] == pytest.approx(1.0, abs=1e-12)
            assert np.sum(np.abs(col)) == pytest.approx(1.0, abs=1e-12)


def test_lz_equals_ladder_product_oracle():
    # the product i(ax ay+ - ax+ ay) against the entry-wise ladder action
    # Lz|m,n> = i sqrt(m(n+1))|m-1,n+1> - i sqrt((m+1)n)|m+1,n-1>
    for cutoff in (1, 2, 5, 8):
        want = np.zeros((basis_dim(cutoff),) * 2, dtype=complex)
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                col = flat_index(m, n, cutoff)
                if m >= 1 and n < cutoff:
                    want[flat_index(m - 1, n + 1, cutoff), col] = \
                        1j * math.sqrt(m * (n + 1))
                if n >= 1 and m < cutoff:
                    want[flat_index(m + 1, n - 1, cutoff), col] = \
                        -1j * math.sqrt((m + 1) * n)
        # sqrt(m*(n+1)) vs sqrt(m)*sqrt(n+1) differ in the last ulp
        lz, px = lz_matrix(cutoff), momentum_matrix_x(cutoff, 0.7)
        assert np.max(np.abs(lz - want)) < 1e-14
        # both builders give exactly Hermitian matrices
        assert np.array_equal(lz, lz.conj().T)
        assert np.array_equal(px, px.conj().T)


def test_lz_action_on_1_1():
    cutoff = 3
    lz = lz_matrix(cutoff)
    out = lz @ ModeState.basis(cutoff, 1, 1).amplitudes
    expected = np.zeros(basis_dim(cutoff), dtype=complex)
    expected[flat_index(0, 2, cutoff)] = 1j * math.sqrt(2)
    expected[flat_index(2, 0, cutoff)] = -1j * math.sqrt(2)
    assert np.allclose(out, expected, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(m=st.integers(0, 6), n=st.integers(0, 6))
def test_lz_variance_formula_interior(m, n):
    cutoff = max(m, n) + 1
    lz = lz_matrix(cutoff)
    state = ModeState.basis(cutoff, m, n)
    assert np.vdot(state.amplitudes, lz @ state.amplitudes) == pytest.approx(
        0.0, abs=1e-12)
    assert dense_variance(lz, state) == pytest.approx(
        oam_variance(ModeIndex(m, n)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("m, n", [
    (1, 0), (1, 1), (2, 1), (3, 3), (5, 5), (6, 2), (7, 0), (9, 4), (4, 11),
    (10, 10), (12, 3), (20, 20), (30, 30)])
def test_lz_fourth_moment_closed_form(m, n):
    # <Lz^4> = |Lz^2 psi|^2 by the shell kernel, Lz applied twice; the shell
    # m + n lies whole inside the cutoff m + n
    op = Generator(Coupling.OAM, m + n)
    lz_psi = op.apply(ModeState.basis(m + n, m, n))
    lz2_psi = op.apply(ModeState(m + n, lz_psi))
    assert oam_fourth_moment(ModeIndex(m, n)) == pytest.approx(
        np.vdot(lz2_psi, lz2_psi).real, rel=1e-12)


@pytest.mark.parametrize("m", [0, 1, 3, 6])
def test_momentum_variance_formula(m):
    sigma0 = 0.8
    cutoff = m + 1
    px = momentum_matrix_x(cutoff, sigma0)
    state = ModeState.basis(cutoff, m, 0)
    assert np.vdot(state.amplitudes, px @ state.amplitudes) == pytest.approx(
        0.0, abs=1e-12)
    assert dense_variance(px, state) == pytest.approx(
        momentum_variance_x(ModeIndex(m, 0), sigma0), rel=1e-12)


def test_momentum_variance_refuses_a_square_out_of_range():
    # 1e160 ** 2 overflows and 1e-170 ** 2 underflows to zero
    for sigma0 in (1e160, 1e-170):
        with pytest.raises(ValueError, match="finite, nonzero square"):
            momentum_variance_x(ModeIndex(1, 0), sigma0)
    # 1e-160 ** 2 is a subnormal: the square is nonzero, the variance inf
    with pytest.raises(ConfigError, match="momentum variance inf must be finite"):
        momentum_variance_x(ModeIndex(1, 0), 1e-160)


def test_moments_refuse_a_non_finite_result():
    # a subnormal sigma0 square passes the beam-waist rule, but the px block
    # scales as 1 / sigma0, so both moments overflow to inf
    px = Generator(Coupling.MOMENTUM_X, 2, 1e-160)
    state = ModeState.basis(2, 1, 0)
    with pytest.raises(ConfigError, match="variance inf must be finite"):
        variance(px, state)
    with pytest.raises(ConfigError, match="second moment inf must be finite"):
        second_moment(px, state)


def test_momentum_variance_ratio_nine():
    # (2m+1) scaling: order 4 carries 9x the momentum spread of order 0
    sigma0 = 1.3
    r = momentum_variance_x(ModeIndex(4, 0), sigma0) / momentum_variance_x(
        ModeIndex(0, 0), sigma0)
    assert r == pytest.approx(9.0, rel=1e-14)


def test_mode_state_immutability_and_normalize():
    state = ModeState(1, np.array([3.0, 0.0, 0.0, 4.0]))
    assert state.norm == pytest.approx(5.0)
    unit = state.normalize()
    assert unit.norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 7.0


def test_mode_state_refuses_non_finite_amplitudes_and_adopts_frozen_ones():
    # [nan, 0, 0, 0] was accepted, and [inf, 0, 0, 0] with an infinite norm
    for bad, shown in ((math.nan, "(nan+0j)"), (math.inf, "(inf+0j)"),
                       (complex(0.0, -math.inf), "-infj")):
        with pytest.raises(ConfigError) as refused:
            ModeState(1, [bad, 0.0, 0.0, 0.0])
        assert str(refused.value) == f"amplitude {shown} must be finite"
    # a caller's vector is copied; a frozen complex one that owns its data
    # is taken as it is, as the package's producers hand theirs over
    vec = np.array([0.6, 0.0, 0.0, 0.8j])
    assert not np.shares_memory(ModeState(1, vec).amplitudes, vec)
    vec.flags.writeable = False
    assert ModeState(1, vec).amplitudes is vec
    state = ModeState.basis(2, 1, 1)
    for made in (state, state.normalize(), carrier_state(ModeIndex(1, 1), 2)):
        assert ModeState(2, made.amplitudes).amplitudes is made.amplitudes


def test_shells_are_found_once_read_only_and_set_for_basis_states():
    # a basis state is built with its one shell; any other state finds its
    # shells on first use, sorted and without repeats, and keeps them
    rng = np.random.default_rng(11)
    for cutoff in range(7):
        ids = np.add.outer(np.arange(cutoff + 1), np.arange(cutoff + 1))
        for m in range(cutoff + 1):
            for n in range(cutoff + 1):
                basis = ModeState.basis(cutoff, m, n)
                found = ModeState(cutoff, basis.amplitudes).shells
                assert basis.shells.tobytes() == found.tobytes() == ids[
                    m, n].reshape(1).astype(np.intp).tobytes()
        vec = np.where(rng.random(basis_dim(cutoff)) < 0.3, 1.0 + 1j, 0.0)
        state = ModeState(cutoff, vec)
        want = sorted({int(i) for i in ids.ravel()[vec != 0]})
        assert state.shells.tolist() == want and state.shells is state.shells
        for shells in (state.shells, basis.shells):
            assert not shells.flags.writeable


def test_mode_index_guards():
    with pytest.raises(ValueError):
        ModeIndex(-1, 0)
    with pytest.raises(UnsupportedOrderError):
        ModeIndex(65, 0)
    assert ModeIndex(2, 3).total == 5
    assert ModeIndex(np.int64(2), np.int32(3)).total == 5
    assert ModeState(np.int64(1), np.ones(4)).cutoff == 1


@pytest.mark.parametrize("make, args", [
    (ModeIndex, (2.5, 1)),
    (ModeIndex, (1, 2.0)),
    (ModeIndex, (True, 0)),
    (ModeIndex, (0, np.float64(3.0))),
    (ModeState, (1.5, np.zeros(4))),
    (ModeState, (True, np.zeros(4))),
])
def test_orders_and_cutoffs_must_be_integers(make, args):
    # ModeIndex(2.5, 1) was accepted, and oam_variance then read 8.5
    with pytest.raises(ConfigError, match=" must be an integer$"):
        make(*args)


@pytest.mark.parametrize("call, match", [
    # a float order raised a bare TypeError, and True read as H_1
    (lambda: hermite_eval(2.5, 0.3), "polynomial order 2.5 must be an integer"),
    (lambda: hermite_eval(np.float64(3.0), 0.3), "order 3.0 must be an integer"),
    (lambda: hermite_eval(True, 0.3), "order True must be an integer"),
    (lambda: hg_factor(2.5, 1.0, [0.1]), "order 2.5 must be an integer"),
    (lambda: hg_factor(False, 1.0, [0.1]), "order False must be an integer"),
    # math.factorial's plain ValueError came first
    (lambda: hg_factor(-1, 1.0, [0.1]), r"order -1 must be finite and lie in"),
    # NaN came back as NaN, and inf as NaN with a RuntimeWarning
    (lambda: hermite_eval(3, math.nan), "argument nan must be finite"),
    (lambda: hermite_eval(3, [0.5, -math.inf]), "argument -inf must be finite"),
    (lambda: hg_factor(3, 1.0, [0.0, math.nan]), "argument nan must be finite"),
    (lambda: hg_factor(0, 1.0, math.inf), "argument inf must be finite"),
])
def test_hermite_orders_must_be_integers_and_arguments_finite(call, match):
    with pytest.raises(ConfigError, match=match):
        call()
    assert hermite_eval(np.int64(3), 0.5) == hermite_eval(3, 0.5) == -5.0


def test_hg_factor_refuses_an_overflowing_scaled_argument():
    # x / (sqrt2 sigma0) overflowed with numpy's RuntimeWarning, and without
    # -W error the refusal then named inf, a value the caller never passed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([1e200], [0.0, -1e200], 1e200):
            with pytest.raises(ConfigError, match=(
                    r"^x / \(sqrt2 sigma0\) overflows for x up to 1e\+200 "
                    r"at sigma0 1e-150$")):
                hg_factor(3, 1e-150, x)
        assert math.isfinite(hg_factor(3, 1e-150, 1e-200))


def test_hermite_refuses_an_overflowing_recurrence():
    # H_3(1e200) overflowed with numpy's RuntimeWarning, and without -W
    # error hg_factor's far sample came back NaN: inf times a zero Gaussian
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, big in ((lambda: hermite_eval(3, 1e200), r"1e\+200"),
                          (lambda: hg_factor(3, 1.0, [1e200, 1.0]),
                           r"7.07106781186547\d*e\+199"),
                          (lambda: hermite_eval(1, [-1e308]), r"1e\+308")):
            with pytest.raises(ConfigError, match=(
                    r"^H_\d\(x\) overflows for \|x\| up to " + big + "$")):
                call()
        # no window of +-WINDOW_SIGMA sigma0 is refused at the top order
        for sigma0 in (1e-6, 1.0, 1e6):
            edge = WINDOW_SIGMA * sigma0
            x = np.linspace(-edge, edge, 4097)
            assert np.isfinite(hg_factor(MAX_HERMITE_ORDER, sigma0, x)).all()
