import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import hermite as np_hermite

from hgsense.errors import UnsupportedOrderError
from hgsense.modes import (
    BeamGeometry,
    ModeIndex,
    ModeState,
    OperatorMatrix,
    basis_dim,
    beam_params,
    expectation,
    flat_index,
    hermite_eval,
    hg_wavefunction,
    index_to_mode,
    ladder_matrices,
    lz_matrix,
    momentum_matrix_x,
    momentum_variance_x,
    oam_variance,
    variance,
)


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
            assert index_to_mode(i, cutoff) == (m, n)
            seen.add(i)
    assert seen == set(range(basis_dim(cutoff)))
    with pytest.raises(ValueError):
        flat_index(7, 0, 6)


def test_beam_params_collapse_to_single_complex_form():
    # sigma, Gouy and curvature computed separately must satisfy
    # 1/(2 sigma^2) - i k/q == k / (b + i z)
    rng = np.random.default_rng(3)
    for _ in range(100):
        sigma0 = float(rng.uniform(0.2, 3.0))
        wavelength = float(rng.uniform(0.4, 1.6))
        z = float(rng.uniform(-50.0, 50.0))
        geom = BeamGeometry(sigma0, wavelength, z)
        p = beam_params(geom)
        expected = geom.wavenumber / (geom.rayleigh + 1j * z)
        assert p.q_inv == pytest.approx(expected, rel=1e-12)
        assert p.sigma >= sigma0
        assert abs(p.gouy) <= math.pi / 2


def test_beam_geometry_rayleigh_follows_the_waist():
    geom = BeamGeometry(1.0, 0.8)
    assert geom.rayleigh == 2.0 * geom.wavenumber * 1.0 ** 2
    with pytest.raises(ValueError, match="rayleigh"):  # 2 k sigma0^2 underflows
        BeamGeometry(1e-170, 0.8)


def test_ladder_commutator_on_interior_block():
    cutoff = 7
    ops = ladder_matrices(cutoff)
    comm = ops.ax.entries @ ops.ax_dag.entries - ops.ax_dag.entries @ ops.ax.entries
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
        assert np.max(np.abs(lz_matrix(cutoff).entries - want)) < 1e-14


def test_lz_action_on_1_1():
    cutoff = 3
    lz = lz_matrix(cutoff)
    out = lz.apply(ModeState.basis(cutoff, 1, 1))
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
    assert expectation(lz, state) == pytest.approx(0.0, abs=1e-12)
    assert variance(lz, state) == pytest.approx(oam_variance(ModeIndex(m, n)),
                                                rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("m", [0, 1, 3, 6])
def test_momentum_variance_formula(m):
    sigma0 = 0.8
    cutoff = m + 1
    px = momentum_matrix_x(cutoff, sigma0)
    state = ModeState.basis(cutoff, m, 0)
    assert expectation(px, state) == pytest.approx(0.0, abs=1e-12)
    assert variance(px, state) == pytest.approx(
        momentum_variance_x(ModeIndex(m, 0), sigma0), rel=1e-12)


def test_momentum_variance_ratio_nine():
    # (2m+1) scaling: order 4 carries 9x the momentum spread of order 0
    sigma0 = 1.3
    r = momentum_variance_x(ModeIndex(4, 0), sigma0) / momentum_variance_x(
        ModeIndex(0, 0), sigma0)
    assert r == pytest.approx(9.0, rel=1e-14)


def test_mode_state_json_roundtrip_and_layout():
    cutoff = 2
    state = ModeState.basis(cutoff, 1, 1)
    text = state.to_json()
    payload = json.loads(text)
    assert payload["index_order"] == "m*(cutoff+1)+n"
    back = ModeState.from_json(text)
    assert back.cutoff == cutoff
    assert np.array_equal(back.amplitudes, state.amplitudes)


def test_operator_matrix_hermitian_validation():
    dim = basis_dim(1)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 1] = 1.0
    with pytest.raises(ValueError):
        OperatorMatrix(1, mat, hermitian=True)


def test_mode_state_immutability_and_normalize():
    state = ModeState(1, np.array([3.0, 0.0, 0.0, 4.0]))
    assert state.norm == pytest.approx(5.0)
    unit = state.normalize()
    assert unit.norm == pytest.approx(1.0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 7.0


def test_mode_index_guards():
    with pytest.raises(ValueError):
        ModeIndex(-1, 0)
    with pytest.raises(UnsupportedOrderError):
        ModeIndex(65, 0)
    assert ModeIndex(2, 3).total == 5
