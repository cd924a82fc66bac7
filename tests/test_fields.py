"""Sampled-field checks: synthesis, rotation, inner products, file formats.

The rotation tests double as the bridge between the operator algebra and the
optics: a physically rotated grid must deposit the signal predicted by the
generator matrix, with no shared code between the two routes.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import j1 as bessel_j1
from scipy.special import jvp

from hgsense.errors import (
    CoverageError,
    GridMismatchError,
    UnreachableAmplitudeError,
    UnsupportedOrderError,
)
from hgsense.fields import (
    DEFAULT_WAVELENGTH,
    J1_PEAK,
    J1_PEAK_X,
    MIN_COVERAGE_SIGMA,
    FieldGrid,
    PhaseMap,
    _J1_BLOCK,
    _J1_INVERSE_POLY,
    _j1_inverse_array,
    _unit_power,
    first_order_extract,
    gaussian_illumination,
    hologram_phase,
    j1_inverse,
    mode_purity,
    modulate,
    overlap,
    read_field_binary,
    read_phase_binary,
    rotate_field,
    synthesize_hg_field,
    synthesize_superposition,
    write_field_binary,
    write_phase_binary,
    write_phase_pgm,
)
from hgsense.modes import (
    BeamGeometry,
    ModeIndex,
    ModeState,
    basis_dim,
    beam_params,
    flat_index,
    hg_wavefunction,
    oam_variance,
)
from hgsense.weak import carrier_state
from reference import (
    mode_purity_2d,
    rotate_field_fancy,
    write_phase_pgm_whole_grid,
)

SIDE = 256  # plenty for sub-percent overlaps, keeps the suite quick


def test_grid_modes_orthonormal():
    modes = [ModeIndex(0, 0), ModeIndex(1, 0), ModeIndex(1, 1),
             ModeIndex(2, 1), ModeIndex(3, 3)]
    fields = [synthesize_hg_field(idx, 1.0, side=SIDE) for idx in modes]
    for i, a in enumerate(fields):
        for j, b in enumerate(fields):
            want = 1.0 if i == j else 0.0
            assert abs(overlap(a, b) - want) < 1e-6


def _direct_field(terms, sigma0: float, grid: FieldGrid) -> np.ndarray:
    """sum amp * psi_mn on a full meshgrid, at unit grid power."""
    x, y = np.meshgrid(grid.coords, grid.coords, indexing="xy")
    f = sum(amp * hg_wavefunction(idx, sigma0, x, y) for idx, amp in terms)
    return f / math.sqrt(float(np.sum(np.abs(f) ** 2)) * grid.pitch ** 2)


def test_separable_synthesis_matches_direct_evaluation():
    sigma0 = 0.8
    for idx in (ModeIndex(0, 0), ModeIndex(2, 1), ModeIndex(1, 5)):
        grid = synthesize_hg_field(idx, sigma0, side=SIDE)
        want = _direct_field([(idx, 1.0)], sigma0, grid)
        assert np.max(np.abs(grid.samples - want)) <= 1e-12 * np.max(np.abs(want))
    cutoff = 6
    rng = np.random.default_rng(7)
    amp = rng.normal(size=basis_dim(cutoff)) + 1j * rng.normal(size=basis_dim(cutoff))
    grid = synthesize_superposition(ModeState(cutoff, amp), sigma0, side=SIDE)
    terms = [(ModeIndex(*divmod(i, cutoff + 1)), a) for i, a in enumerate(amp)]
    want = _direct_field(terms, sigma0, grid)
    assert np.max(np.abs(grid.samples - want)) <= 1e-12 * np.max(np.abs(want))


def test_superposition_needs_only_orders_with_amplitude():
    # the truncation may exceed the Hermite order cap as long as the support
    # stays below it
    wide, narrow = np.zeros(basis_dim(70), complex), np.zeros(basis_dim(64), complex)
    for m, n, a in ((64, 1, 0.6), (2, 3, 0.8j)):
        wide[flat_index(m, n, 70)] = narrow[flat_index(m, n, 64)] = a
    got = synthesize_superposition(ModeState(70, wide), 1.0, side=SIDE)
    want = synthesize_superposition(ModeState(64, narrow), 1.0, side=SIDE)
    assert np.array_equal(got.samples, want.samples)
    wide[flat_index(65, 0, 70)] = 0.1
    with pytest.raises(UnsupportedOrderError):
        synthesize_superposition(ModeState(70, wide), 1.0, side=SIDE)


def test_rotated_constant_field_reads_zero_outside_and_one_inside():
    side = 128
    flat = FieldGrid(np.ones((side, side)), 16.0 / side, 1.0)
    angle = 0.3
    got = rotate_field(flat, angle).samples
    assert np.all(got.imag == 0.0)
    x, y = flat.coords[None, :], flat.coords[:, None]
    half = (side - 1) / 2.0
    col = np.floor((math.cos(angle) * x + math.sin(angle) * y) / flat.pitch + half)
    row = np.floor((-math.sin(angle) * x + math.cos(angle) * y) / flat.pitch + half)
    inside = lambda k: (k >= 0) & (k < side)
    all_in = inside(col) & inside(col + 1) & inside(row) & inside(row + 1)
    none_in = ~((inside(col) | inside(col + 1)) & (inside(row) | inside(row + 1)))
    assert all_in.sum() > 0 and none_in.sum() > 0
    # the four bilinear weights sum to one up to rounding
    assert np.max(np.abs(got[all_in] - 1.0)) <= 4 * np.finfo(float).eps
    assert np.all(got[none_in] == 0.0)
    edge = got.real[~all_in & ~none_in]
    assert np.all((edge >= 0.0) & (edge <= 1.0))


def test_right_angle_rotation_is_exact():
    f10 = synthesize_hg_field(ModeIndex(1, 0), 1.0, side=SIDE)
    f01 = synthesize_hg_field(ModeIndex(0, 1), 1.0, side=SIDE)
    assert overlap(f01, rotate_field(f10, math.pi / 2)) == pytest.approx(
        1.0, abs=1e-12)
    assert overlap(f01, rotate_field(f10, -math.pi / 2)) == pytest.approx(
        -1.0, abs=1e-12)


def test_small_angle_rotation_power_and_inverse():
    f = synthesize_hg_field(ModeIndex(2, 1), 1.0, side=SIDE)
    turned = rotate_field(f, 0.05)
    # bilinear resampling attenuates structure at the pixel scale; the loss
    # budget here is the resampler's accuracy contract, not roundoff
    assert turned.power == pytest.approx(1.0, abs=2e-3)
    back = rotate_field(rotate_field(f, 0.3), -0.3)
    assert abs(overlap(f, back)) > 0.998


def test_rotation_signal_lands_in_carrier():
    # sampled-grid route against the operator-algebra prediction alpha sqrt(K)
    alpha = 1e-3
    for m, n in ((1, 1), (5, 5)):
        idx = ModeIndex(m, n)
        base = synthesize_hg_field(idx, 1.0, side=SIDE)
        carrier = synthesize_superposition(
            carrier_state(idx, idx.total), 1.0, side=SIDE)
        amp = overlap(carrier, rotate_field(base, alpha))
        predicted = alpha * math.sqrt(oam_variance(idx))
        assert amp.real == pytest.approx(predicted, rel=0.01)
        assert abs(amp.imag) < 1e-12


def test_rotation_angle_guard():
    f = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=SIDE)
    with pytest.raises(ValueError):
        rotate_field(f, 1.6)
    with pytest.raises(ValueError):
        rotate_field(f, -2.0)


@pytest.mark.parametrize("side", [128, 129, 257, 512, 1024])
def test_row_blocked_rotation_is_bitwise_the_fancy_index_route(side):
    # 129 and 257 leave a partial last row block
    rng = np.random.default_rng(side)
    noise = FieldGrid(rng.normal(size=(side, side))
                      + 1j * rng.normal(size=(side, side)), 1.0, 1.0)
    mode = synthesize_hg_field(ModeIndex(3, 2), 1.0, side=side)
    for angle in (0.0, 1e-3, -1e-3, 0.3, math.pi / 4, -math.pi / 4,
                  math.pi / 2, -math.pi / 2):
        for field in (noise, mode):
            got = rotate_field(field, angle)
            assert np.array_equal(got.samples,
                                  rotate_field_fancy(field, angle).samples)
            assert (got.pitch, got.sigma0, got.wavelength, got.z) == (
                field.pitch, field.sigma0, field.wavelength, field.z)


@pytest.mark.parametrize("side", [128, 129, 1024])
def test_in_place_unit_power_is_bitwise_the_division(side):
    rng = np.random.default_rng(side)
    f = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    pitch = 16.0 / side
    want = f / math.sqrt(float(np.sum(np.abs(f) ** 2)) * pitch ** 2)
    got = _unit_power(f.copy(), pitch, "field")
    assert np.array_equal(got, want)
    assert not got.flags.writeable


def test_unit_power_refuses_an_empty_or_overflowing_field():
    for fill in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="superposition has power"):
            _unit_power(np.full((128, 128), fill, complex), 0.1, "superposition")
    target = synthesize_hg_field(ModeIndex(3, 3), 1.0, side=128)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no divide-by-zero warning first
        with pytest.raises(ValueError, match="gaussian illumination has power 0"):
            gaussian_illumination(1e-9, target)  # underflows to all zeros


def test_field_grid_copies_writeable_arrays_and_adopts_frozen_ones(tmp_path):
    side = 128
    caller = np.ones((side, side), dtype=complex)
    grid = FieldGrid(caller, 16.0 / side, 1.0)
    caller[0, 0] = 2.0
    assert grid.samples[0, 0] == 1.0
    assert caller.flags.writeable and not grid.samples.flags.writeable
    frozen = np.ones((side, side), dtype=complex)
    frozen.flags.writeable = False
    assert np.shares_memory(FieldGrid(frozen, 16.0 / side, 1.0).samples, frozen)
    view = frozen[::-1]  # read-only, but a view: copied
    assert not np.shares_memory(FieldGrid(view, 16.0 / side, 1.0).samples, frozen)

    idx = ModeIndex(2, 1)
    mode = synthesize_hg_field(idx, 1.0, side=side)
    illum = gaussian_illumination(3.0, mode)
    mask = hologram_phase(mode, illum, 16.0)
    modulated = modulate(illum, mask)
    path = tmp_path / "mode.fgrd"
    write_field_binary(path, mode)
    produced = [mode, illum, modulated, rotate_field(mode, 0.3),
                first_order_extract(modulated, 16.0), read_field_binary(path),
                synthesize_superposition(carrier_state(idx, idx.total), 1.0,
                                         side=side)]
    for field in produced:
        assert not field.samples.flags.writeable
        assert field.samples.flags.owndata


def test_phase_map_copies_writeable_arrays_and_adopts_frozen_ones(tmp_path):
    side = 128
    caller = np.zeros((side, side))
    mask = PhaseMap(caller, 16.0)
    caller[0, 0] = 1.0
    assert mask.values[0, 0] == 0.0
    assert caller.flags.writeable and not mask.values.flags.writeable
    frozen = np.linspace(-math.pi, math.pi, side * side).reshape(side, side)
    frozen = frozen.copy()  # the reshape is a view; its copy owns its data
    frozen.flags.writeable = False
    assert np.shares_memory(PhaseMap(frozen, 16.0).values, frozen)
    view = frozen[::-1]  # read-only, but a view: copied
    assert not np.shares_memory(PhaseMap(view, 16.0).values, frozen)
    ints = np.zeros((side, side), dtype=int)
    ints.flags.writeable = False  # frozen, but not float64: copied
    assert PhaseMap(ints, 16.0).values.dtype == float
    # the range check is max(max H, -min H), so either sign may exceed pi
    for bad in (math.pi + 1e-6, -math.pi - 1e-6):
        values = np.zeros((side, side))
        values[3, 5] = bad
        with pytest.raises(ValueError, match="largest phase magnitude"):
            PhaseMap(values, 16.0)

    path = tmp_path / "mask.pmap"
    write_phase_binary(path, PhaseMap(frozen, 16.0))
    back = read_phase_binary(path).values
    assert not back.flags.writeable and back.flags.owndata
    assert back.dtype == float and np.array_equal(back, frozen)


def test_field_binary_refuses_non_finite_samples(tmp_path):
    path = tmp_path / "mode.fgrd"
    write_field_binary(path, synthesize_hg_field(ModeIndex(1, 1), 1.0, side=128))
    raw = bytearray(path.read_bytes())
    for bad in (math.nan, math.inf, -math.inf):
        corrupt = raw.copy()
        corrupt[-8:] = np.float64(bad).tobytes()  # imaginary part of the last
        path.write_bytes(corrupt)
        with pytest.raises(ValueError, match="finite"):
            read_field_binary(path)


def test_coverage_and_shape_guards():
    with pytest.raises(CoverageError):
        synthesize_hg_field(ModeIndex(1, 1), 1.0, side=SIDE, window_sigma=4.0)
    with pytest.raises(CoverageError):
        # half-width 128 * 0.01 / 2 = 0.64 sigma0, far under coverage
        FieldGrid(np.zeros((128, 128), dtype=complex), 0.01, 1.0,
                  DEFAULT_WAVELENGTH, 0.0)
    with pytest.raises(ValueError):
        FieldGrid(np.zeros((64, 64), dtype=complex), 0.2, 1.0,
                  DEFAULT_WAVELENGTH, 0.0)
    with pytest.raises(ValueError):
        FieldGrid(np.zeros((128, 64), dtype=complex), 0.2, 1.0,
                  DEFAULT_WAVELENGTH, 0.0)
    with pytest.raises(ValueError):
        FieldGrid(np.zeros((128, 128), dtype=complex), -0.2, 1.0,
                  DEFAULT_WAVELENGTH, 0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_grid_and_synthesis_inputs_rejected(bad):
    f = synthesize_hg_field(ModeIndex(1, 1), 1.0, side=128)
    builds = [
        lambda: FieldGrid(f.samples, bad, 1.0),
        lambda: FieldGrid(f.samples, f.pitch, bad),
        lambda: FieldGrid(f.samples, f.pitch, 1.0, bad),
        lambda: FieldGrid(f.samples, f.pitch, 1.0, DEFAULT_WAVELENGTH, bad),
        lambda: BeamGeometry(bad, DEFAULT_WAVELENGTH),
        lambda: synthesize_hg_field(ModeIndex(1, 1), 1.0, side=128,
                                    window_sigma=bad),
        lambda: synthesize_hg_field(ModeIndex(1, 1), 1.0, side=128, z=bad),
        lambda: BeamGeometry(1.0, DEFAULT_WAVELENGTH, z=bad),
        lambda: rotate_field(f, bad),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in builds:
            with pytest.raises(ValueError, match="finite"):
                build()


def test_superposition_window_guard():
    state = carrier_state(ModeIndex(1, 1), 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.nan, math.inf, -math.inf, 5.9):
            with pytest.raises(CoverageError,
                               match=f"finite.*{MIN_COVERAGE_SIGMA}"):
                synthesize_superposition(state, 1.0, side=128,
                                         window_sigma=bad)


def test_overlap_requires_matching_grids():
    a = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=SIDE)
    b = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=128)
    with pytest.raises(GridMismatchError):
        overlap(a, b)
    c = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=SIDE, window_sigma=7.0)
    with pytest.raises(GridMismatchError):
        overlap(a, c)
    d = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=SIDE, z=1e6)
    with pytest.raises(GridMismatchError):
        overlap(a, d)


def test_gaussian_illumination_width():
    grid = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=SIDE)
    g = gaussian_illumination(2.0, grid)
    x = g.coords
    mean_sq = float(np.sum(np.abs(g.samples) ** 2 * x[None, :] ** 2)
                    * g.pitch ** 2)
    assert math.sqrt(mean_sq) == pytest.approx(2.0, rel=1e-3)
    assert g.power == pytest.approx(1.0, rel=1e-12)


def test_synthesis_away_from_waist_tracks_beam_width():
    z = 5e6  # several Rayleigh ranges in waist units
    geom = BeamGeometry(1.0, DEFAULT_WAVELENGTH, z)
    sigma_z, _, _ = beam_params(geom)
    f = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=SIDE, z=z)
    x = f.coords
    mean_sq = float(np.sum(np.abs(f.samples) ** 2 * x[None, :] ** 2)
                    * f.pitch ** 2)
    assert math.sqrt(mean_sq) == pytest.approx(sigma_z, rel=1e-6)
    assert f.power == pytest.approx(1.0, rel=1e-12)


def test_mode_purity_self_and_cross():
    f = synthesize_hg_field(ModeIndex(3, 3), 1.0, side=SIDE)
    assert mode_purity(f, ModeIndex(3, 3)) == pytest.approx(1.0, abs=1e-9)
    assert mode_purity(f, ModeIndex(2, 2)) < 1e-6


def test_mode_purity_at_the_field_plane():
    z_r = BeamGeometry(1.0, DEFAULT_WAVELENGTH).rayleigh
    for z in (z_r, -0.5 * z_r):
        f = synthesize_hg_field(ModeIndex(3, 2), 1.0, side=SIDE, z=z)
        assert mode_purity(f, ModeIndex(3, 2)) == pytest.approx(1.0, abs=1e-12)
        for other in (ModeIndex(2, 2), ModeIndex(3, 1), ModeIndex(1, 2)):
            assert mode_purity(f, other) < 1e-6
        assert abs(mode_purity(f, ModeIndex(2, 1))
                   - mode_purity_2d(f, ModeIndex(2, 1))) <= 1e-13


def test_separable_purity_matches_2d_overlap():
    side, period = 512, 16.0
    grid = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=side)
    illum = gaussian_illumination(3.0, grid)
    fields = [synthesize_hg_field(ModeIndex(2, 5), 1.0, side=side)]
    for idx in (ModeIndex(3, 4), ModeIndex(6, 6)):
        target = synthesize_hg_field(idx, 1.0, side=side)
        mask = hologram_phase(target, illum, period)
        fields.append(first_order_extract(modulate(illum, mask), period))
    for f in fields:
        for m in range(7):
            for n in range(7):
                idx = ModeIndex(m, n)
                assert abs(mode_purity(f, idx) - mode_purity_2d(f, idx)) <= 1e-13


def _unblocked_j1_inverse(targets):
    y = 2.0 * np.sqrt(1.0 - targets / J1_PEAK) - 1.0
    depth = np.full_like(y, _J1_INVERSE_POLY[-1])
    for a in _J1_INVERSE_POLY[-2::-1]:
        depth *= y
        depth += a
    return np.clip(depth, 0.0, J1_PEAK_X, out=depth)


def test_blocked_j1_inverse_is_bitwise_the_whole_array_horner():
    rng = np.random.default_rng(11)
    for size in (1, _J1_BLOCK - 1, _J1_BLOCK, _J1_BLOCK + 1):
        targets = rng.uniform(0.0, J1_PEAK, size)
        assert np.array_equal(_j1_inverse_array(targets),
                              _unblocked_j1_inverse(targets))
    grid = rng.uniform(0.0, J1_PEAK, (512, 512))
    grid[:, :3] = (0.0, J1_PEAK, 0.5 * J1_PEAK)
    got = _j1_inverse_array(grid)
    assert got.shape == grid.shape
    assert np.array_equal(got, _unblocked_j1_inverse(grid))


def test_field_binary_roundtrip(tmp_path):
    f = synthesize_hg_field(ModeIndex(2, 1), 0.7, side=128, z=2e5)
    path = tmp_path / "mode.fgrd"
    write_field_binary(path, f)
    back = read_field_binary(path)
    assert np.array_equal(back.samples, f.samples)
    assert back.pitch == f.pitch
    assert back.sigma0 == f.sigma0
    assert back.wavelength == f.wavelength
    assert back.z == f.z
    assert not list(tmp_path.glob("*.tmp"))
    (tmp_path / "junk.fgrd").write_bytes(b"JUNK" + bytes(44))
    with pytest.raises(ValueError):
        read_field_binary(tmp_path / "junk.fgrd")


def test_phase_binary_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.uniform(-math.pi, math.pi, size=(128, 128))
    pm = PhaseMap(values, 12.0)
    path = tmp_path / "mask.pmap"
    write_phase_binary(path, pm)
    back = read_phase_binary(path)
    assert np.array_equal(back.values, pm.values)
    assert back.grating_period == 12.0
    (tmp_path / "junk.pmap").write_bytes(b"XXXX" + bytes(12))
    with pytest.raises(ValueError):
        read_phase_binary(tmp_path / "junk.pmap")


@pytest.mark.parametrize("extra", [-1, 1])
def test_binary_readers_check_payload_length(tmp_path, extra):
    field = tmp_path / "mode.fgrd"
    write_field_binary(field,
                       synthesize_hg_field(ModeIndex(1, 1), 1.0, side=128))
    phase = tmp_path / "mask.pmap"
    write_phase_binary(phase, PhaseMap(np.zeros((128, 128)), 8.0))
    for path, read in ((field, read_field_binary), (phase, read_phase_binary)):
        raw = path.read_bytes()
        path.write_bytes(raw[:-1] if extra < 0 else raw + b"\0")
        with pytest.raises(ValueError, match="payload"):
            read(path)


def test_phase_pgm_bytes(tmp_path):
    values = np.zeros((128, 128))
    values[0, 0] = -math.pi
    values[0, 1] = math.pi
    pm = PhaseMap(values, 16.0)
    path = tmp_path / "mask.pgm"
    write_phase_pgm(path, pm)
    raw = path.read_bytes()
    header = b"P5\n128 128\n255\n"
    assert raw.startswith(header)
    pixels = raw[len(header):]
    assert len(pixels) == 128 * 128
    assert pixels[0] == 0
    assert pixels[1] == 255
    assert pixels[2] == 128  # zero phase sits mid-scale


@pytest.mark.parametrize("side", (128, 129, 1024))
def test_phase_pgm_blocks_match_whole_grid(tmp_path, side):
    # random phases plus both ends of the range and the half-level ties
    values = np.random.default_rng(side).uniform(-math.pi, math.pi,
                                                 (side, side))
    values[0, :2] = -math.pi, math.pi
    levels = np.arange(side) % 256 + 0.5
    values[-1] = np.clip(levels / 255.0 * 2 * math.pi - math.pi,
                         -math.pi, math.pi)
    phase = PhaseMap(values, 16.0)
    write_phase_pgm(tmp_path / "blocks.pgm", phase)
    write_phase_pgm_whole_grid(tmp_path / "whole.pgm", phase)
    assert ((tmp_path / "blocks.pgm").read_bytes()
            == (tmp_path / "whole.pgm").read_bytes())


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=J1_PEAK, allow_nan=False))
def test_j1_inverse_roundtrip(target):
    depth = j1_inverse(target)
    assert 0.0 <= depth <= J1_PEAK_X
    assert float(bessel_j1(depth)) == pytest.approx(target, abs=1e-9)


def test_j1_inverse_guards():
    with pytest.raises(UnreachableAmplitudeError):
        j1_inverse(-0.1)
    with pytest.raises(UnreachableAmplitudeError):
        j1_inverse(J1_PEAK + 1e-6)


def test_j1_peak_constants_match_scipy():
    peak_x = brentq(lambda x: jvp(1, x, 1), 1.0, 3.0, xtol=1e-14)
    assert J1_PEAK_X == pytest.approx(peak_x, abs=1e-14)
    assert J1_PEAK == pytest.approx(float(bessel_j1(J1_PEAK_X)), abs=1e-15)


def test_j1_inverse_array_matches_bisection_oracle():
    targets = np.concatenate([np.linspace(0.0, J1_PEAK, 200001), [0.0, J1_PEAK]])
    lo = np.zeros_like(targets)
    hi = np.full_like(targets, J1_PEAK_X)
    for _ in range(48):
        mid = 0.5 * (lo + hi)
        below = bessel_j1(mid) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    reference = 0.5 * (lo + hi)
    depth = _j1_inverse_array(targets)
    assert np.max(np.abs(bessel_j1(depth) - targets)) <= 1e-13
    # bisection on the flat top of J1 resolves the depth only to ~sqrt(eps)
    away_from_peak = targets <= J1_PEAK - 1e-6
    assert np.max(np.abs(depth - reference)[away_from_peak]) <= 1e-10
    assert np.all(np.diff(depth[:-2]) >= 0.0)
    assert depth.min() >= 0.0 and depth.max() <= J1_PEAK_X


@pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -8.0])
def test_phase_map_refuses_bad_grating_period(tmp_path, period):
    with pytest.raises(ValueError, match="grating period"):
        PhaseMap(np.zeros((64, 64)), period)
    path = tmp_path / "mask.pmap"
    write_phase_binary(path, PhaseMap(np.zeros((128, 128)), 8.0))
    raw = bytearray(path.read_bytes())
    raw[12:20] = np.float64(period).tobytes()  # the header's grating period
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="grating period"):
        read_phase_binary(path)


def test_phase_map_validation():
    with pytest.raises(ValueError):
        PhaseMap(np.zeros((64, 32)), 16.0)
    with pytest.raises(ValueError):
        PhaseMap(np.full((64, 64), 3.5), 16.0)
    pm = PhaseMap(np.zeros((64, 64)), 16.0)
    with pytest.raises(ValueError):
        pm.values[0, 0] = 1.0
