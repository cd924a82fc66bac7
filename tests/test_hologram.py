"""Phase-mask encode / first-order decode pipeline checks.

The synthesis route (amplitude via the Bessel depth trick, carrier grating,
far-field window) is validated against two independent yardsticks: modal
purity of the extracted beam and the textbook power split of a constant-depth
sinusoidal mask.
"""

import math

import numpy as np
import pytest
from scipy.special import j0, j1

from hgsense.errors import (
    GridMismatchError,
    SeparationError,
    UnreachableAmplitudeError,
)
from hgsense.fields import (
    J1_PEAK_X,
    FieldGrid,
    PhaseMap,
    first_order_extract,
    gaussian_illumination,
    hologram_phase,
    mode_purity,
    modulate,
    synthesize_hg_field,
)
from hgsense.modes import ModeIndex
from reference import first_order_extract_fft

PERIOD = 16.0


def encode_extract(idx: ModeIndex, side: int):
    grid = synthesize_hg_field(idx, 1.0, side=side)
    illum = gaussian_illumination(3.0, grid)
    mask = hologram_phase(grid, illum, PERIOD)
    return mask, first_order_extract(modulate(illum, mask), PERIOD)


def test_encoded_modes_come_back_pure():
    for m, n in ((0, 0), (3, 3), (5, 1)):
        _, out = encode_extract(ModeIndex(m, n), 512)
        assert mode_purity(out, ModeIndex(m, n)) >= 0.99
        assert out.power == pytest.approx(1.0, rel=1e-9)


def test_encoded_mode_quick_low_resolution():
    _, out = encode_extract(ModeIndex(2, 2), 256)
    assert mode_purity(out, ModeIndex(2, 2)) >= 0.99


def test_uniform_mask_splits_power_like_bessel():
    # target == illumination drives the depth to the J1 peak everywhere the
    # beam exists, so order powers follow J0^2 : J1^2 of that single depth
    grid = synthesize_hg_field(ModeIndex(1, 0), 1.0, side=256)
    illum = gaussian_illumination(3.0, grid)
    mask = hologram_phase(illum, illum, PERIOD)
    # inverting J1 at its flat peak is ill-conditioned: ~1e-16 of amplitude
    # error maps to ~1e-8 of depth, so the tolerance is loose on purpose
    assert mask.values.max() == pytest.approx(J1_PEAK_X, abs=1e-6)
    modulated = modulate(illum, mask)
    spectrum = np.fft.fft2(modulated.samples)
    fx = np.fft.fftfreq(256)
    carrier = 1.0 / PERIOD
    zero_win = ((np.abs(fx[None, :]) <= carrier / 2)
                & (np.abs(fx[:, None]) <= carrier / 2))
    first_win = ((np.abs(fx[None, :] - carrier) <= carrier / 2)
                 & (np.abs(fx[:, None]) <= carrier / 2))
    ratio = (float(np.sum(np.abs(spectrum * zero_win) ** 2))
             / float(np.sum(np.abs(spectrum * first_win) ** 2)))
    expected = (float(j0(J1_PEAK_X)) / float(j1(J1_PEAK_X))) ** 2
    assert ratio == pytest.approx(expected, rel=0.02)


def test_blank_mask_stays_dark():
    grid = synthesize_hg_field(ModeIndex(1, 0), 1.0, side=256)
    illum = gaussian_illumination(1.0, grid)  # fully inside the window
    blank = PhaseMap(np.zeros((256, 256)), PERIOD)
    out = first_order_extract(modulate(illum, blank), PERIOD)
    assert out.power < 1e-9
    dark = grid.with_samples(np.zeros((256, 256), dtype=complex))
    out_dark = first_order_extract(dark, PERIOD)
    assert np.all(out_dark.samples == 0.0)


def test_separation_guards():
    grid = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=256)
    with pytest.raises(SeparationError):
        first_order_extract(grid, 2.0)
    with pytest.raises(SeparationError):
        first_order_extract(grid, 200.0)


def test_unreachable_target_weight():
    grid = synthesize_hg_field(ModeIndex(3, 3), 1.0, side=256)
    pinprick = gaussian_illumination(0.3, grid)
    with pytest.raises(UnreachableAmplitudeError):
        hologram_phase(grid, pinprick, PERIOD)


def test_grating_and_grid_guards():
    grid = synthesize_hg_field(ModeIndex(1, 1), 1.0, side=256)
    illum = gaussian_illumination(3.0, grid)
    with pytest.raises(ValueError):
        hologram_phase(grid, illum, -3.0)
    other = synthesize_hg_field(ModeIndex(1, 1), 1.0, side=128)
    with pytest.raises(GridMismatchError):
        hologram_phase(grid, gaussian_illumination(3.0, other), PERIOD)
    with pytest.raises(GridMismatchError):
        modulate(other, PhaseMap(np.zeros((256, 256)), PERIOD))


def test_non_finite_period_and_phase_rejected():
    grid = synthesize_hg_field(ModeIndex(1, 1), 1.0, side=256)
    illum = gaussian_illumination(3.0, grid)
    for period in (math.nan, math.inf):
        with pytest.raises(ValueError):
            hologram_phase(grid, illum, period)
    with pytest.raises(SeparationError):
        first_order_extract(grid, math.nan)
    with pytest.raises(SeparationError):
        first_order_extract(grid, math.inf)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PhaseMap(np.full((64, 64), bad), 16.0)


@pytest.mark.parametrize("side", [128, 129, 257, 512, 1024])
def test_band_extraction_matches_full_fft(side):
    # a random field fills the whole spectrum, so every band edge, the odd
    # sides and the fractional periods are exercised
    rng = np.random.default_rng(side)
    field = FieldGrid(rng.normal(size=(side, side))
                      + 1j * rng.normal(size=(side, side)), 1.0, 1.0)
    for period in (4.0, 7.3, 16.0, 16.5, side / 2.0):
        got = first_order_extract(field, period)
        want = first_order_extract_fft(field, period)
        peak = np.max(np.abs(want.samples))
        assert np.max(np.abs(got.samples - want.samples)) <= 1e-13 * peak
        assert (got.pitch, got.sigma0, got.wavelength, got.z) == (
            want.pitch, want.sigma0, want.wavelength, want.z)


def test_modulate_matches_complex_exponential():
    grid = synthesize_hg_field(ModeIndex(3, 1), 1.0, side=256)
    illum = gaussian_illumination(3.0, grid)
    mask = hologram_phase(grid, illum, PERIOD)
    got = modulate(illum, mask).samples
    want = illum.samples * np.exp(1j * mask.values)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
