"""Phase-mask encode / first-order decode pipeline checks.

The synthesis route (amplitude via the Bessel depth trick, carrier grating,
far-field window) is validated against two independent yardsticks: modal
purity of the extracted beam and the textbook power split of a constant-depth
sinusoidal mask.
"""

import math

import numpy as np
import pytest

from hgsense import fields
from hgsense.errors import (
    ConfigError,
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
    hologram_readout,
    mode_purity,
    modulate,
    synthesize_hg_field,
    write_phase_pgm,
)
from hgsense.modes import ModeIndex
from reference import (
    first_order_extract_fft,
    first_order_extract_whole_grid,
    hologram_phase_whole_grid,
    write_phase_pgm_whole_grid,
)

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
    special = pytest.importorskip("scipy.special")
    expected = (float(special.j0(J1_PEAK_X))
                / float(special.j1(J1_PEAK_X))) ** 2
    assert ratio == pytest.approx(expected, rel=0.02)


def test_blank_mask_stays_dark():
    grid = synthesize_hg_field(ModeIndex(1, 0), 1.0, side=256)
    illum = gaussian_illumination(1.0, grid)  # fully inside the window
    blank = PhaseMap(np.zeros((256, 256)))
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


def _outcome(encode, target, incident, period):
    """The phase values, or the exception type and message."""
    try:
        return encode(target, incident, period).values
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("side", [128, 129, 257, 512, 1024])
def test_row_blocked_hologram_is_bitwise_the_whole_grid_route(side):
    # 129 and 257 leave a partial last row block; 1024 runs 16-row blocks
    mode = synthesize_hg_field(ModeIndex(3, 2), 1.0, side=side)
    illum, pinprick = (gaussian_illumination(s, mode) for s in (3.0, 0.3))

    def with_nan(field, row, col):
        # FieldGrid refuses a NaN in a caller's array; a frozen array that
        # owns its data is adopted unchecked, as the package's outputs are
        samples = field.samples.copy()
        samples[row, col] = math.nan
        with pytest.raises(ConfigError, match="field sample nan must be"):
            field.with_samples(samples)
        samples.flags.writeable = False
        return field.with_samples(samples)

    cases = [
        (mode, illum, PERIOD),  # a normal mode
        (mode, illum, 7.5),
        (illum, illum, PERIOD),  # A_rel = 1 wherever the beam exists
        (mode.with_samples(np.zeros((side, side))), illum, PERIOD),  # peak 0
        (mode, pinprick, PERIOD),  # weight where the illumination is empty
        (pinprick, pinprick, PERIOD),  # an empty rim, where A_rel is 0
        (with_nan(mode, side // 3, side // 2), illum, PERIOD),  # NaN samples
        (mode, with_nan(illum, -1, -1), PERIOD),  # where the mode is ~0
    ]
    got = [_outcome(hologram_phase, *case) for case in cases]
    for case, values in zip(cases, got):
        want = _outcome(hologram_phase_whole_grid, *case)
        if isinstance(want, tuple):  # the same exception, same message
            assert isinstance(values, tuple) and values == want
        else:
            assert np.array_equal(values, want)
            assert not values.flags.writeable and values.flags.owndata
    assert isinstance(got[3], np.ndarray)
    assert got[4][0] is UnreachableAmplitudeError


def test_grating_and_grid_guards():
    grid = synthesize_hg_field(ModeIndex(1, 1), 1.0, side=256)
    illum = gaussian_illumination(3.0, grid)
    with pytest.raises(ValueError):
        hologram_phase(grid, illum, -3.0)
    other = synthesize_hg_field(ModeIndex(1, 1), 1.0, side=128)
    with pytest.raises(GridMismatchError):
        hologram_phase(grid, gaussian_illumination(3.0, other), PERIOD)
    with pytest.raises(GridMismatchError):
        modulate(other, PhaseMap(np.zeros((256, 256))))


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
            PhaseMap(np.full((64, 64), bad))


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
        assert (got.pitch, got.sigma0) == (want.pitch, want.sigma0)
        # row blocks and a tree-walked power sum: bitwise the whole grids
        whole = first_order_extract_whole_grid(field, period)
        assert got.samples.tobytes() == whole.samples.tobytes()


def test_modulate_matches_complex_exponential():
    grid = synthesize_hg_field(ModeIndex(3, 1), 1.0, side=256)
    illum = gaussian_illumination(3.0, grid)
    mask = hologram_phase(grid, illum, PERIOD)
    got = modulate(illum, mask).samples
    want = illum.samples * np.exp(1j * mask.values)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("side, period, mode, scale", [
    (128, 16.0, (1, 1), 3.0),
    (129, 4.0, (2, 1), 3.0),  # an odd side and order: -0 in the outer product
    (129, 7.5, (12, 12), 3.0),
    (300, 7.5, (4, 1), 2.0),
    (300, 16.0, (0, 0), 3.0),
    (512, 4.0, (3, 3), 5.0),
    (512, 16.0, (12, 12), 3.0),
    (256, 16.0, (3, 3), 0.3),  # weight where the illumination is empty
    (128, 16.0, (3, 3), 1e-9),  # an illumination that underflows
    # mirror blocks off the _row_blocks edges, odd orders, odd sides
    (257, 5.0, (5, 2), 3.0),
    (1023, 16.0, (0, 7), 3.0),
    (1024, 16.0, (3, 4), 1.5),
    (257, 16.0, (3, 3), 0.3),  # the refusal at an odd side
])
def test_streamed_readout_is_bitwise_the_whole_grid_chain(side, period, mode,
                                                          scale, tmp_path):
    idx = ModeIndex(*mode)
    streamed, whole = tmp_path / "streamed.pgm", tmp_path / "whole.pgm"
    try:
        target = synthesize_hg_field(idx, 1.0, side=side)
        illum = gaussian_illumination(scale, target)
        mask = hologram_phase_whole_grid(target, illum, period)
    except Exception as exc:  # the same refusal, with the same message
        with pytest.raises(type(exc)) as refused:
            hologram_readout(idx, side, period, scale, streamed)
        assert str(refused.value) == str(exc)
        return
    got = hologram_readout(idx, side, period, scale, streamed)
    write_phase_pgm_whole_grid(whole, mask)
    assert streamed.read_bytes() == whole.read_bytes()
    drivers_mask = hologram_phase(target, illum, period)
    write_phase_pgm(whole, drivers_mask)
    assert streamed.read_bytes() == whole.read_bytes()
    drivers = first_order_extract(modulate(illum, drivers_mask), period)
    for want in (first_order_extract_whole_grid(modulate(illum, mask), period),
                 drivers):
        assert got.samples.tobytes() == want.samples.tobytes()
        assert (got.pitch, got.sigma0) == (want.pitch, want.sigma0)
    assert not got.samples.flags.writeable and got.samples.flags.owndata
    near = first_order_extract_fft(modulate(illum, mask), period).samples
    assert np.max(np.abs(got.samples - near)) <= 1e-13 * np.max(np.abs(near))


@pytest.mark.parametrize("side, mode", [
    (1024, (3, 4)), (257, (2, 0)), (1024, (4, 3)), (257, (0, 5))])
def test_even_row_orders_encode_and_transform_only_the_upper_rows(
        side, mode, tmp_path, monkeypatch):
    # the bitwise tests above pass on the full path too: count the rows that
    # are encoded and row-transformed. An even n encodes the upper half, an
    # odd side's middle row included, and copies the rest; an odd n all rows
    rows = {"transmission": 0, "row fft": 0}
    transmission, fft = fields._transmission, np.fft.fft

    def counted_transmission(phase, incident):
        rows["transmission"] += len(phase)
        return transmission(phase, incident)

    def counted_fft(a, *args, axis=-1, **kwargs):
        if axis == 1:
            rows["row fft"] += len(a)
        return fft(a, *args, axis=axis, **kwargs)

    monkeypatch.setattr(fields, "_transmission", counted_transmission)
    monkeypatch.setattr(np.fft, "fft", counted_fft)
    hologram_readout(ModeIndex(*mode), side, 16.0, 3.0, tmp_path / "h.pgm")
    want = (side + 1) // 2 if mode[1] % 2 == 0 else side
    assert rows == {"transmission": want, "row fft": want}
