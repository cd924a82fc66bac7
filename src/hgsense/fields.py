"""Sampled transverse fields: synthesis, rotation, holograms, serialization.

This layer works purely on pixel grids and never touches the ladder-operator
algebra, so it can serve as an independent oracle for the mode-space results
(and vice versa). Fields are sampled at the waist plane. That is enough: the
paraxial propagator acts on the shell N = m + n as one common rescale and
curvature times exp(-i (N + 1) chi(z)), and Lz conserves N, so a pointer and
the mode it is read out in share one shell and one Gouy phase at any plane.
Grids are square with symmetric sample coordinates
x_i = (i - (side - 1) / 2) * pitch, so the beam axis sits between the four
central pixels and right-angle rotations land exactly on grid nodes.
Holograms use the J1-type phase-only encoding of Arrizon et al., JOSA A 24,
3500 (2007), at full modulation depth on a carrier grating; the depth
inverts J1 by one polynomial with literal coefficients. A real field is a
float64 grid (an HG mode, the illumination, a superposition with real
amplitudes, and their rotations), any other a complex128 grid. HG fields
and the illumination are built from their 1-D factors (_Separable), so only
synthesize_superposition renormalizes a whole grid (_unit_power).
The readout is separable: only the band of the first-order pinhole is
Fourier transformed, and purity contracts the 1-D factors of the ideal mode.
The hologram encoding, the PGM levels and both row FFTs of the readout work
in row blocks, and rotation in square tiles; the inverse row FFT runs in
place. FieldGrid and PhaseMap adopt a read-only array that owns its data,
so the producers here freeze their fresh buffers. The CLI chain,
hologram_readout, streams the mask and the modulated field from the 1-D
factors of the mode and the illumination, so its one complex grid is the
output. The magnitudes of the factors are even on the symmetric axis, so
A_rel and its J1 depth are taken on the top-left quadrant only: one
generator yields the rows in mirror pairs, a block of the upper half and
then its mirror rows, which take the block's depth and incident rows
reversed from the generator's locals, and each block's PGM rows are written
at their own offset of the file. For an even row order the row factor itself
is even, so the mirror rows copy their top block's PGM levels and band rows
reversed.
The chain peaks at the output grid plus the larger of the pinhole band
(side^2 / P samples) and the power sum's one leaf run (0.125 MiB): 4.3,
17.1, 68.2, ~272 MiB at 512, 1024, 2048, 4096 px and P = 16. Below 256 px
the encoder's row-block temporaries (about 0.55 MiB with the band) set it.

File formats
------------
Field binary ("FGRD", version 1): little-endian header
    magic 4s | version u32 | side u32 | pitch f64 | sigma0 f64
    | wavelength f64 | z f64
followed by side*side complex128 samples (interleaved float64 re, im),
row-major with the row index running along y; a real grid is written as its
complex cast. The writer puts 780e-9 and 0 in wavelength and z; the reader
refuses z != 0 or a wavelength that is not finite and positive, and drops
both.

Phase-map image dump: 8-bit binary PGM (P5), phases mapped linearly from
[-pi, pi] to [0, 255].
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    CoverageError,
    GridMismatchError,
    SeparationError,
    UnreachableAmplitudeError,
    adopted,
    finite_in,
    finite_positive,
    frozen,
    positive_square,
)
from .modes import ModeIndex, ModeState, hg_factor
from .output import write_atomic

MIN_SIDE = 128
MAX_SIDE = 4096  # 256 MiB per complex128 grid
MIN_GRATING_PX = 4.0  # the finest carrier period a grid resolves
MIN_COVERAGE_SIGMA = 6.0
DEFAULT_SIDE = 512
WINDOW_SIGMA = 8.0

# J1's first maximum, the end of its invertible branch, and J1 there; tested
J1_PEAK_X = 1.8411837813406593
J1_PEAK = 0.5818652242815964

_RENORM_FLOOR = 1e-9
_BLOCK_SAMPLES = 16384  # per row block or tile: its temporaries stay in cache


@dataclass(frozen=True)
class FieldGrid:
    """Waist-plane field samples on a square symmetric grid: float64 for
    real input, complex128 for complex input, even with a zero imaginary part.

    Samples enter through errors.adopted: a caller's array is copied and
    refused if a sample is NaN or infinite; a read-only array of that dtype
    that owns its data (a fresh buffer this module's hot paths freeze, built
    from checked finite factors or grids) is adopted with no pass.
    """

    samples: np.ndarray
    pitch: float
    sigma0: float

    def __post_init__(self):
        try:
            shape = np.shape(self.samples)
        except ValueError:  # a ragged nesting has no shape
            shape = ()
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ConfigError("samples must be a square 2-D array")
        check_side(shape[0])  # before a caller's array is copied
        arr = adopted("field sample", self.samples,
                      complex if np.iscomplexobj(self.samples) else float)
        finite_positive("pitch", self.pitch)
        positive_square("sigma0", self.sigma0)
        finite_in("window half-width", 0.5 * arr.shape[0] * self.pitch,
                  MIN_COVERAGE_SIGMA * self.sigma0, math.inf, CoverageError,
                  "[)")
        object.__setattr__(self, "samples", arr)

    @property
    def side(self) -> int:
        return self.samples.shape[0]

    @property
    def coords(self) -> np.ndarray:
        """1-D sample coordinates shared by both axes."""
        return _axis(self.side, self.pitch)

    @property
    def power(self) -> float:
        return _grid_power(self.samples, self.pitch)

    def with_samples(self, samples: np.ndarray) -> "FieldGrid":
        return FieldGrid(samples, self.pitch, self.sigma0)


def _axis(side: int, pitch: float) -> np.ndarray:
    return (np.arange(side) - (side - 1) / 2.0) * pitch


def _row_blocks(side: int) -> list:
    """Row slices of about _BLOCK_SAMPLES samples each, the last one partial."""
    rows = max(1, _BLOCK_SAMPLES // side)
    return [slice(start, start + rows) for start in range(0, side, rows)]


def _pairwise_sum(values, start: int, stop: int) -> float:
    """np.sum of the flat values that values(a, b) returns for [a, b), bitwise,
    with no array longer than _BLOCK_SAMPLES.

    numpy sums a contiguous float64 run pairwise (pairwise_sum, PW_BLOCKSIZE
    128): a longer run splits at half its length rounded down to a multiple
    of 8. Splitting the same way and summing each short run with np.sum walks
    the same tree; a test pins it against np.sum of whole grids.
    """
    if stop - start <= _BLOCK_SAMPLES:
        return float(np.sum(values(start, stop)))
    half = (stop - start) // 2
    half -= half % 8
    return (_pairwise_sum(values, start, start + half)
            + _pairwise_sum(values, start + half, stop))


def _grid_power(f: np.ndarray, pitch: float) -> float:
    """pitch^2 sum |f|^2, summed as np.sum sums the whole grid; each leaf
    squares its abs run in place, so one run is alive at a time."""
    flat = f.reshape(-1)

    def squares(start, stop):
        run = np.abs(flat[start:stop])
        return np.square(run, out=run)

    return _pairwise_sum(squares, 0, flat.size) * pitch ** 2


def _unit_power(f: np.ndarray, pitch: float, name: str) -> np.ndarray:
    power = _grid_power(f, pitch)  # f is fresh: scaled in place
    f /= math.sqrt(finite_positive(f"{name} has power", power))
    return frozen(f)


def check_side(side: int) -> int:
    return finite_in("grid side", side, MIN_SIDE, MAX_SIDE)


def check_grating_period(grating_period: float, side: int) -> float:
    """MIN_GRATING_PX resolve the carrier; past side / 2 it is zeroth order."""
    return finite_in("grating period in px", grating_period, MIN_GRATING_PX,
                     side / 2.0, SeparationError)


def _window(side: int, sigma0: float):
    """Pitch and axis of a side-pixel window spanning +-WINDOW_SIGMA sigma0."""
    pitch = 2.0 * WINDOW_SIGMA * sigma0 / check_side(side)
    return pitch, _axis(side, pitch)


def synthesize_hg_field(idx: ModeIndex, sigma0: float,
                        side: int = DEFAULT_SIDE) -> FieldGrid:
    """Sample HG(m, n) on a symmetric grid, renormalized to unit grid power.

    The field is the outer product of a y factor (rows) and an x factor
    (columns), each an hg_factor term.
    """
    pitch, c = _window(side, sigma0)
    return FieldGrid(_Separable(hg_factor(idx.n, sigma0, c),
                                hg_factor(idx.m, sigma0, c), pitch,
                                f"HG({idx.m}, {idx.n}) field").grid(),
                     pitch, sigma0)


def synthesize_superposition(state: ModeState, sigma0: float,
                             side: int = DEFAULT_SIDE) -> FieldGrid:
    """Waist-plane field of an amplitude vector over the HG basis.

    One product Phi^T A^T Phi, with Phi[k] the hg_factor of order k on the
    grid axis and A[m, n] the amplitudes, restricted to the orders that
    carry amplitude; real when no amplitude has an imaginary part.
    """
    amp = state.amplitudes.reshape(state.cutoff + 1, state.cutoff + 1)
    orders = np.flatnonzero(np.any(amp != 0, axis=0) | np.any(amp != 0, axis=1))
    if len(orders) == 0:
        raise ConfigError("zero superposition")
    pitch, axis = _window(side, sigma0)
    phi = np.array([hg_factor(int(k), sigma0, axis) for k in orders])
    amp = amp[np.ix_(orders, orders)]
    total = phi.T @ (amp if amp.imag.any() else amp.real).T @ phi
    return FieldGrid(_unit_power(total, pitch, "superposition"), pitch, sigma0)


class _Separable:
    """The real grid outer(a, b) at unit power, built one row block at a time.

    Bitwise the real plane of the complex outer(a, b) divided by its root
    grid power, whose imaginary plane is all +0: dividing re + 0i by s > 0
    gives (re + 0) * (1 / s), so a -0 (a zero factor times a negative one)
    turns +0 before the scale. The power is summed as np.sum sums the whole
    grid. The largest magnitude is max|a| max|b|, the largest rounded
    product, taken before the scale: a positive factor keeps it the largest.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, pitch: float, name: str):
        side = len(a)

        def squares(start, stop):
            first = start % side
            run = np.multiply.outer(a[start // side:(stop - 1) // side + 1],
                                    b).ravel()[first:first + stop - start]
            return np.square(run, out=run)

        power = _pairwise_sum(squares, 0, side * side) * pitch ** 2
        self.a, self.b = a, b
        self.scale = 1.0 / math.sqrt(
            finite_positive(f"{name} has power", power))
        self.peak = float(np.abs(a).max() * np.abs(b).max()) * self.scale

    def rows(self, block: slice, columns: slice = slice(None),
             out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply.outer(self.a[block], self.b[columns], out=out)
        out += 0.0
        out *= self.scale
        return out

    def grid(self) -> np.ndarray:
        """The frozen float64 grid, its rows written in place."""
        f = np.empty((len(self.a), len(self.b)))
        for block in _row_blocks(len(self.a)):
            self.rows(block, out=f[block])
        return frozen(f)


def gaussian_illumination(sigma: float, grid_like: FieldGrid) -> FieldGrid:
    """Fundamental-mode beam of width sigma sampled on an existing grid."""
    g = hg_factor(0, sigma, grid_like.coords)
    return grid_like.with_samples(
        _Separable(g, g, grid_like.pitch, "gaussian illumination").grid())


def rotate_field(field: FieldGrid, angle: float) -> FieldGrid:
    """Rotate the field about the beam axis by bilinear resampling.

    Active rotation: the returned samples are f(R_{-angle} r); angles up to
    pi/2 are accepted because right angles map grid nodes onto grid nodes
    exactly. Rotating HG(m, n), m + n <= 11, by 1e-4 <= |angle| <= 0.2 on
    128 to 512 px, the carrier amplitude is off the exact mode-space value
    by 0.47 to 1.06 times (m + n + 1) (pitch / sigma0)^2 / 16, relative: it
    falls as pitch^2, grows with the order and moves at most 2.2x with the
    angle (a test pins it). At 128 px it reaches 1% at m + n = 9. Samples
    pulled from outside the window are zero. A real grid is resampled into
    a real grid. A complex grid's real and imaginary planes are resampled
    apart with float weights; an imaginary plane that is all zero is
    skipped and stays +0, as complex weights leave it. The output is
    walked in square tiles of _BLOCK_SAMPLES samples, each resampled from
    a copy of its source window that reads zero off the grid, so the call
    peaks at its output grid plus about 1.4 MiB at any side.
    """
    finite_in("rotation angle", angle, -math.pi / 2.0 - 1e-12,
              math.pi / 2.0 + 1e-12)
    side, pitch, coords = field.side, field.pitch, field.coords
    c, s = math.cos(angle), math.sin(angle)
    cx, sx, half = c * coords, -s * coords, (side - 1) / 2.0
    samples = field.samples
    # np.zeros: a complex grid's skipped all-zero imaginary plane stays +0
    rotated = (np.zeros if samples.dtype == complex else np.empty)(
        (side, side), samples.dtype)
    planes = [(samples.real, rotated.real)]
    if samples.dtype == complex and samples.imag.any():
        planes.append((samples.imag, rotated.imag))
    tile = math.isqrt(_BLOCK_SAMPLES)
    # a window spans at most (tile - 1)(|c| + |s|) + 3 samples a side
    reach = int(tile * (abs(c) + abs(s))) + 4
    scratch = np.empty(reach * reach)

    def resample(rows, cols):  # one tile: its temporaries die on return
        y = coords[rows, None]
        tc, tr = cx[cols] + s * y, sx[cols] + c * y
        for t in (tc, tr):  # fractional source column (x) and row (y)
            t /= pitch
            t += half
        c0, r0 = np.floor(tc), np.floor(tr)
        tc -= c0
        tr -= r0
        # tc and tr are rounded monotone functions along each tile axis, so
        # the floors at its corners bound the tile's source window, which
        # adds the far neighbours and reads zero off the grid
        bounds = [(int(min(v)), int(max(v)) + 2) for v in (
            (t[0, 0], t[0, -1], t[-1, 0], t[-1, -1]) for t in (r0, c0))]
        on_grid = [(min(max(lo, 0), side), min(max(hi, 0), side))
                   for lo, hi in bounds]
        (top, bottom), (left, right) = bounds
        width = right - left
        r0 *= width
        r0 += c0
        r0 -= top * width + left
        k = r0.astype(np.intp)  # flat index into the window
        utr, utc = np.subtract(1, tr, out=r0), np.subtract(1, tc, out=c0)
        weights = (utr, tc, tr, tr * tc)  # the first three scaled below
        tr *= utc
        tc *= utr
        utr *= utc
        window = scratch[:(bottom - top) * width].reshape(-1, width)
        source = tuple(slice(*ab) for ab in on_grid)
        target = tuple(slice(a - lo, b - lo)
                       for (a, b), (lo, _) in zip(on_grid, bounds))
        term = np.empty_like(utc)
        for plane, out in planes:
            if on_grid != bounds:
                window.fill(0.0)  # the window leaves the grid
            window[target] = plane[source]
            # k stays inside the window, so clip only skips take's bounds
            # check and the copy it buffers for it; window is scratch's head
            acc = scratch.take(k, mode="clip")
            acc *= weights[0]
            for w, shift in zip(weights[1:], (1, width, width + 1)):
                scratch[shift:].take(k, out=term, mode="clip")
                term *= w
                acc += term
            out[rows, cols] = acc  # one pass over the output's strided rows

    spans = [slice(start, start + tile) for start in range(0, side, tile)]
    for rows in spans:
        for cols in spans:
            resample(rows, cols)
    return field.with_samples(frozen(rotated))


def overlap(a: FieldGrid, b: FieldGrid) -> complex:
    """Discrete inner product <a|b> = pitch^2 sum conj(a) b."""
    if a.side != b.side or not math.isclose(a.pitch, b.pitch, rel_tol=1e-12):
        raise GridMismatchError("fields sampled on different grids")
    return complex(np.vdot(a.samples, b.samples) * a.pitch ** 2)


def mode_purity(field: FieldGrid, idx: ModeIndex) -> float:
    """|overlap|^2 against the ideal HG(m, n) on the field's grid:
    pitch^2 |a_n^H F conj(a_m)|^2 / (|a_n|^2 |a_m|^2) with a_k its 1-D
    factors."""
    # complex factors keep the contraction's rounding: real ones move it 2 ulp
    fy, fx = (hg_factor(k, field.sigma0, field.coords).astype(complex)
              for k in (idx.n, idx.m))
    amp = abs(np.vdot(fy, field.samples @ fx.conj())) * field.pitch
    return float(amp ** 2 / (np.vdot(fy, fy).real * np.vdot(fx, fx).real))


# The depth is analytic in sqrt(J1_PEAK - t) on the whole branch, peak
# included: one degree-24 Chebyshev interpolant in y = 2 sqrt(1 - t / J1_PEAK)
# - 1 covers it, and its power-basis coefficients (lowest order first) sum to
# ~2, so Horner in y is as exact. The fit is tests/reference.py's
# j1_inverse_fit; a test pins these literals within 4 ulp of it.
_J1_INVERSE_POLY = (
    0.988831387474254, -0.8849280379817265, -0.05829970609836922,
    -0.031166104889719402, -0.00817634619134245, -0.0036988749778966434,
    -0.0014099606662244444, -0.0006343971775169537, -0.00027667050750218244,
    -0.00012780778617730405, -5.9153091918693185e-05, -2.8080360536413186e-05,
    -1.3497894430193545e-05, -6.476285327476472e-06, -2.9910669681394365e-06,
    -1.6487306355254548e-06, -1.1162882201650563e-06, -2.50688706031792e-07,
    2.1268813483516587e-07, -2.424871587067115e-07, -3.640754606326099e-07,
    6.576085138399073e-08, 1.3177388232196717e-07, -3.5065751908646416e-08,
    -3.5385532829164086e-08)


def _j1_inverse_array(targets: np.ndarray) -> np.ndarray:
    """Depth f with J1(f) = t on the rising branch [0, J1_PEAK_X] per target
    t in [0, J1_PEAK], which the caller keeps: one series evaluation."""
    y = 2.0 * np.sqrt(1.0 - targets / J1_PEAK) - 1.0  # a row block at most
    depth = np.full_like(y, _J1_INVERSE_POLY[-1])
    for a in _J1_INVERSE_POLY[-2::-1]:  # Horner in place
        depth *= y
        depth += a
    return np.clip(depth, 0.0, J1_PEAK_X, out=depth)


@dataclass(frozen=True)
class PhaseMap:
    """Square phase hologram in radians, each |H| at most pi. Values enter
    through errors.adopted: a caller's array is copied and refused if a
    value is NaN or infinite; hologram_phase's frozen grid is adopted with
    no pass. Then max H and -min H are checked against pi."""

    values: np.ndarray

    def __post_init__(self):
        arr = adopted("phase", self.values, float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ConfigError("phase map must be square")
        object.__setattr__(self, "values", _phase_checked(arr))

    @property
    def side(self) -> int:
        return self.values.shape[0]


def _phase_checked(values: np.ndarray) -> np.ndarray:
    top = max(float(values.max()), -float(values.min()))  # max |H|, no abs grid
    finite_in("largest phase magnitude", top, 0.0, math.pi + 1e-9)
    return values


def _relative_amplitude(a_out, a_in, in_floor: float,
                        out_floor: float) -> np.ndarray:
    """A_rel = |target| / |incident| of one row block, 0 where the
    illumination is at most in_floor; target weight above out_floor there
    is unreachable."""
    valid = a_in > in_floor
    if np.any(a_out[~valid] > out_floor):
        raise UnreachableAmplitudeError(
            "target has weight where the illumination is empty")
    return np.divide(a_out, a_in, where=valid, out=np.zeros_like(a_in))


def _depth(rel: np.ndarray, peak: float) -> np.ndarray:
    """The J1 depth f(A_rel) of one row block: A_rel is scaled so that peak
    reaches the peak of J1 (full modulation depth)."""
    if peak != 0.0:  # scaled in place, so rel becomes the depth target
        rel *= J1_PEAK / peak
        np.minimum(rel, J1_PEAK, out=rel)  # the peak may land an ulp above
    return _j1_inverse_array(rel)


def hologram_phase(target: FieldGrid, incident: FieldGrid,
                   grating_period: float) -> PhaseMap:
    """Phase-only encoding H = f(A_rel) sin(phi_out - phi_in + phi_grating).

    The relative amplitude A_rel = |target| / |incident| is scaled so its
    maximum reaches the peak of J1 (full modulation depth) on one float grid,
    in row blocks; grating_period, in px along x, meets check_grating_period.
    """
    if target.side != incident.side or not math.isclose(
            target.pitch, incident.pitch, rel_tol=1e-12):
        raise GridMismatchError("target and incident grids differ")
    check_grating_period(grating_period, target.side)
    period, blocks = float(grating_period), _row_blocks(target.side)
    out = np.abs(target.samples)  # the one grid: |target|, then A_rel, then H
    in_floor = 1e-8 * float(np.max(  # np.max of the block maxima keeps a NaN
        [np.abs(incident.samples[b]).max() for b in blocks]))
    out_floor = 1e-6 * float(out.max())
    for b in blocks:
        out[b] = _relative_amplitude(out[b], np.abs(incident.samples[b]),
                                     in_floor, out_floor)
    peak = float(out.max())
    grating = 2.0 * math.pi * np.arange(target.side, dtype=float) / period
    for b in blocks:
        phi = np.angle(target.samples[b]) - np.angle(incident.samples[b])
        phi += grating
        np.multiply(_depth(out[b], peak), np.sin(phi, out=phi), out=out[b])
    return PhaseMap(frozen(out))


def _transmission(phase: np.ndarray, incident: np.ndarray) -> np.ndarray:
    transmission = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=transmission.real)
    np.sin(phase, out=transmission.imag)
    transmission *= incident
    return transmission


def modulate(incident: FieldGrid, phase: PhaseMap) -> FieldGrid:
    """Field right after the phase mask: incident * exp(i H)."""
    if phase.side != incident.side:
        raise GridMismatchError("phase map and field sides differ")
    return incident.with_samples(
        frozen(_transmission(phase.values, incident.samples)))


def _first_order(blocks, side: int, grating_period: float,
                 pitch: float) -> np.ndarray:
    """The first_order_extract samples of the field that blocks yields as
    (rows, samples) pairs, its row slices covering the grid once. None as
    samples stands for rows [s, e) whose mirror rows [side - e, side - s)
    came earlier: their band rows are the mirror rows' band rows reversed.

    Each block's row FFT is kept on the pinhole columns only; that band gets
    its column FFT, window and inverse, is dropped once it sits in the one
    output grid, and the inverse row FFT runs there in place, block by block.
    """
    carrier = 1.0 / grating_period  # cycles per pixel along x
    freq = np.fft.fftfreq(side)
    kx = np.flatnonzero(np.abs(freq - carrier) <= carrier / 2.0)
    band = np.empty((side, kx.size), dtype=complex)
    for b, rows in blocks:
        band[b] = (band[side - b.stop:side - b.start][::-1] if rows is None
                   else np.fft.fft(rows, axis=1)[:, kx])
    del rows  # the last block's samples
    band = np.fft.fft(band, axis=0)
    band[np.abs(freq) > carrier / 2.0] = 0.0
    band = np.fft.ifft(band, axis=0)
    out = np.zeros((side, side), dtype=complex)
    out[:, kx] = band
    del band
    tilt = np.exp(-2j * math.pi * np.arange(side) / grating_period)
    for b in _row_blocks(side):
        rows = out[b]
        np.fft.ifft(rows, axis=1, out=rows)
        rows *= tilt  # removes the carrier
    power = _grid_power(out, pitch)
    if power >= _RENORM_FLOOR:
        out /= math.sqrt(power)
    return frozen(out)


def first_order_extract(modulated: FieldGrid, grating_period: float) -> FieldGrid:
    """Isolate the +1 diffraction order (simulated far-field pinhole).

    The pinhole, |f_x - 1/P| <= 1/2P by |f_y| <= 1/2P, is separable, so only
    its band is transformed: a row FFT kept on the b ~ side/P window columns,
    a column FFT of that band kept on the window rows, and their inverses,
    equal to the masked fft2 / ifft2 pair to round-off. A conjugate-grating
    multiply removes the carrier; the field is renormalized to unit power.
    Renormalization is skipped when the windowed power is numerically empty
    (below 1e-9) so that a blank mask legitimately yields a dark output.
    """
    check_grating_period(grating_period, modulated.side)
    return modulated.with_samples(_first_order(
        ((b, modulated.samples[b]) for b in _row_blocks(modulated.side)),
        modulated.side, grating_period, modulated.pitch))


def hologram_readout(idx: ModeIndex, side: int, grating_period: float,
                     illum_scale: float, pgm_path) -> FieldGrid:
    """The hologram of HG(m, n) under a Gaussian illumination illum_scale
    times wider, written to pgm_path, and its first-order readout.

    Bitwise the chain synthesize_hg_field, gaussian_illumination,
    hologram_phase, write_phase_pgm (into pgm_path directly), modulate and
    first_order_extract, with its refusals in the same order, but streamed
    in row blocks from the 1-D factors: the output is the one grid it
    allocates. Both fields are real, so the target's phase is pi where its
    real part has the sign bit set and 0 elsewhere, and the illumination's
    is 0. The magnitude of each 1-D factor is even on the symmetric axis,
    so A_rel and its J1 depth are the same under both mirrors, bit for bit:
    the peak and the refusal come from the top-left quadrant. One generator
    yields the rows in mirror pairs: a top block [s, e) of the upper half,
    then its mirror rows [max(side - e, h), side - s) if any (an odd side's
    middle row has none), h the upper half's height. The top block's depth
    is inverted on the left h columns and mirrored to full width; its mirror
    rows take it and the incident rows reversed from the loop's locals. For
    an even n, hg_factor(n) is even bit for bit, sign included, so mirror
    rows are their top block's rows reversed: they get its PGM levels
    reversed and None for rows, and _first_order copies its band rows
    reversed. Each block's PGM rows go to their own offset of pgm_path. A
    refusal can leave pgm_path partly written, so callers pass a staged file.
    """
    check_grating_period(grating_period, check_side(side))
    pitch, axis = _window(side, 1.0)
    target = _Separable(hg_factor(idx.n, 1.0, axis),
                        hg_factor(idx.m, 1.0, axis), pitch,
                        f"HG({idx.m}, {idx.n}) field")
    g = hg_factor(0, illum_scale, axis)
    incident = _Separable(g, g, pitch, "gaussian illumination")
    in_floor, out_floor = 1e-8 * incident.peak, 1e-6 * target.peak
    half = (side + 1) // 2  # the upper rows and left columns, middle included
    rows = max(1, _BLOCK_SAMPLES // side)
    tops = [slice(s, min(s + rows, half)) for s in range(0, half, rows)]
    left = slice(0, half)
    peak = float(np.max([
        _relative_amplitude(np.abs(target.rows(b, left)),
                            incident.rows(b, left), in_floor, out_floor).max()
        for b in tops]))
    grating = 2.0 * math.pi * np.arange(side, dtype=float) / grating_period
    sines = np.sin(grating), np.sin(math.pi + grating)
    header = _pgm_header(side)
    even = idx.n % 2 == 0  # the row factor, so every row, is even bit for bit
    with open(pgm_path, "wb") as handle:
        handle.write(header)

        def blocks():  # each top block, then its mirror rows if it has any
            for top in tops:
                mirror = slice(max(side - top.stop, half), side - top.start)
                flip = slice(mirror.stop - mirror.start - 1, None, -1)
                t, a_in = target.rows(top), incident.rows(top)
                depth = np.empty_like(a_in)
                depth[:, :half] = _depth(_relative_amplitude(
                    np.abs(t[:, :half]), a_in[:, :half], in_floor, out_floor),
                    peak)
                depth[:, half:] = depth[:, side - half - 1::-1]
                # one body for both: rebinding frees the top block's arrays
                for b in (top, mirror):
                    if b.start == b.stop:  # an odd side's middle row has none
                        break
                    handle.seek(len(header) + b.start * side)
                    if b is mirror:  # the top block's rows, reversed
                        if even:  # so are its PGM levels and band rows
                            handle.write(np.ascontiguousarray(levels[flip]))
                            yield b, None
                            break
                        t, depth = target.rows(b), depth[flip]
                        a_in = a_in[flip]
                    phase = np.where(np.signbit(t), sines[1], sines[0])
                    phase *= depth
                    levels = _pgm_levels(_phase_checked(phase))
                    handle.write(levels)
                    yield b, _transmission(phase, a_in.astype(complex))

        samples = _first_order(blocks(), side, grating_period, pitch)
    return FieldGrid(samples, pitch, 1.0)


_FGRD_HEADER = struct.Struct("<4sII4d")


def write_field_binary(path, field: FieldGrid):
    """Serialize a FieldGrid in the documented FGRD layout (atomic write)."""
    header = _FGRD_HEADER.pack(b"FGRD", 1, field.side, field.pitch,
                               field.sigma0, 780e-9, 0.0)  # the waist plane
    write_atomic(path, header, np.ascontiguousarray(field.samples, "<c16"))


def read_field_binary(path) -> FieldGrid:
    """Read an FGRD file; a header whose plane is not the waist, or whose
    wavelength is not finite and positive, is refused."""
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _FGRD_HEADER.size:
        raise ConfigError("not a version-1 field binary")
    magic, version, side, pitch, sigma0, wavelength, z = _FGRD_HEADER.unpack_from(raw)
    if magic != b"FGRD" or version != 1:
        raise ConfigError("not a version-1 field binary")
    finite_positive("wavelength", wavelength)
    if z != 0.0:
        raise ConfigError(f"field binary at z = {z}, not at the waist z = 0")
    want = side * side * 16
    if len(raw) - _FGRD_HEADER.size != want:
        raise ConfigError(
            f"payload of {len(raw) - _FGRD_HEADER.size} bytes; a {side} x "
            f"{side} grid needs {want}")
    samples = np.frombuffer(raw, "<c16", offset=_FGRD_HEADER.size).reshape(
        side, side).astype(complex)
    if not np.all(np.isfinite(samples)):
        raise ConfigError("field binary holds samples that are not finite")
    return FieldGrid(frozen(samples), pitch, sigma0)


def _pgm_header(side: int) -> bytes:
    return f"P5\n{side} {side}\n255\n".encode("ascii")


def _pgm_levels(phase: np.ndarray) -> np.ndarray:
    levels = phase + math.pi  # [-pi, pi] -> [0, 255]
    levels /= 2 * math.pi
    levels *= 255.0
    return np.clip(np.round(levels, out=levels), 0, 255,
                   out=levels).astype(np.uint8)


def write_phase_pgm(path, phase: PhaseMap):
    """Dump the phase map as an 8-bit binary PGM, [-pi, pi] -> [0, 255]."""
    write_atomic(path, _pgm_header(phase.side), *[
        _pgm_levels(phase.values[b]) for b in _row_blocks(phase.side)])
