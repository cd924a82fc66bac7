"""Sampled transverse fields: synthesis, rotation, holograms, serialization.

This layer works purely on pixel grids and never touches the ladder-operator
algebra, so it can serve as an independent oracle for the mode-space results
(and vice versa). Grids are square with symmetric sample coordinates
x_i = (i - (side - 1) / 2) * pitch, so the beam axis sits between the four
central pixels and right-angle rotations land exactly on grid nodes.
Holograms use the J1-type phase-only encoding of Arrizon et al., JOSA A 24,
3500 (2007), at full modulation depth on a carrier grating; the depth
inverts J1 by one polynomial fitted at import.
The readout is separable: only the band of the first-order pinhole is
Fourier transformed, and purity contracts the 1-D factors of the ideal mode.
Rotation, the hologram encoding and the inverse row FFT of the readout work
in row blocks. FieldGrid and PhaseMap adopt a read-only array that owns its
data, so the producers here freeze their fresh buffers.

File formats
------------
Field binary ("FGRD", version 1): little-endian header
    magic 4s | version u32 | side u32 | pitch f64 | sigma0 f64
    | wavelength f64 | z f64
followed by side*side complex128 samples (interleaved float64 re, im),
row-major with the row index running along y.

Phase-map binary ("PMAP", version 1): little-endian header
    magic 4s | version u32 | side u32 | grating_period f64
followed by side*side float64 phase values in radians.

Phase-map image dump: 8-bit binary PGM (P5), phases mapped linearly from
[-pi, pi] to [0, 255].
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoverageError,
    GridMismatchError,
    SeparationError,
    UnreachableAmplitudeError,
    finite,
    finite_in,
    finite_positive,
    positive_square,
)
from .modes import ModeIndex, ModeState, beam_params, BeamGeometry, hg_factor
from .output import write_atomic

MIN_SIDE = 128
MAX_SIDE = 4096  # 256 MiB per complex128 grid
MIN_COVERAGE_SIGMA = 6.0
DEFAULT_SIDE = 512
DEFAULT_WINDOW_SIGMA = 8.0
DEFAULT_WAVELENGTH = 780e-9

# First maximum of J1, the end of the invertible branch; pinned by a test.
J1_PEAK_X = 1.8411837813406593
# J1(x) = sum_k (-1)^k (x/2)^(2k+1) / (k! (k+1)!), double precision in 13 terms
_J1_SERIES = np.polynomial.Polynomial(np.ravel(
    [[0.0, (-0.25) ** k / (2 * math.factorial(k) * math.factorial(k + 1))]
     for k in range(13)]))
J1_PEAK = float(_J1_SERIES(J1_PEAK_X))

_RENORM_FLOOR = 1e-9
_J1_BLOCK = 16384  # samples per Horner block: y and depth stay in cache
_ROTATE_BLOCK = 32  # grid rows per resampling block, as above


@dataclass(frozen=True)
class FieldGrid:
    """Complex field samples on a square symmetric grid."""

    samples: np.ndarray
    pitch: float
    sigma0: float
    wavelength: float = DEFAULT_WAVELENGTH
    z: float = 0.0

    def __post_init__(self):
        arr = _adopted(self.samples, complex)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("samples must be a square 2-D array")
        finite_in("grid side", arr.shape[0], MIN_SIDE, math.inf, ends="[)")
        finite_positive("pitch", self.pitch)
        positive_square("sigma0", self.sigma0)
        finite_positive("wavelength", self.wavelength)
        finite("z", self.z)
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
        return float(np.sum(np.abs(self.samples) ** 2) * self.pitch ** 2)

    def with_samples(self, samples: np.ndarray) -> "FieldGrid":
        return FieldGrid(samples, self.pitch, self.sigma0, self.wavelength, self.z)


def _axis(side: int, pitch: float) -> np.ndarray:
    return (np.arange(side) - (side - 1) / 2.0) * pitch


def _adopted(arr, dtype) -> np.ndarray:
    """arr if read-only, owning its data and of dtype; else a frozen copy."""
    if not (type(arr) is np.ndarray and arr.dtype == dtype
            and arr.flags.owndata and not arr.flags.writeable):
        arr = np.array(arr, dtype=dtype)
        arr.flags.writeable = False
    return arr


def _row_blocks(side: int) -> list:
    """Row slices of about _J1_BLOCK samples each, the last one partial."""
    rows = max(1, _J1_BLOCK // side)
    return [slice(start, start + rows) for start in range(0, side, rows)]


def _frozen(f: np.ndarray) -> np.ndarray:
    f.flags.writeable = False  # a fresh buffer: FieldGrid adopts it uncopied
    return f


def _unit_power(f: np.ndarray, pitch: float, name: str) -> np.ndarray:
    sq = np.abs(f)  # f is fresh: scaled in place
    power = float(np.sum(np.square(sq, out=sq))) * pitch ** 2
    f /= math.sqrt(finite_positive(f"{name} has power", power))
    return _frozen(f)


def _window(side: int, window_sigma: float, sigma0: float):
    """Pitch and axis of a side-pixel window spanning +-window_sigma sigma0."""
    finite_in("grid side", side, MIN_SIDE, MAX_SIDE)
    finite_in("window half-width in sigma0", window_sigma, MIN_COVERAGE_SIGMA,
              math.inf, CoverageError, "[)")
    pitch = 2.0 * window_sigma * sigma0 / side
    return pitch, _axis(side, pitch)


def _plane_factors(idx: ModeIndex, sigma0: float, wavelength: float,
                   z: float, c: np.ndarray):
    """y (row) and x (column) factors of HG(m, n) at plane z on axis c, the
    amplitude scale sigma0 / sigma(z) and the Gouy phase."""
    sigma_z, gouy, q_inv = beam_params(BeamGeometry(sigma0, wavelength, z))
    scale = sigma0 / sigma_z
    front = np.exp(-0.5j * q_inv.imag * c ** 2)  # curvature k / q = -Im(q_inv)
    return (hg_factor(idx.n, sigma0, scale * c) * front,
            hg_factor(idx.m, sigma0, scale * c) * front, scale, gouy)


def synthesize_hg_field(idx: ModeIndex, sigma0: float, side: int = DEFAULT_SIDE,
                        window_sigma: float = DEFAULT_WINDOW_SIGMA,
                        wavelength: float = DEFAULT_WAVELENGTH,
                        z: float = 0.0) -> FieldGrid:
    """Sample HG(m, n) on a symmetric grid, renormalized to unit grid power.

    The field is the outer product of a y factor (rows) and an x factor
    (columns), each an hg_factor term. Away from the waist the profile is
    rescaled by sigma(z) and picks up the wavefront curvature and the
    (m + n + 1) multiple of the Gouy phase; at z = 0 both are exactly trivial.
    """
    pitch, c = _window(side, window_sigma, sigma0)
    fy, fx, scale, gouy = _plane_factors(idx, sigma0, wavelength, z, c)
    f = np.outer(fy, fx) * (scale * np.exp(-1j * (idx.total + 1) * gouy))
    return FieldGrid(_unit_power(f, pitch, f"HG({idx.m}, {idx.n}) field"),
                     pitch, sigma0, wavelength, z)


def synthesize_superposition(state: ModeState, sigma0: float,
                             side: int = DEFAULT_SIDE,
                             window_sigma: float = DEFAULT_WINDOW_SIGMA) -> FieldGrid:
    """Waist-plane field of an amplitude vector over the HG basis.

    One product Phi^T A^T Phi, with Phi[k] the hg_factor of order k on the
    grid axis and A[m, n] the amplitudes, restricted to the orders that
    carry amplitude.
    """
    amp = state.amplitudes.reshape(state.cutoff + 1, state.cutoff + 1)
    orders = np.flatnonzero(np.any(amp != 0, axis=0) | np.any(amp != 0, axis=1))
    if len(orders) == 0:
        raise ValueError("zero superposition")
    pitch, axis = _window(side, window_sigma, sigma0)
    phi = np.array([hg_factor(int(k), sigma0, axis) for k in orders])
    total = phi.T @ amp[np.ix_(orders, orders)].T @ phi
    return FieldGrid(_unit_power(total, pitch, "superposition"), pitch, sigma0)


def gaussian_illumination(sigma: float, grid_like: FieldGrid) -> FieldGrid:
    """Fundamental-mode beam of width sigma sampled on an existing grid."""
    g = hg_factor(0, sigma, grid_like.coords)
    f = np.outer(g, g).astype(complex)
    return grid_like.with_samples(
        _unit_power(f, grid_like.pitch, "gaussian illumination"))


def rotate_field(field: FieldGrid, angle: float) -> FieldGrid:
    """Rotate the field about the beam axis by bilinear resampling.

    Active rotation: the returned samples are f(R_{-angle} r). Bilinear
    accuracy claims hold for |angle| < pi/4; angles up to pi/2 are accepted
    because right angles map grid nodes onto grid nodes exactly. Samples
    pulled from outside the window are zero.
    """
    finite_in("rotation angle", angle, -math.pi / 2.0 - 1e-12,
              math.pi / 2.0 + 1e-12)
    side, pitch, coords = field.side, field.pitch, field.coords
    c, s = math.cos(angle), math.sin(angle)
    cx, sx, half = c * coords, -s * coords, (side - 1) / 2.0
    # a flat zero border two samples wide: indices clipped into it read zero
    # for both neighbours of a node outside the grid, and one flat index
    # reads all four neighbours through offset views
    width, padded = side + 4, np.pad(field.samples, 2).ravel()
    rotated = np.empty((side, side), dtype=complex)
    for start in range(0, side, _ROTATE_BLOCK):
        y = coords[start:start + _ROTATE_BLOCK, None]
        fc = (cx + s * y) / pitch + half  # fractional source column (x)
        fr = (sx + c * y) / pitch + half  # and row (y)
        c0, r0 = np.floor(fc), np.floor(fr)
        tc, tr = fc - c0, fr - r0
        k = ((np.clip(r0, -2, side) + 2) * width
             + np.clip(c0, -2, side) + 2).astype(np.intp)
        rotated[start:start + _ROTATE_BLOCK] = (
            (1 - tr) * (1 - tc) * padded.take(k)
            + (1 - tr) * tc * padded[1:].take(k)
            + tr * (1 - tc) * padded[width:].take(k)
            + tr * tc * padded[width + 1:].take(k))
    return field.with_samples(_frozen(rotated))


def overlap(a: FieldGrid, b: FieldGrid) -> complex:
    """Discrete inner product <a|b> = pitch^2 sum conj(a) b."""
    if a.side != b.side or not math.isclose(a.pitch, b.pitch, rel_tol=1e-12):
        raise GridMismatchError("fields sampled on different grids")
    if not math.isclose(a.z, b.z, abs_tol=1e-12):
        raise GridMismatchError("fields sampled at different planes")
    return complex(np.vdot(a.samples, b.samples) * a.pitch ** 2)


def mode_purity(field: FieldGrid, idx: ModeIndex) -> float:
    """|overlap|^2 against the ideal HG(m, n) on the field's grid and plane:
    pitch^2 |a_n^H F conj(a_m)|^2 / (|a_n|^2 |a_m|^2) with a_k its 1-D
    factors; its Gouy phase and sigma(z) scale drop out."""
    fy, fx, _, _ = _plane_factors(idx, field.sigma0, field.wavelength,
                                  field.z, field.coords)
    amp = abs(np.vdot(fy, field.samples @ fx.conj())) * field.pitch
    return float(amp ** 2 / (np.vdot(fy, fy).real * np.vdot(fx, fx).real))


def j1_inverse(target: float) -> float:
    """Depth f with J1(f) = target on the rising branch [0, J1_PEAK_X].

    One series evaluation; targets outside [0, J1_PEAK] are unreachable.
    """
    finite_in("amplitude", target, 0.0, J1_PEAK, UnreachableAmplitudeError)
    return float(_j1_inverse_array(np.array([target]))[0])


def _newton_depth(y: np.ndarray) -> np.ndarray:
    # Newton from 0: J1 is concave and rising on the branch, so the iterates
    # climb to each root without crossing the peak.
    t = J1_PEAK * (1.0 - 0.25 * (y + 1.0) ** 2)
    x = np.zeros_like(t)
    for _ in range(20):  # enough for the node nearest the peak
        x -= (_J1_SERIES(x) - t) / _J1_SERIES.deriv()(x)
    return x


# The depth is analytic in sqrt(J1_PEAK - t) on the whole branch, peak
# included: one Chebyshev interpolant in y = 2 sqrt(1 - t / J1_PEAK) - 1 covers
# it, and its power-basis coefficients sum to ~2, so Horner in y is as exact.
_J1_INVERSE_POLY = np.polynomial.chebyshev.cheb2poly(
    np.polynomial.chebyshev.chebinterpolate(_newton_depth, 24))


def _j1_inverse_array(targets: np.ndarray) -> np.ndarray:
    flat = np.ravel(targets)
    depth = np.full_like(flat, _J1_INVERSE_POLY[-1])
    for start in range(0, flat.size, _J1_BLOCK):
        y = 2.0 * np.sqrt(1.0 - flat[start:start + _J1_BLOCK] / J1_PEAK) - 1.0
        block = depth[start:start + _J1_BLOCK]
        for a in _J1_INVERSE_POLY[-2::-1]:  # Horner in place
            block *= y
            block += a
    return np.clip(depth, 0.0, J1_PEAK_X, out=depth).reshape(np.shape(targets))


@dataclass(frozen=True)
class PhaseMap:
    """Phase hologram in radians plus its carrier grating period (pixels)."""

    values: np.ndarray
    grating_period: float

    def __post_init__(self):
        arr = _adopted(self.values, float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("phase map must be square")
        top = max(float(arr.max()), -float(arr.min()))  # max |H|, no abs grid
        finite_in("largest phase magnitude", top, 0.0, math.pi + 1e-9)
        finite_positive("grating period", self.grating_period)
        object.__setattr__(self, "values", arr)

    @property
    def side(self) -> int:
        return self.values.shape[0]


def hologram_phase(target: FieldGrid, incident: FieldGrid,
                   grating_period: float) -> PhaseMap:
    """Phase-only encoding H = f(A_rel) sin(phi_out - phi_in + phi_grating).

    The relative amplitude A_rel = |target| / |incident| is scaled so its
    maximum reaches the peak of J1 (full modulation depth). grating_period
    is in pixels along x. Each pass works on row blocks of one float grid.
    """
    if target.side != incident.side or not math.isclose(
            target.pitch, incident.pitch, rel_tol=1e-12):
        raise GridMismatchError("target and incident grids differ")
    finite_positive("grating period", grating_period)
    period, blocks = float(grating_period), _row_blocks(target.side)
    out = np.abs(target.samples)  # the one grid: |target|, then A_rel, then H
    in_floor = 1e-8 * float(np.max(  # np.max of the block maxima keeps a NaN
        [np.abs(incident.samples[b]).max() for b in blocks]))
    out_floor = 1e-6 * float(out.max())
    for b in blocks:
        a_in, a_out = np.abs(incident.samples[b]), out[b]
        valid = a_in > in_floor
        if np.any(a_out[~valid] > out_floor):
            raise UnreachableAmplitudeError(
                "target has weight where the illumination is empty")
        out[b] = np.divide(a_out, a_in, where=valid, out=np.zeros_like(a_in))
    peak = float(out.max())
    grating = 2.0 * math.pi * np.arange(target.side, dtype=float) / period
    for b in blocks:
        rel = out[b]
        if peak != 0.0:  # scaled in place, so rel becomes the depth target
            rel *= J1_PEAK / peak
            np.minimum(rel, J1_PEAK, out=rel)  # the peak may land an ulp above
        phi = np.angle(target.samples[b]) - np.angle(incident.samples[b])
        phi += grating
        np.multiply(_j1_inverse_array(rel), np.sin(phi, out=phi), out=rel)
    return PhaseMap(_frozen(out), period)


def modulate(incident: FieldGrid, phase: PhaseMap) -> FieldGrid:
    """Field right after the phase mask: incident * exp(i H)."""
    if phase.side != incident.side:
        raise GridMismatchError("phase map and field sides differ")
    transmission = np.empty(phase.values.shape, dtype=complex)
    np.cos(phase.values, out=transmission.real)
    np.sin(phase.values, out=transmission.imag)
    transmission *= incident.samples
    return incident.with_samples(_frozen(transmission))


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
    side = modulated.side
    # 4 px resolve the carrier; above side / 2 it falls in the zeroth order
    finite_in("grating period in px", grating_period, 4.0, side / 2.0,
              SeparationError)
    carrier = 1.0 / grating_period  # cycles per pixel along x
    freq = np.fft.fftfreq(side)
    kx = np.flatnonzero(np.abs(freq - carrier) <= carrier / 2.0)
    rows = np.fft.fft(modulated.samples, axis=1)
    band = np.fft.fft(rows[:, kx], axis=0)
    band[np.abs(freq) > carrier / 2.0] = 0.0
    rows[...] = 0.0  # reused as the zeroed grid of the inverse row FFT
    rows[:, kx] = np.fft.ifft(band, axis=0)
    for b in _row_blocks(side):  # in place, bitwise the whole-grid ifft
        rows[b] = np.fft.ifft(rows[b], axis=1)
    rows *= np.exp(-2j * math.pi * np.arange(side) / grating_period)
    power = float(np.sum(np.abs(rows) ** 2)) * modulated.pitch ** 2
    if power >= _RENORM_FLOOR:
        rows /= math.sqrt(power)
    return modulated.with_samples(_frozen(rows))


_FGRD_HEADER = struct.Struct("<4sII4d")
_PMAP_HEADER = struct.Struct("<4sIId")


def write_field_binary(path, field: FieldGrid):
    """Serialize a FieldGrid in the documented FGRD layout (atomic write)."""
    header = _FGRD_HEADER.pack(b"FGRD", 1, field.side, field.pitch,
                               field.sigma0, field.wavelength, field.z)
    write_atomic(path, header, np.ascontiguousarray(field.samples, "<c16"))


def _payload(raw: bytes, offset: int, side: int, dtype: str) -> np.ndarray:
    """The side x side samples after a header of offset bytes; a payload of
    any other length is refused."""
    want = side * side * np.dtype(dtype).itemsize
    if len(raw) - offset != want:
        raise ValueError(
            f"payload of {len(raw) - offset} bytes; a {side} x {side} grid "
            f"needs {want}")
    return np.frombuffer(raw, dtype=dtype, offset=offset).reshape(side, side)


def read_field_binary(path) -> FieldGrid:
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _FGRD_HEADER.size:
        raise ValueError("not a version-1 field binary")
    magic, version, side, pitch, sigma0, wavelength, z = _FGRD_HEADER.unpack_from(raw)
    if magic != b"FGRD" or version != 1:
        raise ValueError("not a version-1 field binary")
    samples = _payload(raw, _FGRD_HEADER.size, side, "<c16").astype(complex)
    if not np.all(np.isfinite(samples)):
        raise ValueError("field binary holds samples that are not finite")
    return FieldGrid(_frozen(samples), pitch, sigma0, wavelength, z)


def write_phase_binary(path, phase: PhaseMap):
    header = _PMAP_HEADER.pack(b"PMAP", 1, phase.side, phase.grating_period)
    write_atomic(path, header, np.ascontiguousarray(phase.values, "<f8"))


def read_phase_binary(path) -> PhaseMap:
    with open(path, "rb") as handle:
        raw = handle.read()
    if len(raw) < _PMAP_HEADER.size:
        raise ValueError("not a version-1 phase binary")
    magic, version, side, period = _PMAP_HEADER.unpack_from(raw)
    if magic != b"PMAP" or version != 1:
        raise ValueError("not a version-1 phase binary")
    values = _payload(raw, _PMAP_HEADER.size, side, "<f8").astype(float)
    return PhaseMap(_frozen(values), period)


def write_phase_pgm(path, phase: PhaseMap):
    """Dump the phase map as an 8-bit binary PGM, [-pi, pi] -> [0, 255]."""
    image = np.empty(phase.values.shape, dtype=np.uint8)
    for b in _row_blocks(phase.side):  # float scratch one row block at a time
        levels = phase.values[b] + math.pi
        levels /= 2 * math.pi
        levels *= 255.0
        image[b] = np.clip(np.round(levels, out=levels), 0, 255, out=levels)
    header = f"P5\n{phase.side} {phase.side}\n255\n".encode("ascii")
    write_atomic(path, header, image)
