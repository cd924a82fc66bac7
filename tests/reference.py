"""Reference routes that live beside the tests, not in the package.

The package computes every readout on the vectors it spans (the
two-outcome fisher.CarrierReadout) and on the bands and 1-D factors of
separable fields, resamples rotated fields and encodes and writes holograms
in row blocks, memoizes each generator block's eigendecomposition and
evaluates each stencil point once. The helpers here take dense operator
matrices, full 2-D transforms, full 2-D mode grids, whole-grid fancy
indexing and whole-grid temporaries, a fresh eigendecomposition per call
and the nine-evaluation stencil instead, so a test can check the structured
route against the textbook one. final_pointer_first_order is the first-order
post-selected pointer that the tests hold against the exact evolution; no
package route uses it.
"""

import math

import numpy as np

from hgsense.errors import (
    GridMismatchError,
    SeparationError,
    StepSizeError,
    UnreachableAmplitudeError,
    finite_positive,
)
from hgsense.fields import (
    _RENORM_FLOOR,
    J1_PEAK,
    FieldGrid,
    PhaseMap,
    _j1_inverse_array,
    overlap,
    synthesize_hg_field,
)
from hgsense.fisher import (
    _STENCIL_RTOL,
    PROBABILITY_FLOOR,
    _stencil_value,
    default_step,
)
from hgsense.modes import ModeState
from hgsense.output import write_atomic
from hgsense.weak import Coupling, Generator, WeakScenario, _tridiagonal


def final_pointer_first_order(s: WeakScenario) -> ModeState:
    """Post-selected pointer N (1 - i M_w Omega)|psi_i>, normalized.

    Valid only inside the weak-regime guard.
    """
    s.require_weak_regime()
    mw = s.coupling_strength
    omega = s.operator()
    vec = s.pointer.amplitudes - 1j * mw * omega.apply(s.pointer)
    return ModeState(s.pointer.cutoff, vec).normalize()


def evolve_uncached(gen: Generator, alphas, state: ModeState) -> np.ndarray:
    """exp(-i alpha Omega) |state> for each alpha, one flat row per alpha,
    building every block and running its eigh on each call."""
    if state.cutoff != gen.cutoff:
        raise ValueError("operator and state truncations differ")
    x = state.amplitudes.reshape(gen.cutoff + 1, gen.cutoff + 1)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    out = np.zeros((len(alphas),) + x.shape, dtype=complex)
    if gen.coupling is Coupling.MOMENTUM_X:
        blocks = [(_tridiagonal(-np.sqrt(np.arange(1, gen.cutoff + 1))
                                / (2.0 * gen.sigma0)),
                   (slice(None), np.flatnonzero(np.any(x != 0, axis=0))))]
    else:
        blocks = []
        for s in np.flatnonzero(np.bincount(np.add(*np.nonzero(x)))):
            j = np.arange(max(0, s - gen.cutoff), min(s, gen.cutoff) + 1)
            blocks.append((_tridiagonal(np.sqrt(j[1:] * (s - j[1:] + 1))),
                           (j[:, None], s - j[:, None])))
    for block, (rows, cols) in blocks:
        w, v = np.linalg.eigh(block)
        phases = np.exp(-1j * np.multiply.outer(alphas, w))[:, :, None]
        out[:, rows, cols] = v @ (phases * (v.conj().T @ x[rows, cols]))
    return out.reshape(len(alphas), -1)


def stencil_value_nine_calls(fn, reduce, g, step):
    """fisher._stencil_value evaluating fn at all four points of each of the
    h and 2h stencils, so at g +- 2h twice."""
    h = finite_positive("step", default_step(g) if step is None else step)

    def derivative(d: float) -> np.ndarray:
        return (np.asarray(fn(g - 2 * d)) - 8 * np.asarray(fn(g - d))
                + 8 * np.asarray(fn(g + d)) - np.asarray(fn(g + 2 * d))) / (12.0 * d)

    q_h = reduce(derivative(h))
    q_2h = reduce(derivative(2 * h))
    scale = max(abs(q_h), abs(q_2h), 1e-30)
    if abs(q_h - q_2h) > _STENCIL_RTOL * scale:
        raise StepSizeError(
            f"stencil values disagree ({q_h:.6g} vs {q_2h:.6g}); "
            "adjust the differentiation step")
    return q_h


def dense_cfi(state_fn, g, elements, step=None):
    """Classical Fisher information sum_k (dp_k/dg)^2 / p_k of a dense POVM.

    elements are square arrays on the flat basis; they must be Hermitian,
    positive semidefinite and sum to the identity (to 1e-10). The
    probabilities p_k = <psi|E_k|psi> go through the same stencil and
    disagreement guard as fisher.cfi_povm, and outcomes below its
    probability floor contribute zero.
    """
    mats = [np.asarray(e, dtype=complex) for e in elements]
    assert all(np.max(np.abs(e - e.conj().T)) <= 1e-12 for e in mats)
    assert all(np.linalg.eigvalsh(e)[0] >= -1e-10 for e in mats)
    assert np.max(np.abs(sum(mats) - np.eye(len(mats[0])))) <= 1e-10

    def probs(x):
        psi = state_fn(x).amplitudes
        return np.array([float(np.real(np.vdot(psi, e @ psi))) for e in mats])

    p0 = probs(g)

    def fisher_sum(dp):
        return sum((dpk ** 2 / pk for pk, dpk in zip(p0, dp)
                    if pk >= PROBABILITY_FLOOR), 0.0)

    return _stencil_value(probs, fisher_sum, g, step)


def first_order_extract_fft(modulated: FieldGrid, grating_period: float) -> FieldGrid:
    """Isolate the +1 diffraction order (simulated far-field pinhole).

    Fourier transform, keep a square window of half-width equal to half the
    carrier frequency around the carrier, inverse transform, remove the
    carrier by a conjugate-grating multiply, and renormalize to unit power.
    Renormalization is skipped when the windowed power is numerically empty
    (below 1e-9) so that a blank mask legitimately yields a dark output.
    """
    side = modulated.side
    if not grating_period >= 4.0:  # NaN fails too; inf fails the next guard
        raise SeparationError(
            f"grating period {grating_period} px must reach the 4 px "
            "resolution bound")
    if grating_period > side / 2.0:
        raise SeparationError(
            f"grating period {grating_period} px puts the carrier inside the "
            "zeroth-order window")
    carrier = 1.0 / grating_period  # cycles per pixel along x
    fx = np.fft.fftfreq(side)
    mask = ((np.abs(fx[None, :] - carrier) <= carrier / 2.0)
            & (np.abs(fx[:, None]) <= carrier / 2.0))
    spectrum = np.fft.fft2(modulated.samples)
    windowed = np.fft.ifft2(spectrum * mask)
    cols = np.arange(side, dtype=float)
    baseband = windowed * np.exp(-2j * math.pi * cols[None, :] / grating_period)
    out = modulated.with_samples(baseband)
    if out.power >= _RENORM_FLOOR:
        out = out.with_samples(baseband / math.sqrt(out.power))
    return out


def mode_purity_2d(field: FieldGrid, idx) -> float:
    """|overlap|^2 against the ideal mode synthesized as a full 2-D grid on
    the field's grid and plane."""
    ideal = synthesize_hg_field(
        idx, field.sigma0, field.side,
        0.5 * field.side * field.pitch / field.sigma0, field.wavelength,
        field.z)
    return abs(overlap(ideal, field)) ** 2


def rotate_field_fancy(field: FieldGrid, angle: float) -> FieldGrid:
    """Rotate the field about the beam axis by bilinear resampling.

    Active rotation: the returned samples are f(R_{-angle} r). Bilinear
    accuracy claims hold for |angle| < pi/4; angles up to pi/2 are accepted
    because right angles map grid nodes onto grid nodes exactly. Samples
    pulled from outside the window are zero.
    """
    if not abs(angle) <= math.pi / 2.0 + 1e-12:  # NaN fails too
        raise ValueError(
            f"angle must be finite with |angle| <= pi/2, got {angle}")
    x, y = field.coords[None, :], field.coords[:, None]
    c, s = math.cos(angle), math.sin(angle)
    xs = c * x + s * y
    ys = -s * x + c * y
    # fractional source indices; col tracks x, row tracks y
    half = (field.side - 1) / 2.0
    fc = xs / field.pitch + half
    fr = ys / field.pitch + half
    c0 = np.floor(fc)
    r0 = np.floor(fr)
    tc = fc - c0
    tr = fr - r0
    # a zero border two samples wide: indices clipped into it read zero for
    # both neighbours of a node outside the grid
    padded = np.pad(field.samples, 2)
    ci = np.clip(c0.astype(int), -2, field.side) + 2
    ri = np.clip(r0.astype(int), -2, field.side) + 2
    rotated = ((1 - tr) * (1 - tc) * padded[ri, ci]
               + (1 - tr) * tc * padded[ri, ci + 1]
               + tr * (1 - tc) * padded[ri + 1, ci]
               + tr * tc * padded[ri + 1, ci + 1])
    return field.with_samples(rotated)


def hologram_phase_whole_grid(target: FieldGrid, incident: FieldGrid,
                              grating_period: float) -> PhaseMap:
    """Phase-only encoding H = f(A_rel) sin(phi_out - phi_in + phi_grating),
    computed on whole-grid temporaries.

    The relative amplitude A_rel = |target| / |incident| is scaled so its
    maximum reaches the peak of J1 (full modulation depth). grating_period
    is in pixels along x.
    """
    if target.side != incident.side or not math.isclose(
            target.pitch, incident.pitch, rel_tol=1e-12):
        raise GridMismatchError("target and incident grids differ")
    finite_positive("grating period", grating_period)
    a_in, a_out = np.abs(incident.samples), np.abs(target.samples)
    valid = a_in > 1e-8 * float(a_in.max())
    if np.any(a_out[~valid] > 1e-6 * float(a_out.max())):
        raise UnreachableAmplitudeError(
            "target has weight where the illumination is empty")
    rel = np.divide(a_out, a_in, where=valid, out=np.zeros_like(a_out))
    peak = float(rel.max())
    if peak != 0.0:  # scaled in place, so rel becomes the depth target
        rel *= J1_PEAK / peak
        np.minimum(rel, J1_PEAK, out=rel)  # the peak may land an ulp above
    depth = _j1_inverse_array(rel)
    period = float(grating_period)
    phi = np.angle(target.samples) - np.angle(incident.samples)
    phi += 2.0 * math.pi * np.arange(target.side, dtype=float) / period
    return PhaseMap(np.multiply(depth, np.sin(phi, out=phi), out=phi), period)


def write_phase_pgm_whole_grid(path, phase: PhaseMap):
    """8-bit binary PGM of the phase map, [-pi, pi] -> [0, 255], scaled on
    one whole-grid float scratch array."""
    levels = phase.values + math.pi  # one scratch grid, scaled in place
    levels /= 2 * math.pi
    levels *= 255.0
    np.clip(np.round(levels, out=levels), 0, 255, out=levels)
    header = f"P5\n{phase.side} {phase.side}\n255\n".encode("ascii")
    write_atomic(path, header, levels.astype(np.uint8))
