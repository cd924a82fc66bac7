"""Reference routes that live beside the tests, not in the package.

The package computes every readout on the vectors it spans (the two-outcome
fisher.CarrierReadout) and on the bands and 1-D factors of separable
fields, resamples rotated fields and encodes and writes holograms in row
blocks, memoizes each generator block's eigendecomposition and evaluates
each stencil point once, and streams the hologram chain from the 1-D mode
factors. The helpers here take dense matrices as plain arrays (a POVM's
elements, or modes.lz_matrix and its kin for dense_variance), full 2-D
transforms, full 2-D mode grids, whole-grid fancy indexing and whole-grid
temporaries, a fresh eigendecomposition per call and the nine-evaluation
stencil instead, so a test can check the structured route against the
textbook one. first_order_pointer is the first-order post-selected pointer
that the tests hold against the exact evolution, and
final_pointer_first_order the same inside the library's weak-regime guard;
no package route uses either. apply_uncached and evolve_uncached build each
block on the call, find a state's Lz shells by a search of its 2-D grid and
gather and scatter by 2-D fancy indices; the package reads each block and
its flat indices from a memo. qfi_rotation_exact_selections_per_order is the
exact rotation QFI as one call per pointer and selection pair, checking
every pair through a WeakScenario and running eigh on a shell block built on
the call; the package forms each pair's amplitudes once per sweep and runs
all pointers and pairs in one pass over the memo's shells, and a test
requires the same floats bit for bit.
final_pointer_exact_uncached forms a scenario's selection amplitudes on each
call and evolves through evolve_uncached; the package reads the amplitudes
its WeakScenario formed and the shells its ModeState found once, and keeps
its last exact pointers in a memo.
synthesize_hg_field_complex and gaussian_illumination_complex divide a whole
complex outer product by its root power, where the package builds the grid
from its 1-D factors in row blocks. j1_inverse_fit is the Newton and
Chebyshev fit of the J1 inverse whose coefficients the package holds as
literals. lockin_bin_means and montecarlo_lockin_per_bin are the lock-in
Monte Carlo as it drew before experiment.montecarlo_lockin drew once per
drive phase: a Poisson count and, with electrical noise, a normal for every
1/(20 f) time bin of the window, all trials in this process.
"""

import math

import numpy as np

from hgsense.errors import (
    GridMismatchError,
    SeparationError,
    StepSizeError,
    TotalExtinctionError,
    UnreachableAmplitudeError,
    finite_positive,
    frozen,
)
from hgsense.fields import (
    _RENORM_FLOOR,
    J1_PEAK,
    FieldGrid,
    PhaseMap,
    _j1_inverse_array,
    _unit_power,
    _window,
    overlap,
)
from hgsense.experiment import SAMPLES_PER_CYCLE
from hgsense.fisher import (
    _STENCIL_RTOL,
    PROBABILITY_FLOOR,
    _stencil_value,
    default_step,
)
from hgsense.modes import (
    ModeIndex,
    ModeState,
    hg_factor,
    hg_wavefunction,
    oam_variance,
)
from hgsense.output import write_atomic
from hgsense.weak import (
    ORTHOGONALITY_FLOOR,
    Coupling,
    ExactPointer,
    Generator,
    PauliAxis,
    WeakScenario,
    _tridiagonal,
    check_epsilon,
)


def final_pointer_first_order(s: WeakScenario) -> ModeState:
    """first_order_pointer of s inside the library's weak-regime guard."""
    s.require_weak_regime()
    return first_order_pointer(s)


def first_order_pointer(s: WeakScenario) -> ModeState:
    """Post-selected pointer N (1 - i M_w Omega)|psi_i>, normalized, with no
    guard: a test of how its error scales may leave the weak regime."""
    mw = s.coupling_strength
    omega = s.operator()
    vec = s.pointer.amplitudes - 1j * mw * omega.apply(s.pointer)
    return ModeState(s.pointer.cutoff, vec).normalize()


def final_pointer_exact_uncached(s: WeakScenario) -> ExactPointer:
    """weak.final_pointer_exact with a+- formed from the scenario's
    selections on the call, a second bracket besides the constructor's, and
    the pointer evolved by evolve_uncached."""
    fwd, bwd = evolve_uncached(s.operator(), (s.alpha, -s.alpha), s.pointer)
    plus, minus, prob = _post_selected_branches_of(s, fwd, bwd)
    return ExactPointer(ModeState(s.pointer.cutoff,
                                  (plus + minus) / math.sqrt(prob)), prob)


def _selection_amplitudes_of(s: WeakScenario) -> tuple[complex, complex]:
    """(a+, a-) = (<f|i> +- <f|A|i>) / 2 formed from the scenario's
    selections on each call, in Python's complex arithmetic as the package
    forms them, so no BLAS kernel sets their bits."""
    (f0, f1), (i0, i1) = (np.array([q.c0, q.c1], dtype=complex).tolist()
                          for q in (s.post, s.pre))
    (m00, m01), (m10, m11) = s.axis.matrix.tolist()
    braket = f0.conjugate() * i0 + f1.conjugate() * i1
    bra_a_ket = (f0.conjugate() * (m00 * i0 + m01 * i1)
                 + f1.conjugate() * (m10 * i0 + m11 * i1))
    return 0.5 * (braket + bra_a_ket), 0.5 * (braket - bra_a_ket)


def _post_selected_branches_of(s: WeakScenario, fwd: np.ndarray,
                               bwd: np.ndarray):
    """(a+ fwd, a- bwd, |a+ fwd + a- bwd|^2) with a+- formed from the
    scenario's selections on each call; TotalExtinctionError where the sum
    underflows or cancels to round-off."""
    amp_plus, amp_minus = _selection_amplitudes_of(s)
    plus, minus = amp_plus * fwd, amp_minus * bwd
    vec = plus + minus
    prob = float(np.real(np.vdot(vec, vec)))
    branches = float(np.real(np.vdot(plus, plus) + np.vdot(minus, minus)))
    if not prob >= max(1e-300, ORTHOGONALITY_FLOOR ** 2 * branches):  # NaN too
        raise TotalExtinctionError(
            "post-selected amplitude underflowed or cancelled to round-off")
    return plus, minus, prob


def qfi_rotation_exact_selections_per_order(pairs, axis: PauliAxis,
                                            alpha: float,
                                            idx: ModeIndex) -> list[float]:
    """Exact QFI about alpha of the basis pointer idx under rotation
    coupling, one value per (pre, post) selection pair: one order and one
    pair at a time, each pair checked in a WeakScenario, on the eigh of a
    shell block built on the call. The arithmetic is the package's
    eigenbasis formula (weak.rotation_family_eigenbasis, then
    fisher.qfi_rotation_exact_selections), so a test can require the
    batched sweep over its memo to give the same bits."""
    shell, m = idx.total, idx.m
    pointer = ModeState.basis(shell, m, idx.n)
    j = np.arange(shell + 1)
    w, v = np.linalg.eigh(_tridiagonal(np.sqrt(j[1:] * (shell - j[1:] + 1))))
    basis = np.zeros((4, shell + 1), dtype=complex)
    parts, theta = basis.real, alpha * w
    np.cos(theta, out=parts[0])
    np.sin(theta, out=parts[1])
    np.multiply(parts[:2], w, out=parts[2:])
    basis *= np.conj(v[m])
    basis = basis.reshape(2, 2, shell + 1)
    starts, sizes = np.zeros(1, dtype=np.intp), np.full(1, shell + 1)
    out = []
    for pre, post in pairs:
        plus, minus = _selection_amplitudes_of(WeakScenario(
            alpha, pre, post, axis, Coupling.OAM, pointer))
        s, d = plus + minus, plus - minus
        coef = np.array([s, -1j * d, -1j * d, -s],
                        dtype=complex).reshape(1, 2, 2, 1)
        family = coef[:, :, 0] * basis[:, 0] + coef[:, :, 1] * basis[:, 1]
        sums = np.add.reduceat(family[:, :1].conj() * family, starts, axis=2)
        norm2 = sums[:, 0].real
        if not norm2[0, 0] >= max(1e-300, ORTHOGONALITY_FLOOR ** 2
                                  * (abs(plus) ** 2 + abs(minus) ** 2)):
            raise TotalExtinctionError(
                "post-selected amplitude underflowed or cancelled to "
                "round-off")
        resid = family[:, 1] - np.repeat(sums[:, 1] / norm2, sizes,
                                         axis=1) * family[:, 0]
        spread = np.add.reduceat((resid * resid.conj()).real, starts, axis=1)
        out.append(float(4.0 * (spread / norm2)[0, 0]))
    return out


def _blocks_uncached(gen: Generator, x: np.ndarray) -> list:
    """(block, (rows, cols) in the 2-D grid x) per block x has support on,
    each block built on the call: the Lz shells found by a search of x."""
    if gen.coupling is Coupling.MOMENTUM_X:
        return [(_tridiagonal(-np.sqrt(np.arange(1, gen.cutoff + 1))
                              / (2.0 * gen.sigma0)),
                 (slice(None), np.flatnonzero(np.any(x != 0, axis=0))))]
    blocks = []
    for s in np.flatnonzero(np.bincount(np.add(*np.nonzero(x)))):
        j = np.arange(max(0, s - gen.cutoff), min(s, gen.cutoff) + 1)
        blocks.append((_tridiagonal(np.sqrt(j[1:] * (s - j[1:] + 1))),
                       (j[:, None], s - j[:, None])))
    return blocks


def _grid_of(gen: Generator, state: ModeState) -> np.ndarray:
    if state.cutoff != gen.cutoff:
        raise ValueError("operator and state truncations differ")
    return state.amplitudes.reshape(gen.cutoff + 1, gen.cutoff + 1)


def apply_uncached(gen: Generator, state: ModeState) -> np.ndarray:
    """Omega |state> as a flat vector, gathering and scattering each block
    by 2-D fancy indices."""
    x = _grid_of(gen, state)
    out = np.zeros_like(x)
    for block, (rows, cols) in _blocks_uncached(gen, x):
        out[rows, cols] = block @ x[rows, cols]
    return out.reshape(-1)


def evolve_uncached(gen: Generator, alphas, state: ModeState) -> np.ndarray:
    """exp(-i alpha Omega) |state> for each alpha, one flat row per alpha,
    building every block and running its eigh on each call."""
    x = _grid_of(gen, state)
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    out = np.zeros((len(alphas),) + x.shape, dtype=complex)
    for block, (rows, cols) in _blocks_uncached(gen, x):
        w, v = np.linalg.eigh(block)
        phases = np.exp(-1j * np.multiply.outer(alphas, w))[:, :, None]
        out[:, rows, cols] = v @ (phases * (v.conj().T @ x[rows, cols]))
    return out.reshape(len(alphas), -1)


def dense_variance(matrix: np.ndarray, state: ModeState) -> float:
    """<M^dagger M> - |<M>|^2 of a dense matrix M on state, the moments that
    modes.variance forms from a Generator."""
    v = matrix @ state.amplitudes
    mu = complex(np.vdot(state.amplitudes, v))
    return float(np.real(np.vdot(v, v))) - abs(mu) ** 2


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


def first_order_extract_whole_grid(modulated: FieldGrid,
                                   grating_period: float) -> FieldGrid:
    """The pinhole-band readout of fields.first_order_extract on whole-grid
    temporaries: one row FFT of the whole grid, the inverse row FFT of a
    zeroed whole grid holding the band, and the power summed by one np.sum
    of a whole power grid."""
    side = modulated.side
    carrier = 1.0 / grating_period  # cycles per pixel along x
    freq = np.fft.fftfreq(side)
    kx = np.flatnonzero(np.abs(freq - carrier) <= carrier / 2.0)
    rows = np.fft.fft(modulated.samples, axis=1)
    band = np.fft.fft(rows[:, kx], axis=0)
    band[np.abs(freq) > carrier / 2.0] = 0.0
    rows[...] = 0.0
    rows[:, kx] = np.fft.ifft(band, axis=0)
    rows = np.fft.ifft(rows, axis=1)
    rows *= np.exp(-2j * math.pi * np.arange(side) / grating_period)
    power = float(np.sum(np.abs(rows) ** 2)) * modulated.pitch ** 2
    if power >= _RENORM_FLOOR:
        rows /= math.sqrt(power)
    return modulated.with_samples(rows)


def mode_purity_2d(field: FieldGrid, idx) -> float:
    """|overlap|^2 against the ideal mode evaluated as a full 2-D grid on
    the field's coordinates, at unit grid power."""
    x, y = np.meshgrid(field.coords, field.coords)
    ideal = hg_wavefunction(idx, field.sigma0, x, y).astype(complex)
    ideal /= math.sqrt(float(np.sum(np.abs(ideal) ** 2))) * field.pitch
    return abs(overlap(field.with_samples(ideal), field)) ** 2


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
    phi = np.angle(target.samples) - np.angle(incident.samples)
    phi += 2.0 * math.pi * np.arange(target.side, dtype=float) / grating_period
    # frozen as hologram_phase's grid is, so PhaseMap adopts both unchecked
    return PhaseMap(frozen(np.multiply(depth, np.sin(phi, out=phi), out=phi)))


def write_phase_pgm_whole_grid(path, phase: PhaseMap):
    """8-bit binary PGM of the phase map, [-pi, pi] -> [0, 255], scaled on
    one whole-grid float scratch array."""
    levels = phase.values + math.pi  # one scratch grid, scaled in place
    levels /= 2 * math.pi
    levels *= 255.0
    np.clip(np.round(levels, out=levels), 0, 255, out=levels)
    header = f"P5\n{phase.side} {phase.side}\n255\n".encode("ascii")
    write_atomic(path, header, levels.astype(np.uint8))


def synthesize_hg_field_complex(idx: ModeIndex, sigma0: float,
                                side: int) -> FieldGrid:
    """HG(m, n) as the whole complex outer product of its factors, divided
    by its root grid power."""
    pitch, c = _window(side, sigma0)
    f = np.zeros((side, side), dtype=complex)
    np.multiply.outer(hg_factor(idx.n, sigma0, c), hg_factor(idx.m, sigma0, c),
                      out=f.real)
    return FieldGrid(_unit_power(f, pitch, f"HG({idx.m}, {idx.n}) field"),
                     pitch, sigma0)


def gaussian_illumination_complex(sigma: float,
                                  grid_like: FieldGrid) -> FieldGrid:
    """The Gaussian beam as the whole complex outer product of its factor,
    divided by its root grid power."""
    g = hg_factor(0, sigma, grid_like.coords)
    f = np.outer(g, g).astype(complex)
    return grid_like.with_samples(
        _unit_power(f, grid_like.pitch, "gaussian illumination"))


# J1(x) = sum_k (-1)^k (x/2)^(2k+1) / (k! (k+1)!), double precision in 13 terms
J1_SERIES = np.polynomial.Polynomial(np.ravel(
    [[0.0, (-0.25) ** k / (2 * math.factorial(k) * math.factorial(k + 1))]
     for k in range(13)]))


def _newton_depth(y: np.ndarray) -> np.ndarray:
    # Newton from 0: J1 is concave and rising on the branch, so the iterates
    # climb to each root without crossing the peak.
    t = J1_PEAK * (1.0 - 0.25 * (y + 1.0) ** 2)
    x = np.zeros_like(t)
    for _ in range(20):  # enough for the node nearest the peak
        x -= (J1_SERIES(x) - t) / J1_SERIES.deriv()(x)
    return x


def j1_inverse_fit() -> np.ndarray:
    """Power-basis coefficients of the degree-24 Chebyshev interpolant of the
    J1 depth in y = 2 sqrt(1 - t / J1_PEAK) - 1, each node solved by Newton
    on the series."""
    return np.polynomial.chebyshev.cheb2poly(
        np.polynomial.chebyshev.chebinterpolate(_newton_depth, 24))


def lockin_bin_means(idx: ModeIndex, epsilon: float, alpha: float, budget,
                     noise):
    """(mean photon count of each 1/(20 f) time bin of the window, the
    reference cos(2 pi f t) at each bin's centre)."""
    dt = 1.0 / (SAMPLES_PER_CYCLE * noise.drive_frequency)
    cycles = math.floor(noise.drive_frequency * budget.integration)
    t = (np.arange(SAMPLES_PER_CYCLE * cycles) + 0.5) * dt
    ref = np.cos(2.0 * math.pi * noise.drive_frequency * t)
    geometry = (budget.power / budget.photon_energy * oam_variance(idx)
                * check_epsilon(epsilon))
    rates = geometry * (noise.dither_rad ** 2 + alpha ** 2
                        + 2.0 * alpha * noise.dither_rad * ref)
    return rates * dt, ref


def montecarlo_lockin_per_bin(idx: ModeIndex, epsilon: float, alpha: float,
                              budget, noise, seed: int,
                              trials: int) -> np.ndarray:
    """Per-trial SNR samples with a Poisson count and, with electrical
    noise, a normal of std electrical_v sqrt(n) drawn for each of the n time
    bins; trial k draws from default_rng([seed, k])."""
    expected, ref = lockin_bin_means(idx, epsilon, alpha, budget, noise)
    n_dem = ref.size
    dt = 1.0 / (SAMPLES_PER_CYCLE * noise.drive_frequency)
    t_dem = n_dem * dt
    volts_per_count = budget.volts_per_rate / dt
    samples = np.empty(trials)
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        counts = rng.poisson(expected)
        v = volts_per_count * counts
        if noise.electrical_v > 0.0:
            v = v + rng.normal(0.0, noise.electrical_v * math.sqrt(n_dem),
                               n_dem)
        v_demod = (2.0 / n_dem) * float(np.sum(v * ref))
        rate_hat = float(counts.sum()) / t_dem
        shot_hat = budget.volts_per_rate * math.sqrt(rate_hat / t_dem)
        level = math.hypot(shot_hat, noise.electrical_v)
        samples[k] = v_demod / level if level > 0.0 else 0.0
    return samples
