"""Shot-noise-limited lock-in model of the rotation-sensing measurement.

The detected beam is the post-selected dark port. With a dither of depth
``alpha0`` at the drive frequency and a small static rotation ``alpha``, the
detected photon rate is

    rate(t) = rate_in * K * cot(eps)^2
              * (alpha0^2 + alpha^2 + 2 alpha alpha0 cos(w t))

with K = 2mn + m + n the angular-momentum variance of the pointer mode.
The rate is first order in the rotation: against the exact post-selected
carrier probability P_c (weak.final_pointer_exact's success probability
times |<c|psi~>|^2 on weak.carrier_state c), the law

    1 - P_c / (cos(eps)^2 K alpha^2) = alpha^2 <Lz^4> / (3 <Lz^2>),
    <Lz^4> = (3 K^2 - 4 K + 3 (m - n)^2) / 2    (modes.oam_fourth_moment),

independent of eps: to 0.22% of the deficit itself for orders up to
(10, 10), eps from 1 to 20 deg and alpha up to 6.93e-3. Each lock-in input
has one guard, called by every function that takes it, so the analytic
model, the Monte Carlo and the CLI refuse alike: a dither depth outside
(0, MAX_DITHER_RAD) or whose deficit exceeds DITHER_DEFICIT_LIMIT, a
|rotation| above MAX_ROTATION_PER_DITHER of the dither, a negative
electrical floor. Demodulating the photocurrent at the drive frequency
yields a signal linear in ``alpha``; the noise floor is the Poisson
fluctuation of the window-averaged rate plus any electrical noise, which
montecarlo_lockin samples. Conventions:

* the quoted shot level is the standard deviation of the window-mean voltage
  estimator (the DC bin), not of the demodulated quadrature, which carries
  an extra sqrt(2);
* quoted SNR divides the demodulated signal by that window-mean noise level,
  so the analytic SNR at the minimum detectable rotation is exactly 1.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ExpansionInvalidError,
    NoSensitivityError,
    SaturationWarning,
    WeakRegimeError,
    finite,
    finite_in,
    finite_positive,
    frozen,
    integer,
    naming,
)
from .modes import ModeIndex, oam_fourth_moment, oam_variance
from .output import format_rows, write_atomic
from .weak import check_epsilon, check_weak_regime

PLANCK = 6.62607015e-34
LIGHT_SPEED = 299792458.0

DETECTOR_GAIN_V_PER_W = 2.65e9
DETECTOR_SATURATION_W = 1.54e-9

DEFAULT_POWER_W = 94.34e-12
DEFAULT_INTEGRATION_S = 0.10908
DEFAULT_WAVELENGTH_M = 780e-9
DEFAULT_ROTATION_PER_VOLT = 4.4e-6
DEFAULT_DRIVE_HZ = 1000.0
DEFAULT_DITHER_RAD = 6.3e-3
DEFAULT_ELECTRICAL_V = 35.75e-6
# Largest carrier-rate deficit alpha0^2 <Lz^4> / (3 <Lz^2>) a dither may
# give (see the module docstring). At DEFAULT_DITHER_RAD, 1% refuses no
# order with m + n <= 30, HG(15, 16) and HG(14, 17) first, and every
# diagonal order from HG(16, 16).
DITHER_DEFICIT_LIMIT = 0.01
# alpha << alpha0 << 1: _check_dither's depth below MAX_DITHER_RAD, and
# _check_expansion's |rotation| at most MAX_ROTATION_PER_DITHER of it.
MAX_DITHER_RAD = 0.1
MAX_ROTATION_PER_DITHER = 0.1

SAMPLES_PER_CYCLE = 20
# Largest count of 1/(20 f) time bins one Monte Carlo trial's window may
# span; the defaults need 2180. A trial draws one count per mirrored pair of
# drive phases, so its memory and time do not grow with the bins: this
# bound, and MAX_RUN_BINS over all trials of a run, set which windows the
# model accepts (a drive frequency of 1e9 Hz is refused, not simulated).
MAX_SAMPLES_PER_TRIAL = 10 ** 6
# Fewest and most trials of one Monte Carlo run (ten for a meaningful
# average), and most time bins over all its trials. A run holds its
# (trials, 10) counts and their float64 products with the reference at
# once, about 170 bytes a trial, so MAX_TRIALS peaks near 17 MB.
MIN_TRIALS = 10
MAX_TRIALS = 10 ** 5
MAX_RUN_BINS = MAX_TRIALS * 2200
# Most photons a window may expect: past 2**53 a count's sum against the
# reference loses integer precision in float64, and near 2**63 the sum of
# the counts overflows int64.
MAX_WINDOW_COUNTS = 2 ** 53

# Measured benchmarks for diagonal modes: drive voltage giving unit SNR and
# the shot-noise floor at the lock-in output. Model predictions track these
# within the scatter of the source data, not exactly.
REFERENCE_DRIVE_SNR1_V = {(1, 1): 0.801, (3, 3): 0.321, (5, 5): 0.203}
REFERENCE_SHOT_LEVEL_V = {
    (1, 1): 5.68e-6,
    (2, 2): 8.68e-6,
    (3, 3): 13.64e-6,
    (4, 4): 18.33e-6,
    (5, 5): 21.52e-6,
    (6, 6): 25.95e-6,
}


# Fewest detected photons per integration window a budget may give: the
# lock-in model's noise is the Poisson spread of a photon count, which says
# nothing about a window that detects less than one photon. A count that
# from_photons turns into a power comes back through four roundings of half
# an ulp each, so a shortfall of up to 2 ulp of MIN_PHOTONS passes.
MIN_PHOTONS = 1.0


@dataclass(frozen=True)
class PhotonBudget:
    """Detected optical power, integration window and wavelength; the photon
    energy they give must be finite and positive, and the photons per window
    finite and at least MIN_PHOTONS, less 2 ulp of round-trip rounding."""

    power: float = DEFAULT_POWER_W
    integration: float = DEFAULT_INTEGRATION_S
    wavelength: float = DEFAULT_WAVELENGTH_M

    def __post_init__(self):
        for name in ("power", "integration", "wavelength", "photon_energy",
                     "photons"):  # in this order: each derives from those before
            finite_positive(name, getattr(self, name))
        if self.photons < MIN_PHOTONS - 2.0 * math.ulp(MIN_PHOTONS):
            finite_in("detected photons per window", self.photons, MIN_PHOTONS,
                      math.inf, ends="[)")
        if self.power > DETECTOR_SATURATION_W:
            warnings.warn(  # at the caller of __init__, or of from_photons
                f"power {self.power:.3g} W exceeds detector saturation "
                f"{DETECTOR_SATURATION_W:.3g} W", SaturationWarning,
                stacklevel=3 + (sys._getframe(2).f_globals is globals()))

    @classmethod
    def from_photons(cls, photons: float,
                     integration: float = DEFAULT_INTEGRATION_S,
                     wavelength: float = DEFAULT_WAVELENGTH_M) -> PhotonBudget:
        """The budget at the power that detects photons a window."""
        power = finite_positive("photons", photons) * finite_positive(
            "photon_energy", PLANCK * LIGHT_SPEED
            / finite_positive("wavelength", wavelength))
        return cls(power / finite_positive("integration", integration),
                   integration, wavelength)

    @property
    def photon_energy(self) -> float:
        return PLANCK * LIGHT_SPEED / self.wavelength

    @property
    def photons(self) -> float:
        """Detected photons per integration window."""
        return self.power * self.integration / self.photon_energy

    @property
    def volts_per_rate(self) -> float:
        """Lock-in volts per unit detected photon rate."""
        return DETECTOR_GAIN_V_PER_W * self.photon_energy


@dataclass(frozen=True)
class DriveCalibration:
    """Piezo drive calibration, radians of beam rotation per volt applied."""

    rotation_per_volt: float = DEFAULT_ROTATION_PER_VOLT

    def __post_init__(self):
        finite_positive("rotation per volt", self.rotation_per_volt)

    def rotation(self, volts: float) -> float:
        return finite(f"rotation at {volts} V:",
                      finite("volts", volts) * self.rotation_per_volt)

    def volts(self, rotation: float) -> float:
        return finite(f"drive for {rotation} rad:",
                      finite("rotation", rotation) / self.rotation_per_volt)


@dataclass(frozen=True)
class NoiseModel:
    dither_rad: float = DEFAULT_DITHER_RAD
    drive_frequency: float = DEFAULT_DRIVE_HZ
    electrical_v: float = DEFAULT_ELECTRICAL_V

    def __post_init__(self):
        finite_positive("dither", self.dither_rad)
        finite_positive("drive frequency", self.drive_frequency)
        _check_electrical(self.electrical_v)


def _check_electrical(volts: float) -> float:
    return finite_in("electrical noise", volts, 0.0, math.inf, ends="[)")


def _check_mode(idx: ModeIndex) -> float:
    return finite_positive(f"OAM variance of mode ({idx.m}, {idx.n})",
                           oam_variance(idx), NoSensitivityError)


def _check_expansion(alpha: float, dither_rad: float):
    finite("rotation", alpha, ExpansionInvalidError)
    if abs(alpha) > MAX_ROTATION_PER_DITHER * dither_rad:
        raise ExpansionInvalidError(
            f"rotation {alpha} not small against the dither {dither_rad}: "
            f"|rotation| must be at most {MAX_ROTATION_PER_DITHER} dither")


def _check_dither(idx: ModeIndex, dither_rad: float):
    """The depth rule, then the deficit rule (see the module docstring)."""
    finite_in("dither depth", dither_rad, 0.0, MAX_DITHER_RAD,
              ExpansionInvalidError, "()")
    finite_in(f"rate deficit alpha0^2 <Lz^4> / (3 <Lz^2>) of mode "
              f"({idx.m}, {idx.n}) at the dither {dither_rad} rad:",
              dither_rad ** 2 * oam_fourth_moment(idx)
              / (3.0 * oam_variance(idx)), 0.0, DITHER_DEFICIT_LIMIT,
              ExpansionInvalidError)


def demod_signal(idx: ModeIndex, epsilon: float, alpha: float,
                 budget: PhotonBudget = PhotonBudget(),
                 dither_rad: float = DEFAULT_DITHER_RAD) -> float:
    """Mean demodulated lock-in voltage for a static rotation alpha."""
    check_epsilon(epsilon)
    k_var = _check_mode(idx)
    _check_dither(idx, dither_rad)
    _check_expansion(alpha, dither_rad)
    cot = 1.0 / math.tan(epsilon)
    dc_volts = DETECTOR_GAIN_V_PER_W * budget.power
    return 2.0 * k_var * cot ** 2 * dither_rad * alpha * dc_volts


def shot_noise_level(idx: ModeIndex, epsilon: float,
                     budget: PhotonBudget = PhotonBudget(),
                     dither_rad: float = DEFAULT_DITHER_RAD) -> float:
    """Poisson noise of the window-mean voltage at the dark port, in volts."""
    check_epsilon(epsilon)
    k_var = _check_mode(idx)
    _check_dither(idx, dither_rad)
    cot = abs(1.0 / math.tan(epsilon))
    return (budget.volts_per_rate * math.sqrt(k_var) * cot * dither_rad
            * math.sqrt(budget.photons) / budget.integration)


def snr(idx: ModeIndex, epsilon: float, alpha: float,
        budget: PhotonBudget = PhotonBudget(),
        dither_rad: float = DEFAULT_DITHER_RAD,
        electrical_v: float = 0.0) -> float:
    """Analytic signal-to-noise ratio of the lock-in measurement.

    Against shot noise alone this reduces to
    2 sqrt(K) |cot(eps)| sqrt(N) alpha, independent of the dither depth.
    """
    signal = demod_signal(idx, epsilon, alpha, budget, dither_rad)
    shot = shot_noise_level(idx, epsilon, budget, dither_rad)
    return signal / math.hypot(shot, _check_electrical(electrical_v))


def min_detectable_rotation(idx: ModeIndex, epsilon: float, n_photons: float) -> float:
    """Unit-SNR rotation 1 / (sqrt(2mn+m+n) * 2 |cot eps| * sqrt(N)), where
    snr reads 1 on shot noise alone; the mode and eps meet snr's rules."""
    k_var = _check_mode(idx)
    finite_positive("photon number", n_photons)
    check_epsilon(epsilon)
    cot = abs(math.cos(epsilon) / math.sin(epsilon))
    return 1.0 / (math.sqrt(k_var) * 2.0 * cot * math.sqrt(n_photons))


class LockinResult(NamedTuple):
    mean_snr: float
    std_snr: float
    samples: np.ndarray
    seed: int


def montecarlo_lockin(idx: ModeIndex, epsilon: float, alpha: float,
                      budget: PhotonBudget = PhotonBudget(),
                      noise: NoiseModel = NoiseModel(),
                      seed: int = 0, trials: int = 400) -> LockinResult:
    """Simulate repeated lock-in acquisitions with Poisson photon counting.

    Each trial demodulates the in-phase quadrature of Poisson photon counts
    in 1/(20 f) time bins over a whole number of drive cycles, and
    normalizes by the shot level inferred from that trial's own mean count
    rate (plus the electrical floor in quadrature). The demodulated
    quadrature carries sqrt(2) more Poisson noise than the window mean, so
    per-trial SNR values scatter accordingly. The bins of one drive phase
    share a rate and the reference, and so do phases k and 19 - k, so a
    trial draws one count per mirrored pair of drive phases over the whole
    window and, with electrical noise, one normal for that noise's sum
    against the reference: the same distribution of samples as a draw per
    bin. A window expecting more than MAX_WINDOW_COUNTS photons is refused.

    The run draws every trial at once in this process, from two streams
    that SeedSequence(seed) spawns: the counts, a (trials, 10) draw, from
    the first and, with electrical noise, trials normals from the second.
    Both fill in trial order, so trial k's sample depends only on seed and
    k: a shorter run is a prefix of a longer one.
    """
    finite_in("trials", integer("trials", trials), MIN_TRIALS, MAX_TRIALS)
    finite_in("seed", integer("seed", seed), 0, math.inf, ends="[)")
    cot2 = check_epsilon(epsilon)
    k_var = _check_mode(idx)
    _check_dither(idx, noise.dither_rad)
    _check_expansion(alpha, noise.dither_rad)
    finite_in("samples per trial", SAMPLES_PER_CYCLE * noise.drive_frequency
              * budget.integration, 0, MAX_SAMPLES_PER_TRIAL)

    dt = 1.0 / (SAMPLES_PER_CYCLE * noise.drive_frequency)
    cycles = finite_in("whole drive cycles a window", math.floor(
        noise.drive_frequency * budget.integration), 1, math.inf, ends="[)")
    n_dem = SAMPLES_PER_CYCLE * cycles
    finite_in("time bins a run", trials * n_dem, 0, MAX_RUN_BINS)
    t_dem = n_dem * dt

    # every bin of one drive phase has the same rate, and a trial reads its
    # counts only through sum(counts * ref) and sum(counts): by Poisson
    # additivity one count of twice the mean over the whole window holds
    # both phases k and 19 - k, which share the reference ref[k]
    t = (np.arange(SAMPLES_PER_CYCLE) + 0.5) * dt
    ref = np.cos(2.0 * math.pi * noise.drive_frequency * t)
    geometry = budget.power / budget.photon_energy * k_var * cot2
    rates = geometry * (noise.dither_rad ** 2 + alpha ** 2
                        + 2.0 * alpha * noise.dither_rad * ref)
    expected = rates * (dt * cycles)
    finite_in("expected photons a window", float(expected.sum()), 0,
              MAX_WINDOW_COUNTS)
    volts_per_count = budget.volts_per_rate / dt
    # the electrical noise of each bin, std electrical_v sqrt(n_dem), enters
    # only through its sum against ref over the window's n_dem bins
    electrical_std = (noise.electrical_v * math.sqrt(n_dem)
                      * math.sqrt(cycles * float(ref @ ref)))

    counts_rng, noise_rng = (np.random.default_rng(child) for child
                             in np.random.SeedSequence(seed).spawn(2))
    pairs = SAMPLES_PER_CYCLE // 2
    counts = counts_rng.poisson(2.0 * expected[:pairs], (trials, pairs))
    # a row sum, not counts @ ref: BLAS orders a row's sum by the row count
    # and its threads, so a shorter run would not be a prefix of a longer one
    v_ref = volts_per_count * (counts * ref[:pairs]).sum(axis=1)
    if noise.electrical_v > 0.0:
        v_ref += noise_rng.normal(0.0, electrical_std, trials)
    v_demod = (2.0 / n_dem) * v_ref
    rate_hat = counts.sum(axis=1) / t_dem
    shot_hat = budget.volts_per_rate * np.sqrt(rate_hat / t_dem)
    level = np.hypot(shot_hat, noise.electrical_v)
    samples = np.divide(v_demod, level, out=np.zeros(trials),
                        where=level > 0.0)
    return LockinResult(float(samples.mean()), float(samples.std(ddof=1)),
                        frozen(samples), seed)


class ModeSensitivity(NamedTuple):
    m: int
    n: int
    alpha_min_rad: float
    drive_v_model: float
    drive_v_reference: float
    alpha_min_reference_rad: float


def sensitivity_table(epsilon: float,
                      budget: PhotonBudget = PhotonBudget(),
                      cal: DriveCalibration = DriveCalibration(),
                      ) -> list[ModeSensitivity]:
    """Minimum detectable rotation per benchmarked mode
    (REFERENCE_DRIVE_SNR1_V), with the measured drive and rotation. A row
    outside the first-order formula is refused: WeakRegimeError where
    weak.check_weak_regime refuses x = alpha_min cot eps sqrt(2mn+m+n)
    (A_w = cot eps), which is 1 / (2 sqrt N) for every mode and eps, so a
    budget of N <= 25 detected photons is refused (at N = 25, x rounds to
    either side of WEAK_LIMIT); ExpansionInvalidError unless alpha_min <=
    MAX_ROTATION_PER_DITHER * DEFAULT_DITHER_RAD (_check_expansion)."""
    cot = math.sqrt(check_epsilon(epsilon))  # A_w of post_selected_pair
    rows = []
    for (m, n), ref_v in REFERENCE_DRIVE_SNR1_V.items():
        idx = ModeIndex(m, n)
        alpha_min = min_detectable_rotation(idx, epsilon, budget.photons)
        with naming(f"mode ({m}, {n}) minimum detectable rotation "
                    f"{alpha_min!r} rad", WeakRegimeError,
                    ExpansionInvalidError):
            check_weak_regime(alpha_min * cot, math.sqrt(oam_variance(idx)))
            _check_expansion(alpha_min, DEFAULT_DITHER_RAD)
        rows.append(ModeSensitivity(
            m, n, alpha_min, cal.volts(alpha_min), ref_v, cal.rotation(ref_v)))
    return rows


def table_csv(rows: Sequence[ModeSensitivity]) -> str:
    """The sensitivity table as CSV text, cells by output.format_rows."""
    lines = [",".join(ModeSensitivity._fields), *format_rows(rows, ",")]
    return "\n".join(lines) + "\n"


def table_json(rows: Sequence[ModeSensitivity]) -> str:
    """The sensitivity table as an indented JSON list of row objects."""
    return json.dumps([row._asdict() for row in rows], indent=2) + "\n"


def write_run_config(path, settings: dict):
    """Flat key = value dump of run settings, SI units throughout."""
    lines = []
    for key in sorted(settings):
        value = settings[key]
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {rendered}")
    write_atomic(path, "\n".join(lines) + "\n")
