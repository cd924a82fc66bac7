"""Shot-noise-limited lock-in model of the rotation-sensing measurement.

The detected beam is the post-selected dark port. With a dither of depth
``alpha0`` at the drive frequency and a small static rotation ``alpha``, the
detected photon rate is

    rate(t) = rate_in * K * cot(eps)^2
              * (alpha0^2 + alpha^2 + 2 alpha alpha0 cos(w t))

with K the angular-momentum variance of the pointer mode. Demodulating the
photocurrent at the drive frequency yields a signal linear in ``alpha``; the
noise floor is the Poisson fluctuation of the window-averaged rate plus any
electrical noise. Conventions:

* the quoted shot level is the standard deviation of the window-mean voltage
  estimator (the DC bin), not of the demodulated quadrature, which carries
  an extra sqrt(2);
* quoted SNR divides the demodulated signal by that window-mean noise level,
  so the analytic SNR at the minimum detectable rotation is exactly 1.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ConfigError,
    ExpansionInvalidError,
    NoSensitivityError,
    SaturationWarning,
)
from .modes import ModeIndex, oam_variance
from .output import format_cell, write_atomic

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

SAMPLES_PER_CYCLE = 20
# Largest count of time bins one Monte Carlo trial may hold (about 8 MB per
# float64 array); the defaults need 2180.
MAX_SAMPLES_PER_TRIAL = 10 ** 6

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


@dataclass(frozen=True)
class PhotonBudget:
    """Detected optical power, integration window and wavelength."""

    power: float = DEFAULT_POWER_W
    integration: float = DEFAULT_INTEGRATION_S
    wavelength: float = DEFAULT_WAVELENGTH_M

    def __post_init__(self):
        if not all(0 < v < math.inf for v in
                   (self.power, self.integration, self.wavelength)):
            raise ConfigError("power, integration and wavelength must be finite and > 0")
        if self.power > DETECTOR_SATURATION_W:
            warnings.warn(
                f"power {self.power:.3g} W exceeds detector saturation "
                f"{DETECTOR_SATURATION_W:.3g} W",
                SaturationWarning, stacklevel=2)

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
        if not 0 < self.rotation_per_volt < math.inf:
            raise ConfigError("calibration must be finite and positive")

    def rotation(self, volts: float) -> float:
        return volts * self.rotation_per_volt

    def volts(self, rotation: float) -> float:
        return rotation / self.rotation_per_volt


@dataclass(frozen=True)
class NoiseModel:
    dither_rad: float = DEFAULT_DITHER_RAD
    drive_frequency: float = DEFAULT_DRIVE_HZ
    electrical_v: float = DEFAULT_ELECTRICAL_V

    def __post_init__(self):
        if not all(0 < v < math.inf
                   for v in (self.dither_rad, self.drive_frequency)):
            raise ConfigError("dither and drive frequency must be finite and > 0")
        if not 0 <= self.electrical_v < math.inf:
            raise ConfigError("electrical noise must be finite and >= 0")


def check_epsilon(epsilon: float):
    """Raise ConfigError unless the post-selection angle lies in (0, pi/2)."""
    if not 0.0 < epsilon < math.pi / 2:
        raise ConfigError("post-selection angle must lie in (0, pi/2)")


def _check_mode(idx: ModeIndex) -> float:
    k_var = oam_variance(idx)
    if k_var == 0:
        raise NoSensitivityError("fundamental mode carries no rotation signal")
    return float(k_var)


def _check_expansion(alpha: float, dither_rad: float):
    if dither_rad >= 0.1:
        raise ExpansionInvalidError(
            f"dither depth {dither_rad} outside the small-rotation regime")
    if abs(alpha) > 0.1 * dither_rad:
        raise ExpansionInvalidError(
            f"rotation {alpha} not small against the dither {dither_rad}")


def demod_signal(idx: ModeIndex, epsilon: float, alpha: float,
                 budget: PhotonBudget = PhotonBudget(),
                 dither_rad: float = DEFAULT_DITHER_RAD) -> float:
    """Mean demodulated lock-in voltage for a static rotation alpha."""
    check_epsilon(epsilon)
    k_var = _check_mode(idx)
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
    return signal / math.hypot(shot, electrical_v)


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

    Each trial draws photon counts in 1/(20 f) time bins from the dark-port
    rate model, demodulates the in-phase quadrature over a whole number of
    drive cycles, and normalizes by the shot level inferred from that trial's
    own mean count rate (plus the electrical floor in quadrature). The
    demodulated quadrature carries sqrt(2) more Poisson noise than the
    window mean, so per-trial SNR values scatter accordingly.
    """
    if trials < 10:
        raise ConfigError("need at least 10 trials for a meaningful average")
    check_epsilon(epsilon)
    k_var = _check_mode(idx)
    if not abs(alpha) < noise.dither_rad:  # NaN fails too
        raise ExpansionInvalidError(
            f"rotation {alpha} must be finite and below the dither "
            f"{noise.dither_rad}")
    if SAMPLES_PER_CYCLE * noise.drive_frequency * budget.integration \
            > MAX_SAMPLES_PER_TRIAL:
        raise ConfigError(
            f"drive frequency x integration window asks for more than "
            f"{MAX_SAMPLES_PER_TRIAL} samples per trial")

    dt = 1.0 / (SAMPLES_PER_CYCLE * noise.drive_frequency)
    cycles = math.floor(noise.drive_frequency * budget.integration)
    if cycles < 1:
        raise ConfigError("integration window shorter than one drive cycle")
    n_dem = SAMPLES_PER_CYCLE * cycles
    t_dem = n_dem * dt

    t = (np.arange(n_dem) + 0.5) * dt
    ref = np.cos(2.0 * math.pi * noise.drive_frequency * t)
    rate_in = budget.power / budget.photon_energy
    cot2 = 1.0 / math.tan(epsilon) ** 2
    geometry = rate_in * k_var * cot2
    rates = geometry * (noise.dither_rad ** 2 + alpha ** 2
                        + 2.0 * alpha * noise.dither_rad * ref)
    expected = rates * dt
    volts_per_count = budget.volts_per_rate / dt

    samples = np.empty(trials)
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        counts = rng.poisson(expected)
        v = volts_per_count * counts
        if noise.electrical_v > 0.0:
            v = v + rng.normal(0.0, noise.electrical_v * math.sqrt(n_dem), n_dem)
        v_demod = (2.0 / n_dem) * float(np.sum(v * ref))
        rate_hat = float(counts.sum()) / t_dem
        shot_hat = budget.volts_per_rate * math.sqrt(rate_hat / t_dem)
        level = math.hypot(shot_hat, noise.electrical_v)
        samples[k] = v_demod / level if level > 0.0 else 0.0
    samples.flags.writeable = False
    return LockinResult(float(samples.mean()), float(samples.std(ddof=1)),
                        samples, seed)


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
    (REFERENCE_DRIVE_SNR1_V), with the measured drive and rotation."""
    from .fisher import min_detectable_rotation

    check_epsilon(epsilon)
    rows = []
    for (m, n), ref_v in REFERENCE_DRIVE_SNR1_V.items():
        alpha_min = min_detectable_rotation(ModeIndex(m, n), epsilon,
                                            budget.photons)
        rows.append(ModeSensitivity(
            m, n, alpha_min, cal.volts(alpha_min), ref_v, cal.rotation(ref_v)))
    return rows


def table_csv(rows: Sequence[ModeSensitivity]) -> str:
    """The sensitivity table as CSV text, cells by output.format_cell."""
    lines = [",".join(ModeSensitivity._fields)]
    lines += [",".join(format_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def table_json(rows: Sequence[ModeSensitivity]) -> str:
    """The sensitivity table as an indented JSON list of row objects."""
    return json.dumps([row._asdict() for row in rows], indent=2) + "\n"


def write_table_csv(path, rows: Sequence[ModeSensitivity]):
    write_atomic(path, table_csv(rows))


def write_table_json(path, rows: Sequence[ModeSensitivity]):
    write_atomic(path, table_json(rows))


def write_run_config(path, settings: dict):
    """Flat key = value dump of run settings, SI units throughout."""
    lines = []
    for key in sorted(settings):
        value = settings[key]
        rendered = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{key} = {rendered}")
    write_atomic(path, "\n".join(lines) + "\n")
