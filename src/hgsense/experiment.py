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
import os
import threading
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
)
from .modes import ModeIndex, oam_variance
from .output import format_rows, write_atomic
from .weak import check_weak_regime

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
# Largest trial count of one Monte Carlo run (a trial takes about 0.2 ms at
# the defaults), and largest count of time bins over all its trials.
MAX_TRIALS = 10 ** 5
MAX_RUN_BINS = MAX_TRIALS * 2200
# A Monte Carlo run splits its trials over at most MAX_WORKERS processes,
# one per usable CPU, with no fewer than MIN_BLOCK_TRIALS trials each. On 2
# CPUs a fork cost about 4 ms in a warm process: two blocks of 12 trials or
# fewer ran slower than one process, of 25 even, of 50 or more faster. In
# a fresh process each side of a fork spent about 10 ms more CPU on page
# faults, hence the margin. The CPU count is the affinity mask, which does
# not see a CPU quota; no run had more than 2 CPUs, so the cap of 8 is a
# limit, not a measured optimum.
MAX_WORKERS = 8
MIN_BLOCK_TRIALS = 100

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
# nothing about a window that detects less than one photon. A count given
# per window (the CLI's --photons) reaches the budget as a power and comes
# back through four roundings of half an ulp each, so a shortfall of up to
# 2 ulp of MIN_PHOTONS is that rounding and passes.
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
            warnings.warn(
                f"power {self.power:.3g} W exceeds detector saturation "
                f"{DETECTOR_SATURATION_W:.3g} W",
                SaturationWarning, stacklevel=3)

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
        return volts * self.rotation_per_volt

    def volts(self, rotation: float) -> float:
        return rotation / self.rotation_per_volt


@dataclass(frozen=True)
class NoiseModel:
    dither_rad: float = DEFAULT_DITHER_RAD
    drive_frequency: float = DEFAULT_DRIVE_HZ
    electrical_v: float = DEFAULT_ELECTRICAL_V

    def __post_init__(self):
        finite_positive("dither", self.dither_rad)
        finite_positive("drive frequency", self.drive_frequency)
        finite_in("electrical noise", self.electrical_v, 0.0, math.inf,
                  ends="[)")


def check_epsilon(epsilon: float, name: str = "post-selection angle") -> float:
    """cot(epsilon)^2, or ConfigError naming name unless epsilon lies in
    (0, pi/2) with a finite cot^2 (an angle under ~1e-154 rad has none)."""
    finite_in(name, epsilon, 0.0, math.pi / 2, ends="()")
    tan2 = math.tan(epsilon) ** 2
    return finite(f"cot^2 of the {name} {epsilon}:",
                  1.0 / tan2 if tan2 else math.inf)


def _check_mode(idx: ModeIndex) -> float:
    return finite_positive(f"OAM variance of mode ({idx.m}, {idx.n})",
                           oam_variance(idx), NoSensitivityError)


def _check_expansion(alpha: float, dither_rad: float):
    finite_in("dither depth", dither_rad, 0.0, 0.1, ExpansionInvalidError,
              "()")
    finite("rotation", alpha, ExpansionInvalidError)
    if abs(alpha) > 0.1 * dither_rad:
        raise ExpansionInvalidError(
            f"rotation {alpha} not small against the dither {dither_rad}: "
            "|rotation| must be at most 0.1 dither")


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

    Each trial draws photon counts in 1/(20 f) time bins from the dark-port
    rate model, demodulates the in-phase quadrature over a whole number of
    drive cycles, and normalizes by the shot level inferred from that trial's
    own mean count rate (plus the electrical floor in quadrature). The
    demodulated quadrature carries sqrt(2) more Poisson noise than the
    window mean, so per-trial SNR values scatter accordingly.

    Trial k draws only from default_rng([seed, k]), so on Linux the trials
    run in contiguous blocks, one per usable CPU (at most MAX_WORKERS, each
    of at least MIN_BLOCK_TRIALS trials; see _run_blocks), and the result is
    bitwise the one-process run. Elsewhere, with one usable CPU, or while
    other Python threads run, every trial runs in the calling process.
    Usable CPUs are the affinity mask: under a CPU quota the blocks share
    the CPUs the quota gives.
    """
    # 10 trials for a meaningful average
    finite_in("trials", integer("trials", trials), 10, MAX_TRIALS)
    finite_in("seed", integer("seed", seed), 0, math.inf, ends="[)")
    cot2 = check_epsilon(epsilon)
    k_var = _check_mode(idx)
    finite_in("rotation", alpha, -noise.dither_rad, noise.dither_rad,
              ExpansionInvalidError, "()")
    finite_in("samples per trial", SAMPLES_PER_CYCLE * noise.drive_frequency
              * budget.integration, 0, MAX_SAMPLES_PER_TRIAL)

    dt = 1.0 / (SAMPLES_PER_CYCLE * noise.drive_frequency)
    cycles = finite_in("whole drive cycles a window", math.floor(
        noise.drive_frequency * budget.integration), 1, math.inf, ends="[)")
    n_dem = SAMPLES_PER_CYCLE * cycles
    finite_in("time bins a run", trials * n_dem, 0, MAX_RUN_BINS)
    t_dem = n_dem * dt

    t = (np.arange(n_dem) + 0.5) * dt
    ref = np.cos(2.0 * math.pi * noise.drive_frequency * t)
    rate_in = budget.power / budget.photon_energy
    geometry = rate_in * k_var * cot2
    rates = geometry * (noise.dither_rad ** 2 + alpha ** 2
                        + 2.0 * alpha * noise.dither_rad * ref)
    expected = rates * dt
    volts_per_count = budget.volts_per_rate / dt

    def fill(block: np.ndarray, start: int):
        """The samples of trials start, start + 1, ... into block."""
        for j in range(block.size):
            rng = np.random.default_rng([seed, start + j])
            counts = rng.poisson(expected)
            v = volts_per_count * counts
            if noise.electrical_v > 0.0:
                v = v + rng.normal(0.0, noise.electrical_v * math.sqrt(n_dem),
                                   n_dem)
            v_demod = (2.0 / n_dem) * float(np.sum(v * ref))
            rate_hat = float(counts.sum()) / t_dem
            shot_hat = budget.volts_per_rate * math.sqrt(rate_hat / t_dem)
            level = math.hypot(shot_hat, noise.electrical_v)
            block[j] = v_demod / level if level > 0.0 else 0.0

    samples = np.empty(trials)
    _run_blocks(fill, samples)
    return LockinResult(float(samples.mean()), float(samples.std(ddof=1)),
                        frozen(samples), seed)


def _worker_count(trials: int) -> int:
    # another Python thread may hold a lock that a forked child would
    # inherit held, so a run beside one stays in this process
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), MAX_WORKERS,
                      trials // MIN_BLOCK_TRIALS))


def _run_blocks(fill, samples: np.ndarray):
    """fill(samples[lo:hi], lo) over contiguous blocks of samples, block 0
    in this process and each other block in a forked child that sends its
    float64 bytes back through a pipe. A child that fails sends no data, and
    a block whose child sends short data is filled here again, so its errors
    and warnings surface as in one process. Children still running when
    this raises are killed."""
    workers = _worker_count(samples.size)
    edges = [samples.size * w // workers for w in range(workers + 1)]
    blocks = [(samples[lo:hi], lo) for lo, hi in zip(edges, edges[1:])]
    children = {}  # block number -> (pid, reader of its pipe)
    try:
        for w in range(1, workers):
            try:
                children[w] = _fork_block(fill, *blocks[w])
            except OSError:  # no pipe or no fork: the block runs here
                pass
        fill(*blocks[0])
        for w in range(1, workers):
            block, start = blocks[w]
            data = b""
            if w in children:
                pid, reader = children[w]
                data = reader.read()  # to EOF before waitpid: a block can
                reader.close()        # outgrow the pipe buffer
                os.waitpid(pid, 0)
                del children[w]
            if len(data) == block.nbytes:
                block[:] = np.frombuffer(data)
            else:
                fill(block, start)
    finally:
        if children:
            import signal  # only here: its import would cost every run
            for pid, reader in children.values():
                reader.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _fork_block(fill, block: np.ndarray, start: int):
    """Fork a child that fills block with warnings as errors, writes its
    bytes to a pipe and leaves by os._exit, so it never flushes this
    process's buffers or runs its atexit hooks; (pid, reader of the pipe)."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork while other OS threads run. numpy's
            # BLAS pool is such threads, and a child makes no BLAS call.
            warnings.filterwarnings(
                "ignore", "This process .* is multi-threaded",
                DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fill(block, start)
            data = memoryview(block.tobytes())
            while data:
                data = data[os.write(write_fd, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


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
    weak.check_weak_regime refuses alpha_min cot eps (A_w = cot eps),
    ExpansionInvalidError unless alpha_min <= 0.1 DEFAULT_DITHER_RAD
    (_check_expansion's rule, which montecarlo keeps)."""
    cot = math.sqrt(check_epsilon(epsilon))  # A_w of post_selected_pair
    rows = []
    for (m, n), ref_v in REFERENCE_DRIVE_SNR1_V.items():
        alpha_min = min_detectable_rotation(ModeIndex(m, n), epsilon,
                                            budget.photons)
        try:
            check_weak_regime(alpha_min * cot)
            _check_expansion(alpha_min, DEFAULT_DITHER_RAD)
        except (WeakRegimeError, ExpansionInvalidError) as exc:
            raise type(exc)(f"mode ({m}, {n}) minimum detectable rotation "
                            f"{alpha_min!r} rad: {exc}") from None
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
