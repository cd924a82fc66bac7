"""Detection-model checks: photon budget, lock-in analytics, Monte Carlo.

The analytic SNR is checked against its own defining ratio and against the
Poisson-sampling simulation with frozen seeds; the frozen expectations were
verified against larger-trial runs so the asserted margins hold with room to
spare.
"""

import json
import math

import numpy as np
import pytest

from hgsense import experiment
from hgsense.cli import main
from hgsense.errors import (
    ConfigError,
    ExpansionInvalidError,
    NoSensitivityError,
    SaturationWarning,
)
from hgsense.experiment import (
    REFERENCE_SHOT_LEVEL_V,
    DriveCalibration,
    ModeSensitivity,
    NoiseModel,
    PhotonBudget,
    demod_signal,
    montecarlo_lockin,
    sensitivity_table,
    shot_noise_level,
    snr,
    write_run_config,
    write_table_csv,
    write_table_json,
)
from hgsense.fisher import min_detectable_rotation
from hgsense.modes import ModeIndex

EPSILON = math.radians(5.0)
MODE = ModeIndex(1, 1)


def test_photon_budget_count():
    budget = PhotonBudget()
    assert budget.photons == pytest.approx(40407210.632563554, rel=1e-12)
    assert budget.photons == pytest.approx(4.04e7, rel=5e-3)


def test_budget_guards_and_saturation():
    with pytest.raises(ConfigError):
        PhotonBudget(power=0.0)
    with pytest.raises(ConfigError):
        PhotonBudget(integration=-1.0)
    with pytest.raises(ConfigError):
        PhotonBudget(wavelength=0.0)
    with pytest.warns(SaturationWarning):
        PhotonBudget(power=2e-9)


def test_noise_and_calibration_guards():
    with pytest.raises(ConfigError):
        NoiseModel(dither_rad=0.0)
    with pytest.raises(ConfigError):
        NoiseModel(drive_frequency=-1.0)
    with pytest.raises(ConfigError):
        NoiseModel(electrical_v=-1e-6)
    with pytest.raises(ConfigError):
        DriveCalibration(0.0)
    cal = DriveCalibration(4.4e-6)
    assert cal.volts(cal.rotation(0.7)) == pytest.approx(0.7, rel=1e-15)
    assert cal.rotation(0.5) == pytest.approx(2.2e-6, rel=1e-12)


def test_snr_closed_form():
    budget = PhotonBudget()
    alpha = 1e-7
    cot = 1.0 / math.tan(EPSILON)
    expected = 2.0 * 2.0 * cot * math.sqrt(budget.photons) * alpha  # sqrt(K)=2
    assert snr(MODE, EPSILON, alpha) == pytest.approx(expected, rel=1e-12)
    # the dither depth cancels between signal and shot level
    assert snr(MODE, EPSILON, alpha, dither_rad=3e-3) == pytest.approx(
        expected, rel=1e-12)


def test_snr_is_one_at_minimum_rotation():
    budget = PhotonBudget()
    for m, n in ((1, 1), (3, 3), (5, 5)):
        idx = ModeIndex(m, n)
        alpha_min = min_detectable_rotation(idx, EPSILON, budget.photons)
        assert snr(idx, EPSILON, alpha_min) == pytest.approx(1.0, rel=1e-12)


def test_snr_scaling_with_power_and_time():
    alpha = 1e-7
    base = snr(MODE, EPSILON, alpha)
    power4 = PhotonBudget(power=PhotonBudget().power * 4)
    assert snr(MODE, EPSILON, alpha, power4) == pytest.approx(2 * base,
                                                              rel=1e-12)
    time4 = PhotonBudget(integration=PhotonBudget().integration * 4)
    assert snr(MODE, EPSILON, alpha, time4) == pytest.approx(2 * base,
                                                             rel=1e-12)


def test_shot_level_tracks_measured_benchmarks():
    # model / measured reads 0.977-1.130 (HG(2,2) high); K grows 21x from
    # (1,1) to (6,6), so a K or K^0 law instead of sqrt(K) leaves the band
    for (m, n), reference in REFERENCE_SHOT_LEVEL_V.items():
        level = shot_noise_level(ModeIndex(m, n), EPSILON, PhotonBudget(),
                                 experiment.DEFAULT_DITHER_RAD)
        assert 0.85 < level / reference < 1.15, (m, n, level / reference)


def test_demod_guards():
    with pytest.raises(ConfigError):
        demod_signal(MODE, 0.0, 1e-7)
    with pytest.raises(ConfigError):
        demod_signal(MODE, math.pi / 2, 1e-7)
    with pytest.raises(NoSensitivityError):
        demod_signal(ModeIndex(0, 0), EPSILON, 1e-7)
    with pytest.raises(ExpansionInvalidError):
        demod_signal(MODE, EPSILON, 1e-7, dither_rad=0.1)
    with pytest.raises(ExpansionInvalidError):
        demod_signal(MODE, EPSILON, 1e-3)  # alpha not small vs dither


def test_montecarlo_deterministic_and_locked():
    budget = PhotonBudget()
    noise = NoiseModel(electrical_v=0.0)
    alpha = 5 * min_detectable_rotation(MODE, EPSILON, budget.photons)
    first = montecarlo_lockin(MODE, EPSILON, alpha, budget, noise,
                              seed=22, trials=400)
    again = montecarlo_lockin(MODE, EPSILON, alpha, budget, noise,
                              seed=22, trials=400)
    assert np.array_equal(first.samples, again.samples)
    assert first.seed == 22
    assert len(first.samples) == 400
    assert not first.samples.flags.writeable
    with pytest.raises(ValueError):
        first.samples[0] = 0.0


def test_montecarlo_tracks_analytic_snr():
    budget = PhotonBudget()
    noise = NoiseModel(electrical_v=0.0)
    alpha = 5 * min_detectable_rotation(MODE, EPSILON, budget.photons)
    res = montecarlo_lockin(MODE, EPSILON, alpha, budget, noise,
                            seed=22, trials=400)
    assert res.mean_snr == pytest.approx(snr(MODE, EPSILON, alpha), rel=0.05)
    # demodulated quadrature carries sqrt(2) of the window-mean shot noise
    assert 1.2 < res.std_snr < 1.7
    null = montecarlo_lockin(MODE, EPSILON, 0.0, budget, noise,
                             seed=22, trials=400)
    assert abs(null.mean_snr) < 0.2


def test_montecarlo_with_electrical_floor():
    budget = PhotonBudget()
    level = shot_noise_level(MODE, EPSILON)
    noise = NoiseModel(electrical_v=level)
    alpha = 5 * min_detectable_rotation(MODE, EPSILON, budget.photons)
    res = montecarlo_lockin(MODE, EPSILON, alpha, budget, noise,
                            seed=22, trials=400)
    expected = snr(MODE, EPSILON, alpha, electrical_v=level)
    assert expected == pytest.approx(snr(MODE, EPSILON, alpha) / math.sqrt(2),
                                     rel=1e-12)
    assert res.mean_snr == pytest.approx(expected, rel=0.05)


def test_montecarlo_guards():
    budget = PhotonBudget()
    noise = NoiseModel()
    with pytest.raises(ConfigError):
        montecarlo_lockin(MODE, EPSILON, 1e-6, budget, noise, trials=5)
    with pytest.raises(ExpansionInvalidError):
        montecarlo_lockin(MODE, EPSILON, noise.dither_rad, budget, noise)
    with pytest.raises(ConfigError):
        montecarlo_lockin(MODE, EPSILON, 1e-6,
                          PhotonBudget(integration=1e-4), noise)
    with pytest.raises(NoSensitivityError):
        montecarlo_lockin(ModeIndex(0, 0), EPSILON, 1e-6, budget, noise)


def test_montecarlo_rejects_nan_rotation_and_oversized_trials(monkeypatch):
    with pytest.raises(ExpansionInvalidError, match="finite"):
        montecarlo_lockin(MODE, EPSILON, math.nan, PhotonBudget(),
                          NoiseModel())

    def no_allocation(*args, **kwargs):
        raise AssertionError("sample arrays allocated before the size guard")

    # the guard must fire before the first per-trial array is built
    monkeypatch.setattr(experiment.np, "arange", no_allocation)
    with pytest.raises(ConfigError, match="samples per trial"):
        montecarlo_lockin(MODE, EPSILON, 1e-6, PhotonBudget(),
                          NoiseModel(drive_frequency=1e9))
    assert main(["montecarlo", "--mode", "1,1", "--f-drive", "1e9"]) == 2
    # every default fits well under the limit
    assert (experiment.SAMPLES_PER_CYCLE * experiment.DEFAULT_DRIVE_HZ
            * experiment.DEFAULT_INTEGRATION_S
            < experiment.MAX_SAMPLES_PER_TRIAL / 100)


def test_sensitivity_table_contents():
    rows = sensitivity_table(EPSILON)
    assert [(row.m, row.n) for row in rows] == [(1, 1), (3, 3), (5, 5)]
    budget = PhotonBudget()
    cal = DriveCalibration()
    for row in rows:
        idx = ModeIndex(row.m, row.n)
        assert row.alpha_min_rad == pytest.approx(
            min_detectable_rotation(idx, EPSILON, budget.photons), rel=1e-12)
        assert row.drive_v_model == pytest.approx(
            row.alpha_min_rad / cal.rotation_per_volt, rel=1e-12)
        assert row.alpha_min_reference_rad == pytest.approx(
            row.drive_v_reference * cal.rotation_per_volt, rel=1e-12)
        # model and measured drive voltages agree to a few percent
        assert abs(row.drive_v_model / row.drive_v_reference - 1.0) < 0.03


def test_table_serialization(tmp_path):
    rows = sensitivity_table(EPSILON)
    csv_path = tmp_path / "table.csv"
    write_table_csv(csv_path, rows)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(ModeSensitivity._fields)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert float(first[2]) == pytest.approx(rows[0].alpha_min_rad, rel=1e-11)

    json_path = tmp_path / "table.json"
    write_table_json(json_path, rows)
    payload = json.loads(json_path.read_text())
    assert payload[0]["m"] == 1
    assert payload[2]["drive_v_reference"] == pytest.approx(0.203)
    assert not list(tmp_path.glob("*.tmp"))


def test_run_config_format(tmp_path):
    path = tmp_path / "run.cfg"
    write_run_config(path, {"beta": 2.5, "alpha": 1, "mode": "1,1"})
    assert path.read_text() == "alpha = 1\nbeta = 2.5\nmode = 1,1\n"
