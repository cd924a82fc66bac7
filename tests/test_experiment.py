"""Detection-model checks: photon budget, lock-in analytics, Monte Carlo.

The analytic SNR is checked against its own defining ratio and against the
Poisson-sampling simulation with frozen seeds; the frozen expectations were
verified against larger-trial runs so the asserted margins hold with room to
spare.
"""

import json
import math
import os
import threading
import warnings

import numpy as np
import pytest

from hgsense import experiment
from hgsense.cli import main
from hgsense.errors import (
    ConfigError,
    ExpansionInvalidError,
    NoSensitivityError,
    SaturationWarning,
    WeakRegimeError,
)
from hgsense.experiment import (
    DEFAULT_DITHER_RAD,
    LIGHT_SPEED,
    PLANCK,
    REFERENCE_SHOT_LEVEL_V,
    DriveCalibration,
    ModeSensitivity,
    NoiseModel,
    PhotonBudget,
    check_epsilon,
    demod_signal,
    min_detectable_rotation,
    montecarlo_lockin,
    sensitivity_table,
    shot_noise_level,
    snr,
    table_csv,
    table_json,
    write_run_config,
)
from hgsense.modes import ModeIndex
from hgsense.output import write_atomic

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
    # the derived values: h c / lambda underflows, P tau / (h c / lambda)
    # overflows; refused before the saturation warning
    with pytest.raises(ConfigError,
                       match="photon_energy 0.0 must be finite and positive"):
        PhotonBudget(wavelength=1e300)
    with pytest.raises(ConfigError,
                       match="photons inf must be finite and positive"):
        PhotonBudget(power=1e300)
    with pytest.warns(SaturationWarning) as record:
        PhotonBudget(power=2e-9)
    # named at the caller, not in the dataclass-generated __init__ (<string>)
    assert [w.filename for w in record] == [__file__]


def test_budget_below_one_photon_per_window_is_refused():
    # finite and positive, but no photon to count: a vanishing power, window
    # or wavelength; one photon per window is the least a budget may give
    for fields in ({"power": 1e-300}, {"integration": 1e-300},
                   {"wavelength": 5e-324}):
        with pytest.raises(ConfigError, match="detected photons per window "
                                              r".* must be finite and lie "
                                              r"in \[1.0, inf\)"):
            PhotonBudget(**fields)
    energy = PhotonBudget().photon_energy
    power = 2.0 * energy / experiment.DEFAULT_INTEGRATION_S  # two photons
    assert PhotonBudget(power=power).photons == pytest.approx(2.0)
    with pytest.raises(ConfigError, match="photons per window 0.5"):
        PhotonBudget(power=power / 4.0)


def test_one_photon_sent_through_the_power_comes_back_as_one():
    # the CLI's --photons 1 becomes photons * energy / tau, and the budget
    # turns that back one ulp short at this window: the rounding passes, and
    # the floor still refuses what lies further below it
    tau = 0.13366834170854272
    energy = PLANCK * LIGHT_SPEED / experiment.DEFAULT_WAVELENGTH_M
    budget = PhotonBudget(power=1.0 * energy / tau, integration=tau)
    assert budget.photons == 0.9999999999999998
    for photons in (1.0 - 1e-12, 0.999):
        with pytest.raises(ConfigError, match=r"photons per window 0.999\d* "
                                              r"must be finite and lie in "
                                              r"\[1.0, inf\)$"):
            PhotonBudget(power=photons * energy / tau, integration=tau)
    # every budget of one photon per window, at random windows and
    # wavelengths, survives the round trip
    rng = np.random.default_rng(20)
    for tau, wavelength in 10.0 ** rng.uniform((-6, -9), (2, -5), (2000, 2)):
        energy = PLANCK * LIGHT_SPEED / wavelength
        PhotonBudget(power=energy / tau, integration=tau,
                     wavelength=wavelength)


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
    # tan(epsilon)^2 underflows to zero, or to a subnormal whose reciprocal
    # overflows: cot^2 has no finite value
    for epsilon in (1e-300, 1e-155):
        with pytest.raises(ConfigError, match=r"cot\^2 .* must be finite"):
            demod_signal(MODE, epsilon, 1e-7)
    assert check_epsilon(EPSILON) == 1.0 / math.tan(EPSILON) ** 2
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
    with pytest.raises(ConfigError, match="seed -1"):
        montecarlo_lockin(MODE, EPSILON, 1e-6, budget, noise, seed=-1)
    # numpy seeds from any non-negative int, also past the float range
    huge = montecarlo_lockin(MODE, EPSILON, 1e-6, budget, noise,
                             seed=10 ** 400, trials=10)
    assert huge.seed == 10 ** 400 and len(huge.samples) == 10


def test_montecarlo_refuses_non_integer_seed_and_trials(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("generator seeded before the integer guard")

    # a float or bool count is refused before any draw, as the CLI's ints
    # never are
    monkeypatch.setattr(experiment.np.random, "default_rng", no_draw)
    for kwargs, text in (({"seed": 1.5}, "seed 1.5"),
                         ({"seed": True}, "seed True"),
                         ({"seed": 2.0}, "seed 2.0"),
                         ({"trials": 12.0}, "trials 12.0"),
                         ({"trials": True}, "trials True")):
        with pytest.raises(ConfigError, match=f"{text} must be an integer"):
            montecarlo_lockin(MODE, EPSILON, 1e-6, PhotonBudget(),
                              NoiseModel(), **kwargs)
    monkeypatch.undo()
    run = montecarlo_lockin(MODE, EPSILON, 1e-6, PhotonBudget(), NoiseModel(),
                            seed=np.int64(3), trials=np.int64(10))
    assert run.seed == 3 and len(run.samples) == 10


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


def test_montecarlo_caps_trials_before_allocating(monkeypatch):
    def no_allocation(*args, **kwargs):
        raise AssertionError("sample array allocated before the trial cap")

    monkeypatch.setattr(experiment.np, "empty", no_allocation)
    with pytest.raises(ConfigError, match=r"trials 100001 must be finite and "
                                          r"lie in \[10, 100000\]"):
        montecarlo_lockin(MODE, EPSILON, 1e-6, PhotonBudget(), NoiseModel(),
                          trials=experiment.MAX_TRIALS + 1)
    monkeypatch.undo()
    assert main(["montecarlo", "--mode", "1,1", "--trials",
                 str(experiment.MAX_TRIALS + 1)]) == 2
    # the cap sits far above the trial counts in use (400 by default)
    assert experiment.MAX_TRIALS >= 50 * 1600


def test_montecarlo_caps_run_bins_before_simulating(monkeypatch):
    # 9.8e5 bins a trial passes the per-trial cap, but 100000 such trials
    # would run for hours
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulation started before the run cap")

    monkeypatch.setattr(experiment.np, "empty", no_simulation)
    monkeypatch.setattr(experiment.np.random, "default_rng", no_simulation)
    with pytest.raises(ConfigError, match="bins a run"):
        montecarlo_lockin(MODE, EPSILON, 1e-6, PhotonBudget(),
                          NoiseModel(drive_frequency=4.5e5),
                          trials=experiment.MAX_TRIALS)
    monkeypatch.undo()
    assert main(["montecarlo", "--mode", "1,1", "--f-drive", "4.5e5",
                 "--trials", str(experiment.MAX_TRIALS)]) == 2
    # every trial count valid at the defaults (2180 bins a trial) stays valid
    assert experiment.MAX_RUN_BINS >= experiment.MAX_TRIALS * 2180


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


def _count_forks(monkeypatch) -> list:
    """The pids of the children forked from here on, as a live list."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _lockin(trials, noise=NoiseModel(electrical_v=0.0),
            budget=PhotonBudget()):
    alpha = 5 * min_detectable_rotation(MODE, EPSILON, budget.photons)
    return montecarlo_lockin(MODE, EPSILON, alpha, budget, noise, seed=7,
                             trials=trials)


def _assert_bitwise(run, one):
    assert run.samples.tobytes() == one.samples.tobytes()
    assert (run.mean_snr, run.std_snr, run.seed) == (
        one.mean_snr, one.std_snr, one.seed)


@pytest.mark.parametrize("electrical_v", [0.0, 35.75e-6])
def test_montecarlo_split_over_cpus_is_bitwise_one_process(monkeypatch,
                                                           electrical_v):
    noise = NoiseModel(electrical_v=electrical_v)
    forks = _count_forks(monkeypatch)
    for trials in (10, 100, 101, 401, 4000):
        runs = []
        for cpus in (1, 2, 3):
            _cpus(monkeypatch, cpus)
            forks.clear()
            runs.append(_lockin(trials, noise))
            # one process per CPU, each with at least MIN_BLOCK_TRIALS
            workers = min(cpus, max(1, trials // experiment.MIN_BLOCK_TRIALS))
            assert len(forks) == workers - 1
            _assert_no_child()
        for run in runs[1:]:
            _assert_bitwise(run, runs[0])


def test_montecarlo_block_larger_than_a_pipe_buffer(monkeypatch):
    # 40 bins a trial keep it short. An 8500-trial block sends 68 kB, past
    # the 64 KiB a pipe buffers, so the parent must read it before it waits
    budget = PhotonBudget(integration=0.002)
    _cpus(monkeypatch, 2)
    split = _lockin(17000, budget=budget)
    _assert_no_child()
    _cpus(monkeypatch, 1)
    _assert_bitwise(split, _lockin(17000, budget=budget))


def test_montecarlo_stays_in_one_process(monkeypatch):
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    one = _lockin(401)
    assert len(forks) == 2
    # another Python thread could hold a lock the child would inherit
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        _assert_bitwise(_lockin(401), one)
    finally:
        release.set()
        other.join()
    monkeypatch.delattr(os, "sched_getaffinity")  # not Linux
    _assert_bitwise(_lockin(401), one)
    assert len(forks) == 2


@pytest.mark.filterwarnings("error")
def test_montecarlo_forks_quietly_beside_native_threads(monkeypatch):
    # Python 3.12+ warns so on fork while numpy's BLAS threads run
    fork = os.fork

    def warning_fork():
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                      "use of fork() may lead to deadlocks in the child.",
                      DeprecationWarning, stacklevel=2)
        return fork()

    _cpus(monkeypatch, 1)
    one = _lockin(200)
    monkeypatch.setattr(os, "fork", warning_fork)
    forks = _count_forks(monkeypatch)
    _cpus(monkeypatch, 2)
    _assert_bitwise(_lockin(200), one)
    assert len(forks) == 1
    _assert_no_child()


def _faulty_draws(monkeypatch, fault):
    """default_rng that runs fault(trial) first, in every process."""
    draw = np.random.default_rng

    def faulty(key):
        fault(key[1])
        return draw(key)

    monkeypatch.setattr(np.random, "default_rng", faulty)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["raise", "warn", "short"])
def test_montecarlo_refills_a_failed_child_block(monkeypatch, kind):
    _cpus(monkeypatch, 1)
    one = _lockin(401)
    parent = os.getpid()

    def fault(trial):
        if os.getpid() != parent and trial % 50 == 0:
            if kind == "raise":
                raise ValueError("child draw")
            if kind == "warn":  # an error in the child
                warnings.warn("child draw", RuntimeWarning)

    write = os.write

    def write_one_sample(fd, data):  # then leave as if all went well
        if os.getpid() == parent:
            return write(fd, data)
        write(fd, bytes(data[:8]))
        os._exit(0)

    _faulty_draws(monkeypatch, fault)
    if kind == "short":
        monkeypatch.setattr(os, "write", write_one_sample)
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    _assert_bitwise(_lockin(401), one)
    assert len(forks) == 2
    _assert_no_child()


def test_montecarlo_runs_a_block_here_when_fork_fails(monkeypatch):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    _cpus(monkeypatch, 1)
    one = _lockin(401)
    open_fds = len(os.listdir("/dev/fd"))
    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, 3)
    _assert_bitwise(_lockin(401), one)
    assert len(os.listdir("/dev/fd")) == open_fds  # both pipe ends closed


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("error", [ValueError, RuntimeWarning])
def test_montecarlo_block_error_raises_as_in_one_process(monkeypatch, error):
    def fault(trial):
        if trial == 250:  # in the second of three blocks
            if issubclass(error, Warning):
                warnings.warn("trial 250", error)
            raise error("trial 250")

    _faulty_draws(monkeypatch, fault)
    raised = []
    forks = _count_forks(monkeypatch)
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        with pytest.raises(error) as info:
            _lockin(401)
        raised.append((type(info.value), str(info.value)))
        _assert_no_child()
    assert raised == [(error, "trial 250")] * 2
    assert len(forks) == 2


def test_montecarlo_child_warning_surfaces_as_in_one_process(monkeypatch):
    def fault(trial):
        if trial == 250:
            warnings.warn("trial 250", RuntimeWarning)

    _faulty_draws(monkeypatch, fault)
    forks = _count_forks(monkeypatch)
    runs, caught = [], []
    for cpus in (1, 3):
        _cpus(monkeypatch, cpus)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            runs.append(_lockin(401))
        caught.append([(w.category, str(w.message)) for w in seen])
        _assert_no_child()
    assert caught == [[(RuntimeWarning, "trial 250")]] * 2
    _assert_bitwise(runs[1], runs[0])
    assert len(forks) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("error", [ValueError("trial 5"), KeyboardInterrupt()])
def test_montecarlo_parent_error_kills_every_child(monkeypatch, error):
    parent = os.getpid()

    def fault(trial):
        if os.getpid() == parent and trial == 5:
            raise error

    _faulty_draws(monkeypatch, fault)
    _cpus(monkeypatch, 3)
    forks = _count_forks(monkeypatch)
    with pytest.raises(type(error)) as info:
        _lockin(4000)
    assert info.value is error
    assert len(forks) == 2
    _assert_no_child()


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


def test_sensitivity_table_refuses_rotations_outside_the_first_order():
    # |alpha_min cot eps| must stay below WEAK_LIMIT and alpha_min at most
    # 0.1 of the dither depth, or the first-order formula does not hold
    two = PhotonBudget(power=2.0 * PhotonBudget().power
                       / PhotonBudget().photons)
    with pytest.raises(WeakRegimeError, match=r"^mode \(1, 1\) minimum "
                       r"detectable rotation 0.0154\d* rad: weak-regime "
                       r"\|alpha \* A_w\| 0.176\d* must be finite and lie "
                       r"in \[0.0, 0.1\)$"):
        sensitivity_table(EPSILON, two)
    twenty = PhotonBudget(power=10.0 * two.power)
    assert 0.1 * DEFAULT_DITHER_RAD < min_detectable_rotation(
        MODE, EPSILON, twenty.photons) < 0.1 * math.tan(EPSILON)
    with pytest.raises(ExpansionInvalidError, match=r"^mode \(1, 1\) minimum "
                       r"detectable rotation 0.0048\d* rad: rotation .* not "
                       "small against the dither 0.0063"):
        sensitivity_table(EPSILON, twenty)
    # the defaults lie far inside both bounds
    assert sensitivity_table(EPSILON)[0].alpha_min_rad < 1e-5


def test_table_serialization(tmp_path):
    rows = sensitivity_table(EPSILON)
    csv_path = tmp_path / "table.csv"
    write_atomic(csv_path, table_csv(rows))
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(ModeSensitivity._fields)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1" and first[1] == "1"
    assert float(first[2]) == pytest.approx(rows[0].alpha_min_rad, rel=1e-11)

    json_path = tmp_path / "table.json"
    write_atomic(json_path, table_json(rows))
    payload = json.loads(json_path.read_text())
    assert payload[0]["m"] == 1
    assert payload[2]["drive_v_reference"] == pytest.approx(0.203)
    assert not list(tmp_path.glob("*.tmp"))


def test_run_config_format(tmp_path):
    path = tmp_path / "run.cfg"
    write_run_config(path, {"beta": 2.5, "alpha": 1, "mode": "1,1"})
    assert path.read_text() == "alpha = 1\nbeta = 2.5\nmode = 1,1\n"
