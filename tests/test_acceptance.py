"""Top-level acceptance checks, one per shipped claim.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion. Each check aggregates its sub-conditions and asserts once, so a
red criterion reads out exactly which quantity missed its tolerance.
"""

import csv
import math
import time

import numpy as np

from hgsense.cli import main
from hgsense.experiment import (
    DriveCalibration,
    NoiseModel,
    PhotonBudget,
    montecarlo_lockin,
    snr as analytic_snr,
)
from hgsense.fields import (
    J1_PEAK_X,
    first_order_extract,
    gaussian_illumination,
    hologram_phase,
    mode_purity,
    modulate,
    overlap,
    rotate_field,
    synthesize_hg_field,
    synthesize_superposition,
)
from hgsense.fisher import (
    Parameter,
    carrier_projection_povm,
    cfi_povm,
    min_detectable_rotation,
    qfi_mixed_closed_form,
    qfi_mixed_monitor,
    qfi_mixed_quadratic,
    qfi_pure_numeric,
    qfi_weak_approx,
    sld_solve,
)
from hgsense.modes import (
    ModeIndex,
    ModeState,
    lz_matrix,
    oam_variance,
    variance,
)
from hgsense.weak import (
    Coupling,
    DensityMatrix,
    PauliAxis,
    QubitState,
    WeakScenario,
    carrier_state,
    final_pointer_exact,
    monitor_branches,
    post_selected_pair,
)
from scipy.special import j0, j1


def _check(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number:02d}] {status} - {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def _rotation_family(epsilon: float, idx: ModeIndex):
    pre, post = post_selected_pair(epsilon)
    pointer = ModeState.basis(idx.total, idx.m, idx.n)

    def fam(a: float) -> ModeState:
        s = WeakScenario(a, pre, post, PauliAxis.z(), Coupling.OAM, pointer)
        return final_pointer_exact(s).pointer

    return fam


def test_criterion_01(tmp_path):
    failures = []
    target = tmp_path / "table.csv"
    start = time.perf_counter()
    code = main(["table2", "--out", str(target)])
    elapsed = time.perf_counter() - start
    if code != 0:
        failures.append(f"exit code {code}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f} s")
    expected_theory = {(1, 1): 3.44e-6, (3, 3): 1.40e-6, (5, 5): 0.89e-6}
    with open(target, newline="") as handle:
        rows = {(int(r["m"]), int(r["n"])): r
                for r in csv.DictReader(handle)}
    for key, theory in expected_theory.items():
        got = float(rows[key]["alpha_min_rad"])
        if abs(got / theory - 1.0) > 0.005:
            failures.append(f"{key} theory {got:.4g} vs {theory:.4g}")
        measured = float(rows[key]["alpha_min_reference_rad"])
        if abs(measured / got - 1.0) > 0.03:
            failures.append(f"{key} benchmark {measured:.4g} vs {got:.4g}")
    _check(1, "default sensitivity table hits the published precisions",
           failures)


def test_criterion_02():
    failures = []
    start = time.perf_counter()
    cutoff = 11
    lz = lz_matrix(cutoff)
    for m in range(cutoff):
        for n in range(cutoff):
            state = ModeState.basis(cutoff, m, n)
            got = variance(lz, state)
            want = float(2 * m * n + m + n)
            if want == 0.0:
                ok = abs(got) < 1e-10
            else:
                ok = abs(got / want - 1.0) < 1e-10
            if not ok:
                failures.append(f"({m},{n}) variance {got!r} vs {want}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s")
    _check(2, "angular-momentum variance matches 2mn+m+n on the full grid",
           failures)


def test_criterion_03():
    failures = []
    alpha = 1e-4
    for epsilon in (0.05, 0.1):
        pre, post = post_selected_pair(epsilon)
        for m, n in ((1, 1), (3, 3), (5, 5)):
            idx = ModeIndex(m, n)
            pointer = ModeState.basis(idx.total, m, n)
            s = WeakScenario(alpha, pre, post, PauliAxis.z(),
                             Coupling.OAM, pointer)
            quantum = qfi_weak_approx(s, Parameter.ALPHA)
            povm = carrier_projection_povm(carrier_state(idx, idx.total))
            classical = cfi_povm(_rotation_family(epsilon, idx), alpha, povm)
            if abs(classical / quantum - 1.0) > 0.01:
                failures.append(
                    f"eps={epsilon} ({m},{n}) cfi/qfi "
                    f"{classical / quantum:.4f}")
    _check(3, "carrier projection extracts the full quantum information",
           failures)


def test_criterion_04():
    failures = []
    inside_points = ((0.1, ModeIndex(1, 1), 0.05), (0.1, ModeIndex(1, 1), 0.02),
                     (0.05, ModeIndex(3, 3), 0.05))
    outside_points = ((0.1, ModeIndex(1, 1), 1.0), (0.05, ModeIndex(3, 3), 1.0),
                      (0.1, ModeIndex(5, 5), 1.0))
    for epsilon, idx, ratio in inside_points + outside_points:
        spread = math.sqrt(oam_variance(idx))
        alpha = ratio * epsilon / spread
        cot2 = (math.cos(epsilon) / math.sin(epsilon)) ** 2
        naive = 4.0 * cot2 * oam_variance(idx)
        exact = qfi_pure_numeric(_rotation_family(epsilon, idx), alpha)
        deviation = abs(exact / naive - 1.0)
        if ratio <= 0.05 and deviation > 0.02:
            failures.append(
                f"eps={epsilon} {idx} ratio={ratio} dev {deviation:.3f}")
        if ratio >= 1.0 and deviation <= 0.10:
            failures.append(
                f"eps={epsilon} {idx} ratio={ratio} dev only {deviation:.3f}")
    _check(4, "quadratic information law holds weakly and fails strongly",
           failures)


def test_criterion_05():
    failures = []
    qubit = QubitState.from_angles(1.1, 0.0)
    for m in (1, 3, 5):
        pointer = ModeState.basis(2 * m, m, m)
        alpha = 1e-3
        via_sld = qfi_mixed_monitor(qubit, alpha, pointer)
        closed = qfi_mixed_closed_form(qubit, alpha, pointer)
        if abs(via_sld - closed) > 1e-10:
            failures.append(f"m={m} sld-closed {abs(via_sld - closed):.2e}")
        quad = qfi_mixed_quadratic(alpha, pointer)
        if abs(closed / quad - 1.0) > 1e-3:
            failures.append(f"m={m} quad dev {abs(closed / quad - 1):.2e}")

    theta_q = math.pi / 3
    alpha = 0.05
    cutoff = 4
    pointer = ModeState.basis(cutoff, 2, 2)
    q2 = QubitState.from_angles(theta_q, 0.0)
    fwd, bwd = monitor_branches(alpha, pointer)
    p_plus = np.outer(fwd, fwd.conj())
    p_minus = np.outer(bwd, bwd.conj())
    rho = DensityMatrix(cutoff, abs(q2.c0) ** 2 * p_plus
                        + abs(q2.c1) ** 2 * p_minus)
    drho = abs(q2.c0) * abs(q2.c1) * (p_minus - p_plus)
    sld = sld_solve(rho, drho).entries
    delta = float(np.real(np.vdot(fwd, bwd)))
    sym = (fwd + bwd) / np.linalg.norm(fwd + bwd)
    anti = (fwd - bwd) / np.linalg.norm(fwd - bwd)
    cot = math.cos(theta_q) / math.sin(theta_q)
    entries = (
        ("sym-sym", complex(np.vdot(sym, sld @ sym)), (1.0 - delta) * cot),
        ("anti-anti", complex(np.vdot(anti, sld @ anti)), (1.0 + delta) * cot),
        ("sym-anti", complex(np.vdot(sym, sld @ anti)),
         -math.sqrt(1.0 - delta ** 2) / math.sin(theta_q)),
    )
    for label, got, want in entries:
        if abs(got - want) > 1e-10:
            failures.append(f"{label} entry off by {abs(got - want):.2e}")
    _check(5, "dephased-monitor information agrees across all three routes",
           failures)


def test_criterion_06():
    failures = []
    alpha = 1e-3
    amplitudes = {}
    for side in (512, 1024):
        for m in range(1, 6):
            idx = ModeIndex(m, m)
            if side == 1024 and m not in (1, 5):
                continue
            base = synthesize_hg_field(idx, 1.0, side=side)
            carrier = synthesize_superposition(
                carrier_state(idx, idx.total), 1.0, side=side)
            amp = overlap(carrier, rotate_field(base, alpha)).real
            amplitudes[(side, m)] = amp
            predicted = alpha * math.sqrt(oam_variance(idx))
            if side == 512 and abs(amp / predicted - 1.0) > 0.01:
                failures.append(f"({m},{m}) amp {amp:.6g} vs {predicted:.6g}")
    for m in (1, 5):
        drift = abs(amplitudes[(1024, m)] / amplitudes[(512, m)] - 1.0)
        if drift > 0.002:
            failures.append(f"({m},{m}) resolution drift {drift:.4f}")
    _check(6, "rotating the sampled field reproduces the operator signal",
           failures)


def test_criterion_07():
    failures = []
    side = 512
    grid = synthesize_hg_field(ModeIndex(0, 0), 1.0, side=side)
    illum = gaussian_illumination(3.0, grid)
    period = 16.0
    purities = {}
    for m in range(7):
        for n in range(7):
            idx = ModeIndex(m, n)
            target = synthesize_hg_field(idx, 1.0, side=side)
            mask = hologram_phase(target, illum, period)
            out = first_order_extract(modulate(illum, mask), period)
            purities[(m, n)] = mode_purity(out, idx)
            if purities[(m, n)] < 0.99:
                failures.append(f"({m},{n}) purity {purities[(m, n)]:.4f}")
    diagonal = [purities[(m, m)] for m in range(7)]
    for lower, upper in zip(diagonal[1:], diagonal[:-1]):
        if lower > upper + 1e-4:
            failures.append(f"diagonal purity trend broken: {diagonal}")
            break

    mask = hologram_phase(illum, illum, period)
    modulated = modulate(illum, mask)
    spectrum = np.fft.fft2(modulated.samples)
    fx = np.fft.fftfreq(side)
    carrier = 1.0 / period
    zero_win = ((np.abs(fx[None, :]) <= carrier / 2)
                & (np.abs(fx[:, None]) <= carrier / 2))
    first_win = ((np.abs(fx[None, :] - carrier) <= carrier / 2)
                 & (np.abs(fx[:, None]) <= carrier / 2))
    ratio = (float(np.sum(np.abs(spectrum * zero_win) ** 2))
             / float(np.sum(np.abs(spectrum * first_win) ** 2)))
    expected = (float(j0(J1_PEAK_X)) / float(j1(J1_PEAK_X))) ** 2
    if abs(ratio / expected - 1.0) > 0.02:
        failures.append(f"order power ratio {ratio:.5f} vs {expected:.5f}")
    _check(7, "holographic encoding round-trips pure modes at ideal optics",
           failures)


def test_criterion_08():
    failures = []
    start = time.perf_counter()
    budget = PhotonBudget()
    noise = NoiseModel(electrical_v=0.0)
    epsilon = math.radians(5.0)
    cal = DriveCalibration()

    for seed, (m, n) in ((404, (1, 1)), (405, (5, 5))):
        idx = ModeIndex(m, n)
        alpha = 2.0 * min_detectable_rotation(idx, epsilon, budget.photons)
        res = montecarlo_lockin(idx, epsilon, alpha, budget, noise,
                                seed=seed, trials=400)
        reference = analytic_snr(idx, epsilon, alpha, budget)
        if abs(res.mean_snr / reference - 1.0) > 0.05:
            failures.append(
                f"({m},{n}) mc mean {res.mean_snr:.3f} vs {reference:.3f}")

    idx = ModeIndex(1, 1)
    alpha_min = min_detectable_rotation(idx, epsilon, budget.photons)
    v_model = cal.volts(alpha_min)
    volts = [0.4 + 0.1 * k for k in range(9)]
    num = den = 0.0
    for v in volts:
        res = montecarlo_lockin(idx, epsilon, cal.rotation(v), budget, noise,
                                seed=406, trials=100)
        num += res.mean_snr * v
        den += v * v
    v_crossing = den / num  # slope fit through the origin, then SNR = 1
    if abs(v_crossing - v_model) > 0.1:
        failures.append(f"crossing {v_crossing:.3f} V vs {v_model:.3f} V")

    alpha = 2.0 * alpha_min
    narrow = montecarlo_lockin(idx, epsilon, alpha, budget, noise,
                               seed=407, trials=400)
    wide = montecarlo_lockin(idx, epsilon, alpha, budget, noise,
                             seed=407, trials=100)
    band_ratio = 2.0 * wide.std_snr / narrow.std_snr
    if not 1.5 < band_ratio < 2.7:
        failures.append(f"band ratio {band_ratio:.2f} not near 2")

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s")
    _check(8, "photon-counting simulation tracks the analytic sensitivity",
           failures)


def test_criterion_09():
    failures = []
    budget = PhotonBudget()
    noise = NoiseModel(electrical_v=0.0)
    epsilon = math.radians(5.0)
    cal = DriveCalibration()
    small = ModeIndex(1, 1)
    large = ModeIndex(5, 5)

    per_volt = {}
    for idx in (small, large):
        per_volt[idx] = analytic_snr(idx, epsilon, cal.rotation(0.1),
                                     budget) / 0.1
    analytic_ratio = per_volt[large] / per_volt[small]
    if abs(analytic_ratio / math.sqrt(15.0) - 1.0) > 0.02:
        failures.append(f"analytic slope ratio {analytic_ratio:.4f}")

    alpha_unit = min_detectable_rotation(small, epsilon, budget.photons)
    slopes = {}
    for seed, idx in ((408, small), (409, large)):
        num = den = 0.0
        for k in range(1, 6):
            alpha = k * alpha_unit
            v = cal.volts(alpha)
            res = montecarlo_lockin(idx, epsilon, alpha, budget, noise,
                                    seed=seed, trials=100)
            num += res.mean_snr * v
            den += v * v
        slopes[idx] = num / den
    mc_ratio = slopes[large] / slopes[small]
    if abs(mc_ratio / math.sqrt(15.0) - 1.0) > 0.05:
        failures.append(f"mc slope ratio {mc_ratio:.4f}")
    _check(9, "going from (1,1) to (5,5) buys the sqrt(15) slope gain",
           failures)


def test_criterion_10():
    failures = []
    count = PhotonBudget(94.34e-12, 0.10908, 780e-9).photons
    if abs(count / 4.04e7 - 1.0) > 0.005:
        failures.append(f"photon count {count:.6g}")
    _check(10, "stated power and window integrate to 4.04e7 photons",
           failures)
