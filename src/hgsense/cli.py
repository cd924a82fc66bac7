"""Command line front end.

Subcommands:

bounds      precision-bound sweeps over pointer modes, three families in one
            CSV: carrier-readout information at the working post-selection,
            quantum bounds for coupling strength and axis angles, and an
            exact-vs-quadratic comparison past the weak-coupling regime
table2      minimum detectable rotation per mode with drive-voltage
            equivalents and measured benchmarks
montecarlo  photon-counting lock-in simulation, per-trial SNR samples
hologram    phase-only hologram for a target mode plus the simulated
            first-order readout

Domain precondition failures and unwritable outputs exit with status 2 and
a one-line message on stderr. Files go through output.write_atomic; stdout
gets the same text a file would.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

from .errors import HgSenseError
from .experiment import (
    DEFAULT_DITHER_RAD,
    DEFAULT_DRIVE_HZ,
    DEFAULT_INTEGRATION_S,
    DEFAULT_POWER_W,
    DEFAULT_ROTATION_PER_VOLT,
    DEFAULT_WAVELENGTH_M,
    DriveCalibration,
    NoiseModel,
    PhotonBudget,
    check_epsilon,
    montecarlo_lockin,
    sensitivity_table,
    snr as analytic_snr,
    table_csv,
    table_json,
    write_run_config,
)
from .fields import (
    first_order_extract,
    gaussian_illumination,
    hologram_phase,
    mode_purity,
    modulate,
    synthesize_hg_field,
    write_field_binary,
    write_phase_pgm,
)
from .fisher import (
    Parameter,
    hamiltonian_bound,
    min_detectable_rotation,
    qfi_rotation_exact,
    qfi_weak_approx,
    write_bound_csv,
)
from .modes import ModeIndex, ModeState, oam_variance
from .output import format_cell, write_atomic
from .weak import (
    Coupling,
    PauliAxis,
    QubitState,
    WeakScenario,
    post_selected_pair,
)

def _parse_mode(text: str) -> ModeIndex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"--mode expects 'm,n', got {text!r}")
    return ModeIndex(int(parts[0]), int(parts[1]))


def _parse_float_list(text: str) -> list[float]:
    values = [float(p) for p in text.split(",") if p.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated float list, got {text!r}")
    return values


def _budget(args) -> PhotonBudget:
    budget = PhotonBudget(power=args.power_w, integration=args.tau_s,
                          wavelength=args.wavelength_m)
    if getattr(args, "photons", None) is not None:
        if args.photons <= 0:
            raise ValueError("--photons must be positive")
        power = args.photons * budget.photon_energy / budget.integration
        budget = PhotonBudget(power=power, integration=args.tau_s,
                              wavelength=args.wavelength_m)
    return budget


def _calibration(args) -> DriveCalibration:
    if args.volts_per_rad_cal <= 0:
        raise ValueError("--volts-per-rad-cal must be positive")
    return DriveCalibration(rotation_per_volt=1.0 / args.volts_per_rad_cal)


def _emit(args, text: str):
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)


def _maybe_config(args, settings: dict):
    if getattr(args, "config_out", None):
        write_run_config(args.config_out, settings)


def cmd_bounds(args) -> int:
    epsilon = math.radians(args.epsilon_deg)
    check_epsilon(epsilon)
    budget = _budget(args)
    n_photons = budget.photons
    cot2 = 1.0 / math.tan(epsilon) ** 2
    alpha_breakdown = args.alpha_rad if args.alpha_rad is not None else 1e-3
    if not math.isfinite(alpha_breakdown):
        raise ValueError(f"--alpha-rad must be finite, got {alpha_breakdown}")
    # the breakdown family's largest pointer: refuse it before any sweep runs
    ModeIndex(max(args.sweep_max, 0), max(args.sweep_max, 0))
    rows = []

    for m in range(1, args.grid_max + 1):
        for n in range(1, args.grid_max + 1):
            fisher = 4.0 * cot2 * oam_variance(ModeIndex(m, n)) * n_photons
            rows.append({
                "family": "projective", "method": "carrier-povm",
                "coupling": "oam", "epsilon": epsilon,
                "m": m, "n": n, "parameter": "alpha",
                "fisher_info": fisher, "variance_bound": 1.0 / fisher,
            })

    # symmetric selection pair with unit success: A_w = 1/2 on the tilted axis
    diag = QubitState.from_amplitudes(1.0, cmath.exp(1j * math.pi / 4.0))
    axis = PauliAxis(math.pi / 4.0, 0.0)
    sigma0 = 1.0 / math.sqrt(2.0)
    for order in range(0, args.sweep_max + 1):
        cutoff = order + 1
        pointer = ModeState.basis(cutoff, order, order)
        gauss = ModeState.basis(cutoff, 0, 0)
        variants = (
            ("oam", Coupling.OAM, pointer, order, order),
            ("momentum-x", Coupling.MOMENTUM_X, pointer, order, order),
            ("gaussian-pointer", Coupling.MOMENTUM_X, gauss, order, order),
        )
        for label, coupling, state, m, n in variants:
            scenario = WeakScenario(1e-3, diag, diag, axis, coupling, state,
                                    sigma0=sigma0)
            for parameter in Parameter:
                bound = hamiltonian_bound(parameter, scenario, n_samples=1.0)
                rows.append({
                    "family": "hamiltonian", "method": "quantum-bound",
                    "coupling": label, "epsilon": "",
                    "m": m, "n": n, "parameter": parameter.value,
                    "fisher_info": bound.fisher_info,
                    "variance_bound": bound.variance_bound,
                })

    for eps_b in args.breakdown_epsilons:
        pre, post = post_selected_pair(eps_b)
        for order in range(1, args.sweep_max + 1):
            idx = ModeIndex(order, order)
            exact = qfi_rotation_exact(pre, post, PauliAxis.z(),
                                       alpha_breakdown, idx)
            scenario = WeakScenario(alpha_breakdown, pre, post, PauliAxis.z(),
                                    Coupling.OAM,
                                    ModeState.basis(order + 1, order, order))
            approx = qfi_weak_approx(scenario, Parameter.ALPHA,
                                     check_regime=False)
            for method, fisher in (("exact", exact), ("weak-approx", approx)):
                rows.append({
                    "family": "postselection", "method": method,
                    "coupling": "oam", "epsilon": eps_b,
                    "m": order, "n": order, "parameter": "alpha",
                    "fisher_info": fisher,
                    "variance_bound":
                        math.inf if fisher == 0.0 else 1.0 / fisher,
                })

    if not rows:
        print("error: sweep limits produce no rows", file=sys.stderr)
        return 2
    write_bound_csv(args.out, rows)
    _maybe_config(args, {
        "epsilon_rad": epsilon, "photons": n_photons,
        "power_w": budget.power, "integration_s": budget.integration,
        "wavelength_m": budget.wavelength,
        "alpha_breakdown_rad": alpha_breakdown,
        "grid_max": args.grid_max, "sweep_max": args.sweep_max,
    })
    return 0


def cmd_table2(args) -> int:
    epsilon = math.radians(args.epsilon_deg)
    budget = _budget(args)
    cal = _calibration(args)
    rows = sensitivity_table(epsilon, budget, cal)
    _emit(args, (table_json if args.format == "json" else table_csv)(rows))
    _maybe_config(args, {
        "epsilon_rad": epsilon, "photons": budget.photons,
        "power_w": budget.power, "integration_s": budget.integration,
        "wavelength_m": budget.wavelength,
        "rotation_per_volt": cal.rotation_per_volt,
    })
    return 0


def cmd_montecarlo(args) -> int:
    idx = _parse_mode(args.mode)
    epsilon = math.radians(args.epsilon_deg)
    budget = _budget(args)
    noise = NoiseModel(dither_rad=args.alpha0_rad,
                       drive_frequency=args.f_drive,
                       electrical_v=args.electrical_v)
    alpha = args.alpha_rad
    if alpha is None:
        alpha = 2.0 * min_detectable_rotation(idx, epsilon, budget.photons)
    result = montecarlo_lockin(idx, epsilon, alpha, budget, noise,
                               seed=args.seed, trials=args.trials)
    reference = analytic_snr(idx, epsilon, alpha, budget,
                             noise.dither_rad, noise.electrical_v)
    lines = [
        f"# seed = {result.seed}",
        f"# mode = {idx.m},{idx.n}",
        f"# alpha_rad = {format_cell(alpha)}",
        f"# analytic_snr = {format_cell(reference)}",
        "label,snr",
    ]
    lines += [f"trial{k:04d},{format_cell(v)}"
              for k, v in enumerate(result.samples)]
    lines.append(f"mean,{format_cell(result.mean_snr)}")
    lines.append(f"std,{format_cell(result.std_snr)}")
    _emit(args, "\n".join(lines) + "\n")
    _maybe_config(args, {
        "epsilon_rad": epsilon, "alpha_rad": alpha,
        "dither_rad": noise.dither_rad,
        "drive_frequency_hz": noise.drive_frequency,
        "electrical_v": noise.electrical_v,
        "photons": budget.photons, "power_w": budget.power,
        "integration_s": budget.integration,
        "wavelength_m": budget.wavelength,
        "seed": args.seed, "trials": args.trials,
    })
    return 0


def cmd_hologram(args) -> int:
    idx = _parse_mode(args.mode)
    target = synthesize_hg_field(idx, 1.0, side=args.grid)
    incident = gaussian_illumination(args.illum_scale, target)
    phase = hologram_phase(target, incident, args.grating_period)
    extracted = first_order_extract(modulate(incident, phase),
                                    args.grating_period)
    purity = mode_purity(extracted, idx)
    write_phase_pgm(args.out + ".pgm", phase)
    write_field_binary(args.out + ".fgrd", extracted)
    print(f"wrote {args.out}.pgm and {args.out}.fgrd")
    print(f"first-order purity: {purity:.6f}")
    _maybe_config(args, {
        "mode_m": idx.m, "mode_n": idx.n, "grid": args.grid,
        "grating_period_px": args.grating_period,
        "illumination_scale": args.illum_scale,
        "first_order_purity": purity,
    })
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hgsense",
        description="Rotation sensing with structured-beam pointers: "
                    "precision bounds, lock-in simulation, holograms.")
    sub = parser.add_subparsers(dest="command", required=True)

    physics = argparse.ArgumentParser(add_help=False)
    physics.add_argument("--epsilon-deg", type=float, default=5.0,
                         help="post-selection offset from extinction, degrees")
    physics.add_argument("--power-w", type=float, default=DEFAULT_POWER_W,
                         help="optical power in watts")
    physics.add_argument("--tau-s", type=float, default=DEFAULT_INTEGRATION_S,
                         help="integration window in seconds")
    physics.add_argument("--wavelength-m", type=float,
                         default=DEFAULT_WAVELENGTH_M)
    physics.add_argument("--photons", type=float, default=None,
                         help="override detected photons per window "
                              "(rescales power)")

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config-out", default=None,
                        help="also dump resolved settings as key = value text")

    p_bounds = sub.add_parser(
        "bounds", parents=[physics, config],
        help="sweep precision bounds over pointer modes into a CSV")
    p_bounds.add_argument("--grid-max", type=int, default=10,
                          help="largest m and n for the carrier-readout grid")
    p_bounds.add_argument("--sweep-max", type=int, default=25,
                          help="largest diagonal order for the bound sweeps")
    p_bounds.add_argument("--alpha-rad", type=float, default=None,
                          help="coupling strength for the breakdown family "
                               "(default 1e-3)")
    p_bounds.add_argument("--breakdown-epsilons", type=_parse_float_list,
                          default=[0.1, 0.05, 0.01],
                          help="comma-separated post-selection angles, radians")
    p_bounds.add_argument("--out", required=True, help="output CSV path")
    p_bounds.set_defaults(handler=cmd_bounds)

    p_table = sub.add_parser(
        "table2", parents=[physics, config],
        help="minimum detectable rotation per mode with voltage equivalents")
    p_table.add_argument("--volts-per-rad-cal", type=float,
                         default=1.0 / DEFAULT_ROTATION_PER_VOLT,
                         help="piezo drive volts per radian of beam rotation")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(handler=cmd_table2)

    p_mc = sub.add_parser(
        "montecarlo", parents=[physics, config],
        help="photon-counting lock-in simulation")
    p_mc.add_argument("--mode", required=True, help="pointer mode as 'm,n'")
    p_mc.add_argument("--alpha-rad", type=float, default=None,
                      help="static rotation to sense (default: twice the "
                           "minimum detectable rotation)")
    p_mc.add_argument("--alpha0-rad", type=float, default=DEFAULT_DITHER_RAD,
                      help="dither depth in radians")
    p_mc.add_argument("--f-drive", type=float, default=DEFAULT_DRIVE_HZ,
                      help="dither frequency in hertz")
    p_mc.add_argument("--electrical-v", type=float, default=0.0,
                      help="electrical noise floor at the lock-in, volts")
    p_mc.add_argument("--seed", type=int, default=12345)
    p_mc.add_argument("--trials", type=int, default=400)
    p_mc.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_mc.set_defaults(handler=cmd_montecarlo)

    p_holo = sub.add_parser(
        "hologram", parents=[config],
        help="synthesize a phase-only hologram and check its first order")
    p_holo.add_argument("--mode", required=True, help="target mode as 'm,n'")
    p_holo.add_argument("--grid", type=int, default=512,
                        help="grid side in pixels")
    p_holo.add_argument("--grating-period", type=float, default=16.0,
                        help="carrier grating period in pixels")
    p_holo.add_argument("--illum-scale", type=float, default=3.0,
                        help="illumination width relative to the mode waist")
    p_holo.add_argument("--out", required=True,
                        help="output stem for the .pgm and .fgrd files")
    p_holo.set_defaults(handler=cmd_hologram)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (HgSenseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
