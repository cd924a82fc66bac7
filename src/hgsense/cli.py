"""Command line front end.

Subcommands:

bounds      the precision-bound table of fisher.bound_rows as one CSV
table2      minimum detectable rotation per mode with drive-voltage
            equivalents and measured benchmarks
montecarlo  photon-counting lock-in simulation, per-trial SNR samples
hologram    phase-only hologram for a target mode plus the simulated
            first-order readout

Parse failures, domain precondition failures, unwritable outputs, running
out of memory and warnings raised as errors exit 2 with one stderr line;
every --out and --config-out is checked before any work. DOMAINS states
each numeric flag's domain for --help; the library enforces it.
Files go through output.write_atomic; stdout gets the same text a file
would.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import experiment, fields, modes
from .errors import (
    ConfigError,
    ExpansionInvalidError,
    HgSenseError,
    WeakRegimeError,
    finite,
    finite_in,
    finite_positive,
    naming,
)
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
    min_detectable_rotation,
    montecarlo_lockin,
    sensitivity_table,
    snr as analytic_snr,
    table_csv,
    table_json,
    write_run_config,
)
from .fields import hologram_readout, mode_purity, write_field_binary
from .fisher import bound_rows, write_bound_csv
from .modes import ModeIndex
from .output import (
    check_writable,
    format_indexed,
    format_rows,
    staged,
    write_atomic,
)
from .weak import check_epsilon

# Each numeric flag's domain as the library (or cmd_bounds) checks it: an
# interval (lo, hi, ends) and any rule naming another flag, or a rule alone
# where the interval depends on one; a "command --flag" key is that
# subcommand's. build_parser appends domain's text to each flag's help.
_POSITIVE = (0, math.inf, "()")
DOMAINS = {
    "--grid": (fields.MIN_SIDE, fields.MAX_SIDE, "[]"),
    "--grating-period": f"in [{fields.MIN_GRATING_PX:g}, --grid / 2]",
    "--mode": f"orders <= {modes.MAX_HERMITE_ORDER}",
    **dict.fromkeys(("--grid-max", "--sweep-max"),
                    (0, modes.MAX_HERMITE_ORDER, "[]")),
    "--trials": (experiment.MIN_TRIALS, experiment.MAX_TRIALS, "[]",
                 f"trials x time bins <= {experiment.MAX_RUN_BINS:g}"),
    "--seed": (0, math.inf, "[)"),
    "--epsilon-deg": (0, 90, "()"),
    "--breakdown-epsilons": (0, math.pi / 2, "()"),
    "--alpha0-rad": (0, experiment.MAX_DITHER_RAD, "()", "rate deficit <= "
                     f"{experiment.DITHER_DEFICIT_LIMIT:g} for --mode"),
    "bounds --alpha-rad": (-math.inf, math.inf, "()"),
    "montecarlo --alpha-rad":
        f"|alpha| <= {experiment.MAX_ROTATION_PER_DITHER:g} --alpha0-rad",
    "--electrical-v": (0, math.inf, "[)"),
    "--photons": (experiment.MIN_PHOTONS, math.inf, "[)"),
    **dict.fromkeys(("--power-w", "--tau-s", "--wavelength-m"), (*_POSITIVE,
        f"at least {experiment.MIN_PHOTONS:g} detected photon a window")),
    "--f-drive": (*_POSITIVE, "a whole cycle, at most "
                  f"{experiment.MAX_SAMPLES_PER_TRIAL:g} time bins a window"),
    **dict.fromkeys(("--volts-per-rad-cal", "--illum-scale"), _POSITIVE),
}


def domain(command: str, flag: str) -> str:
    """flag's domain in command, as --help states it."""
    entry = DOMAINS.get(f"{command} {flag}", DOMAINS.get(flag, ""))
    if isinstance(entry, str):
        return entry
    lo, hi, ends, *rule = entry
    return "; ".join([f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}", *rule])


def _parse_mode(text: str) -> ModeIndex:
    try:
        m, n = map(int, text.split(","))
    except ValueError:
        raise ConfigError(f"--mode expects 'm,n', got {text!r}") from None
    return ModeIndex(m, n)


def _parse_float_list(text: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated float list, got {text!r}")
    return values


def _budget(args) -> PhotonBudget:
    """--photons sets the power the run uses, and only the power used meets
    the saturation check; --power-w must still be finite and positive. A
    budget that is refused names the flags it was built from."""
    power = finite_positive("power", args.power_w)
    with naming(_budget_flags(args), ConfigError):
        if args.photons is None:
            return PhotonBudget(power, args.tau_s, args.wavelength_m)
        return PhotonBudget.from_photons(args.photons, args.tau_s,
                                         args.wavelength_m)


def _budget_flags(args, *first) -> str:
    """The flags a budget is built from, after the (flag, value) pairs
    first, as the text a refusal names them by."""
    given = ("--power-w", args.power_w) if args.photons is None else (
        "--photons", args.photons)
    return ", ".join(f"{flag} {value}" for flag, value in (
        *first, given, ("--tau-s", args.tau_s),
        ("--wavelength-m", args.wavelength_m)))


def _budget_keys(epsilon: float, budget: PhotonBudget) -> dict:
    """The --config-out keys of the post-selection angle and photon budget."""
    return {"epsilon_rad": epsilon, "photons": budget.photons,
            "power_w": budget.power, "integration_s": budget.integration,
            "wavelength_m": budget.wavelength}


def _emit(args, *parts: str):
    if args.out:
        write_atomic(args.out, *parts)
    else:
        for part in parts:
            sys.stdout.write(part)


def cmd_bounds(args) -> dict:
    for flag, limit in (("--grid-max", args.grid_max),
                        ("--sweep-max", args.sweep_max)):
        finite_in(flag, limit, 0, math.inf, ends="[)")  # else a family is lost
    epsilon = math.radians(args.epsilon_deg)
    budget = _budget(args)
    alpha_breakdown = finite("--alpha-rad", args.alpha_rad)
    for eps_b in args.breakdown_epsilons:
        check_epsilon(eps_b, "--breakdown-epsilons angle")
    write_bound_csv(args.out, bound_rows(
        epsilon, budget.photons, args.grid_max, args.sweep_max,
        alpha_breakdown, args.breakdown_epsilons))
    return {**_budget_keys(epsilon, budget), "grid_max": args.grid_max,
            "sweep_max": args.sweep_max, "alpha_breakdown_rad": alpha_breakdown}


def cmd_table2(args) -> dict:
    epsilon = math.radians(args.epsilon_deg)
    budget = _budget(args)
    cal = DriveCalibration(1.0 / finite_positive("--volts-per-rad-cal",
                                                 args.volts_per_rad_cal))
    with naming(_budget_flags(args, ("--epsilon-deg", args.epsilon_deg)),
                WeakRegimeError, ExpansionInvalidError):  # first order
        rows = sensitivity_table(epsilon, budget, cal)
    _emit(args, (table_json if args.format == "json" else table_csv)(rows))
    return {**_budget_keys(epsilon, budget),
            "rotation_per_volt": cal.rotation_per_volt}


def cmd_montecarlo(args) -> dict:
    idx = _parse_mode(args.mode)
    epsilon = math.radians(args.epsilon_deg)
    budget = _budget(args)
    noise = NoiseModel(args.alpha0_rad, args.f_drive, args.electrical_v)
    alpha = args.alpha_rad
    if alpha is None:
        alpha = 2.0 * min_detectable_rotation(idx, epsilon, budget.photons)
    # the analytic reference guards the expansion: check it before simulating
    default = (ExpansionInvalidError,) if args.alpha_rad is None else ()
    with naming(_budget_flags(args, ("--mode", args.mode),
                              ("--epsilon-deg", args.epsilon_deg)),
                *default):  # name a default rotation's inputs
        reference = analytic_snr(idx, epsilon, alpha, budget,
                                 noise.dither_rad, noise.electrical_v)
    result = montecarlo_lockin(idx, epsilon, alpha, budget, noise,
                               seed=args.seed, trials=args.trials)
    header = [("# seed", result.seed), ("# mode", f"{idx.m},{idx.n}"),
              ("# alpha_rad", alpha), ("# analytic_snr", reference)]
    head = format_rows(header, " = ") + format_rows([("label", "snr")], ",")
    tail = format_rows([("mean", result.mean_snr), ("std", result.std_snr)],
                       ",")
    # the trial rows are most of the text: format_indexed's array kernel
    # takes the samples as they are
    _emit(args, "\n".join(head) + "\n",
          format_indexed("trial", result.samples, ","),
          "\n".join(tail) + "\n")
    return {**_budget_keys(epsilon, budget), "alpha_rad": alpha,
            "dither_rad": noise.dither_rad, "electrical_v": noise.electrical_v,
            "drive_frequency_hz": noise.drive_frequency,
            "seed": args.seed, "trials": args.trials}


def cmd_hologram(args) -> dict:
    idx = _parse_mode(args.mode)
    # the mask is streamed into a staged file, renamed into place after the
    # .fgrd or removed if a step fails
    with staged(args.out + ".pgm") as pgm:
        extracted = hologram_readout(idx, args.grid, args.grating_period,
                                     args.illum_scale, pgm)
        purity = mode_purity(extracted, idx)
        write_field_binary(args.out + ".fgrd", extracted)
    print(f"wrote {args.out}.pgm and {args.out}.fgrd")
    print(f"first-order purity: {purity:.6f}")
    return {"grid": args.grid, "grating_period_px": args.grating_period,
            "mode_m": idx.m, "mode_n": idx.n, "first_order_purity": purity,
            "illumination_scale": args.illum_scale}


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, its subparsers included, whose parse failures raise
    ConfigError, so that main prints one line and no usage block."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and shared by every
    later one, so a process that calls main more than once (perfbench, the
    tests) builds it once: no default it holds is mutable."""
    parser = _Parser(
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
                         help="override detected photons per window, "
                              "rescaling power (bounds: projective rows "
                              "only; the rest are per photon)")

    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config-out", default=None,
                        help="also dump resolved settings as key = value text")
    config.set_defaults(out_suffixes=("",))

    p_bounds = sub.add_parser(
        "bounds", parents=[physics, config],
        help="sweep precision bounds over pointer modes into a CSV")
    p_bounds.add_argument("--grid-max", type=int, default=10,
                          help="largest m and n for the carrier-readout grid")
    p_bounds.add_argument("--sweep-max", type=int, default=25,
                          help="largest diagonal order for the bound sweeps")
    p_bounds.add_argument("--alpha-rad", type=float, default=1e-3,
                          help="coupling strength for the breakdown family "
                               "(default 1e-3)")
    p_bounds.add_argument("--breakdown-epsilons", type=_parse_float_list,
                          default=(0.1, 0.05, 0.01),
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
    p_holo.set_defaults(handler=cmd_hologram, out_suffixes=(".pgm", ".fgrd"))
    # three subcommands share each physics flag's action: append once
    owners = {action: command for command, p in sub.choices.items()
              for action in p._actions}
    for action, command in owners.items():
        if text := domain(command, action.option_strings[0]):
            action.help = "; ".join(filter(None, (action.help, text)))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for path, suffixes in ((args.out, args.out_suffixes),
                               (args.config_out, ("",))):
            if path is not None:
                check_writable(path, suffixes)
        settings = args.handler(args)
        if args.config_out:
            write_run_config(args.config_out, settings)
        return 0
    except (HgSenseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {args.command} ran out of memory: {exc}",
              file=sys.stderr)
        return 2
    except Warning as exc:  # raised only where warnings are errors (-W error)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
