"""End-to-end command line checks through main(argv).

The golden table and bounds files freeze the table2 and bounds output byte
for byte; regenerating one is a deliberate act, not a side effect of other
edits.
"""

import argparse
import csv
import importlib
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
import warnings
from pathlib import Path

import numpy as np
import pytest

import hgsense
from hgsense import cli, errors, experiment, fields, fisher, weak
from hgsense.cli import main
from hgsense.errors import ConfigError, HgSenseError, SaturationWarning
from hgsense.modes import MAX_HERMITE_ORDER
from make_hologram_golden import BOUNDS_GOLDEN_ARGV, TEXT_CASES

GOLDEN_TABLE = Path(__file__).parent / "data" / "table2_golden.csv"
GOLDEN_BOUNDS = Path(__file__).parent / "data" / "bounds_golden.csv"


def test_table2_stdout_matches_golden(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert out == GOLDEN_TABLE.read_text()


def test_table2_out_file_matches_golden(tmp_path):
    target = tmp_path / "table.csv"
    assert main(["table2", "--out", str(target)]) == 0
    assert target.read_bytes() == GOLDEN_TABLE.read_bytes()


def test_table2_json_format(capsys):
    assert main(["table2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [row["m"] for row in rows] == [1, 3, 5]
    assert rows[0]["drive_v_reference"] == pytest.approx(0.801)
    assert rows[0]["alpha_min_rad"] == pytest.approx(3.4408231795e-06,
                                                     rel=1e-9)


def test_bounds_out_file_matches_golden(tmp_path):
    target = tmp_path / "bounds.csv"
    assert main(BOUNDS_GOLDEN_ARGV + ["--out", str(target)]) == 0
    assert target.read_bytes() == GOLDEN_BOUNDS.read_bytes()


def test_bounds_sweep_deterministic(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["bounds", "--grid-max", "3", "--sweep-max", "5"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    lines = first.read_text().splitlines()
    assert lines[0] == ("family,method,coupling,epsilon,"
                        "m,n,parameter,fisher_info,variance_bound")
    # 3x3 carrier grid + 6 orders x 3 variants x 3 parameters
    # + 3 epsilons x 5 orders x 2 methods
    assert len(lines) == 1 + 9 + 54 + 30
    families = {line.split(",")[0] for line in lines[1:]}
    assert families == {"projective", "hamiltonian", "postselection"}


def test_bounds_prints_the_exact_row_near_extinction_to_its_last_digit(
        tmp_path):
    # HG(3, 3) at a breakdown angle of 1e-6 rad: a 60-digit oracle gives
    # 0.16669543098485; a family formed from its cancelling branches prints
    # 0.166695429012, wrong from the 8th digit
    target = tmp_path / "bounds.csv"
    assert main(["bounds", "--sweep-max", "3", "--breakdown-epsilons",
                 "1e-6", "--out", str(target)]) == 0
    (row,) = [line for line in target.read_text().splitlines()
              if line.startswith("postselection,exact,oam,1e-06,3,3,")]
    assert row.split(",")[7] == "0.166695430985"


def _tie_margin(value: float) -> float:
    """Relative distance of a positive float from the nearest tie of its
    rounding to 12 significant digits, in exact rational arithmetic."""
    exact = Fraction(value)
    unit = Fraction(10) ** (Decimal(value).adjusted() - 11)
    steps = exact / unit
    return float(abs(steps - math.floor(steps) - Fraction(1, 2)) * unit
                 / exact)


def test_bounds_golden_exact_cells_keep_a_margin_to_rounding_ties(
        tmp_path, monkeypatch):
    # the exact cells follow LAPACK's eigh, whose last bits move by up to
    # 8.9e-16 relative between OpenBLAS core types: each golden run's cell
    # must lie 2e-15 relative or more from a 12-digit rounding tie, so every
    # runner prints it alike. Nearest: the default run's HG(13, 13) at
    # eps 0.05, 2.75e-15; the golden-argument run's, 1.04e-14
    runs, sweep = [], cli.bound_rows
    monkeypatch.setattr(cli, "bound_rows",
                        lambda *args: runs.append(sweep(*args)) or runs[-1])
    margins = {}
    for argv in (TEXT_CASES["bounds, defaults"],
                 TEXT_CASES["bounds at one photon a window"],
                 BOUNDS_GOLDEN_ARGV):
        assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
        cells = [(row[3], row[4], _tie_margin(row[-1])) for row in runs[-1]
                 if row[:2] == ("postselection", "exact")]
        assert cells
        margins[tuple(argv)] = min(cells, key=lambda cell: cell[2])
    assert len(runs) == 3
    for argv, (eps, order, margin) in margins.items():
        assert margin >= 2e-15, (argv, eps, order, margin)


def test_bounds_empty_sweep_fails(tmp_path, capsys):
    # only a negative limit empties every family, and it is refused by name
    code = main(["bounds", "--grid-max", "0", "--sweep-max", "-1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err == ("error: --sweep-max -1 must be finite "
                                       "and lie in [0, inf)\n")
    assert list(tmp_path.iterdir()) == []


def test_bounds_refuses_unsupported_order_before_sweeping(
        tmp_path, capsys, monkeypatch):
    # the breakdown family cannot build an order past MAX_HERMITE_ORDER, nor
    # select at an angle outside its table interval, which --epsilon-deg
    # refuses too (-0.1 would repeat the rows of 0.1), and the carrier grid
    # stops at the same order, its first refused cell (1, past) named as
    # when every cell was checked: all are refused before anything evolves,
    # so neither the carrier grid's oam_variance nor the Hamiltonian
    # family's momentum_variance_x may run.
    def no_sweep(*args, **kwargs):
        pytest.fail("bounds swept before the breakdown inputs were checked")

    monkeypatch.setattr(fisher, "oam_variance", no_sweep)
    monkeypatch.setattr(fisher, "momentum_variance_x", no_sweep)
    monkeypatch.setattr(fisher, "rotation_family_eigenbasis", no_sweep)
    monkeypatch.setattr(weak.Generator, "evolve", no_sweep)
    past = MAX_HERMITE_ORDER + 1
    top, cell = f"({past}, {past})", f"mode (1, {past}) above"
    for flags, needle in ((["--sweep-max", str(past)], top),
                          (["--sweep-max", "80"], top),
                          (["--grid-max", str(past)], cell),
                          (["--grid-max", "80"], cell),
                          (["--breakdown-epsilons", "0"],
                           "--breakdown-epsilons angle 0.0 must"),
                          (["--breakdown-epsilons", "0.1,5"],
                           "--breakdown-epsilons angle 5.0 must"),
                          # "-0.1,0.1" alone would parse as an option
                          (["--breakdown-epsilons=-0.1,0.1"],
                           "--breakdown-epsilons angle -0.1 must")):
        assert main(["bounds", *flags,
                     "--out", str(tmp_path / "b.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


def test_bounds_checks_each_order_limit_once(tmp_path, monkeypatch):
    # the sweep's pointers are the ModeIndex objects the exact QFI reads;
    # the carrier grid's limit is checked once, and no row builds one
    built = []
    check = cli.ModeIndex.__post_init__
    monkeypatch.setattr(cli.ModeIndex, "__post_init__",
                        lambda idx: built.append((idx.m, idx.n)) or check(idx))
    assert main(["bounds", "--grid-max", "7", "--sweep-max", "16",
                 "--out", str(tmp_path / "b.csv")]) == 0
    assert built == [(o, o) for o in range(1, 17)] + [(1, 7)]


def test_bounds_photon_override(tmp_path):
    # projective rows are at the run's photon budget and every other row is
    # per photon, so a second budget moves the projective rows alone
    runs = []
    for photons in ("1e6", "2e6"):
        out = tmp_path / f"b{photons}.csv"
        cfg = tmp_path / f"run{photons}.cfg"
        assert main(["bounds", "--grid-max", "2", "--sweep-max", "2",
                     "--photons", photons, "--out", str(out),
                     "--config-out", str(cfg)]) == 0
        settings = dict(line.split(" = ") for line in
                        cfg.read_text().splitlines())
        assert float(settings["photons"]) == pytest.approx(float(photons),
                                                           rel=1e-9)
        assert float(settings["epsilon_rad"]) == pytest.approx(
            math.radians(5.0))
        runs.append((float(settings["photons"]),
                     float(settings["epsilon_rad"]),
                     out.read_text().splitlines()))
    (n1, eps, first), (n2, _, second) = runs
    assert first[0] == second[0] and len(first) == len(second)
    columns = first[0].split(",")
    families = []
    for line1, line2 in zip(first[1:], second[1:]):
        row1, row2 = (dict(zip(columns, line.split(",")))
                      for line in (line1, line2))
        families.append(row1["family"])
        if row1["family"] != "projective":
            assert line1 == line2
            continue
        assert float(row2["fisher_info"]) == pytest.approx(
            float(row1["fisher_info"]) * n2 / n1, rel=1e-11)
        for row, n_photons in ((row1, n1), (row2, n2)):
            idx = hgsense.ModeIndex(int(row["m"]), int(row["n"]))
            # the CSV keeps 12 digits
            assert float(row["variance_bound"]) == pytest.approx(
                hgsense.min_detectable_rotation(idx, eps, n_photons) ** 2,
                rel=1e-11)
    assert families.count("projective") == 4 and len(set(families)) == 3


@pytest.mark.parametrize("argv", [
    ["table2"],
    ["montecarlo", "--mode", "1,1", "--trials", "10"],
    ["bounds", "--grid-max", "2", "--sweep-max", "2"],
])
def test_power_that_photons_replace_is_not_checked_for_saturation(argv,
                                                                  tmp_path):
    # --photons sets the power the run uses (about 9.4e-11 W here), so a
    # saturating --power-w neither warns nor changes a byte
    written = []
    for power in (["--power-w", "1e-6"], []):
        out = tmp_path / f"run{len(written)}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, *power, "--photons", "4.04e7",
                         "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_a_warning_raised_as_an_error_is_one_error_line(capsys):
    argv = ["table2", "--photons", "1e300"]  # a power far past saturation
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SaturationWarning: power ")
    assert captured.err.count("\n") == 1
    src = os.path.dirname(os.path.dirname(hgsense.__file__))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "hgsense",
                           *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == captured.err
    # without -W error the run warns once and succeeds, as it always has
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 0
    assert [w.category for w in caught] == [SaturationWarning]


def test_montecarlo_stdout(capsys):
    assert main(["montecarlo", "--mode", "1,1", "--trials", "10",
                 "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# seed = 5"
    assert lines[1] == "# mode = 1,1"
    assert lines[2].startswith("# alpha_rad = ")
    assert lines[3].startswith("# analytic_snr = ")
    # default rotation is twice the minimum detectable one
    assert float(lines[3].split(" = ")[1]) == pytest.approx(2.0, rel=1e-9)
    assert lines[4] == "label,snr"
    assert lines[5].startswith("trial0000,")
    assert lines[-2].startswith("mean,")
    assert lines[-1].startswith("std,")
    assert len(lines) == 5 + 10 + 2


@pytest.mark.parametrize("noise", [[], ["--electrical-v", "3e-5"]])
def test_montecarlo_short_csv_is_a_prefix_of_a_long_one(noise, tmp_path,
                                                        capsys):
    argv = ["montecarlo", "--mode", "2,3", "--seed", "11", *noise]
    assert main(argv + ["--trials", "10"]) == 0
    short = capsys.readouterr().out.splitlines()
    assert main(argv + ["--trials", "10001"]) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "mc.csv"
    assert main(argv + ["--trials", "10001", "--out", str(target)]) == 0
    # as lists of lines, kept ends and all: a failure names the first one
    assert (target.read_bytes().splitlines(keepends=True)
            == stdout.encode().splitlines(keepends=True))
    long = stdout.splitlines()
    # the header, label row and the ten trials, then the widened last label
    assert long[:15] == short[:15]
    assert short[15].startswith("mean,") and len(short) == 17
    assert long[-3].startswith("trial10000,") and len(long) == 5 + 10001 + 2


def test_montecarlo_out_and_config(tmp_path):
    out = tmp_path / "mc.csv"
    cfg = tmp_path / "mc.cfg"
    assert main(["montecarlo", "--mode", "3,3", "--trials", "10",
                 "--seed", "9", "--alpha-rad", "1e-6",
                 "--out", str(out), "--config-out", str(cfg)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "# seed = 9"
    assert text[4] == "label,snr"
    settings = dict(line.split(" = ") for line in cfg.read_text().splitlines())
    assert settings["seed"] == "9"
    assert settings["trials"] == "10"
    assert float(settings["alpha_rad"]) == pytest.approx(1e-6)
    assert list(settings) == sorted(settings)


@pytest.mark.parametrize("argv", [
    ["table2", "--power-w", "nan"],
    ["table2", "--tau-s", "inf"],
    ["montecarlo", "--mode", "1,1", "--tau-s", "inf", "--trials", "10"],
])
def test_non_finite_photon_budget_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv, flag", [
    (["table2", "--power-w", "1e-300"], "--power-w 1e-300"),
    (["table2", "--photons", "1e-300"], "--photons 1e-300"),
    (["table2", "--wavelength-m", "5e-324"], "--wavelength-m 5e-324"),
    (["montecarlo", "--mode", "1,1", "--tau-s", "1e-300", "--trials", "10"],
     "--tau-s 1e-300"),
    (["montecarlo", "--mode", "1,1", "--photons", "0.5", "--trials", "10"],
     "--photons 0.5"),
])
def test_budget_below_one_photon_per_window_exits_2(argv, flag, capsys):
    # finite results outside any physical domain (a minimum detectable
    # rotation of 1e139 rad and more) are refused, naming the flag and the
    # photons per window
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert flag in captured.err
    assert "detected photons per window" in captured.err


def test_one_photon_per_window_survives_its_round_trip(tmp_path, capsys):
    # --photons 1 becomes a power, which the budget turns back one ulp short
    # of one photon at this window: that rounding is not a refusal
    argv = ["bounds", "--grid-max", "2", "--sweep-max", "2",
            "--tau-s", "0.13366834170854272", "--out", str(tmp_path / "b.csv"),
            "--config-out", str(tmp_path / "b.cfg")]
    assert main(argv + ["--photons", "1"]) == 0
    assert capsys.readouterr().err == ""
    assert "photons = 0.9999999999999998\n" in (tmp_path / "b.cfg").read_text()
    assert main(argv + ["--photons", "0.5"]) == 2
    assert "detected photons per window 0.49" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flags", [
    (["table2", "--photons", "2"], "--epsilon-deg 5.0, --photons 2.0, "),
    (["table2", "--epsilon-deg", "80", "--photons", "5"],
     "--epsilon-deg 80.0, --photons 5.0, "),
    (["table2", "--photons", "20"], "--epsilon-deg 5.0, --photons 20.0, "),
])
def test_table2_refuses_a_rotation_outside_the_first_order(argv, flags,
                                                           capsys):
    # a finite table row of 0.0155 rad (two photons), 0.634 rad (80 deg,
    # five photons) or 0.0049 rad (twenty photons) breaks x = |alpha cot eps|
    # sqrt(2mn+m+n) = 1 / (2 sqrt N) < WEAK_LIMIT, which refuses N <= 25;
    # twenty photons' rotation is past MAX_ROTATION_PER_DITHER of the dither
    # depth too
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        f"error: {flags}--tau-s 0.10908, --wavelength-m 7.8e-07: mode (1, 1) "
        "minimum detectable rotation ")
    ratio = experiment.MAX_ROTATION_PER_DITHER
    assert (f"lie in [0.0, {weak.WEAK_LIMIT})" in captured.err
            or f"|rotation| must be at most {ratio} dither" in captured.err)
    # montecarlo's default rotation, twice the table's, stays refused too,
    # naming the flags it was derived from
    assert main(["montecarlo", "--mode", "1,1", "--photons", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --mode 1,1, --epsilon-deg 5.0, --photons "
                          "2.0, --tau-s 0.10908, --wavelength-m 7.8e-07: "
                          "rotation ")
    assert "not small against the dither" in err


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hgsense.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # nor numpy.polynomial: the J1 inverse's coefficients are literals; and
    # with warnings as errors, the import warns of nothing
    code = ("import sys, hgsense, hgsense.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))")
    out = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         check=True, capture_output=True, text=True,
                         timeout=60).stdout
    assert out.strip() == "[]"


def test_every_traced_name_resolves_to_a_package_callable():
    # the bench tracer wraps hgsense functions by module and name; a name
    # deleted from the package breaks its traced runs. tracer.py imports
    # only the stdlib at module level
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = tracer.function_names()
    assert names
    missing = [name for name in names if not callable(getattr(
        importlib.import_module("hgsense." + name.split(".")[0]),
        name.split(".")[1], None))]
    assert missing == []


@pytest.mark.parametrize("text", ["1,", "1,x", "banana", "1,2,3"])
def test_malformed_mode_is_a_config_error(text):
    with pytest.raises(ConfigError) as exc:
        cli._parse_mode(text)
    assert str(exc.value) == f"--mode expects 'm,n', got {text!r}"


@pytest.mark.parametrize("power, count", [("1e4", "8.877320383096206e+19"),
                                          ("1e6", "8.877320383096207e+21")])
def test_montecarlo_refuses_a_window_count_float64_cannot_hold(power, count,
                                                               capsys):
    # such a window's counts lose integer precision in float64 and their
    # sum overflows int64; the run is refused before any draw
    with pytest.warns(SaturationWarning):
        assert main(["montecarlo", "--mode", "1,1", "--power-w", power,
                     "--trials", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        f"error: expected photons a window {count} must be finite and lie "
        f"in [0, {experiment.MAX_WINDOW_COUNTS}]")


def test_montecarlo_rejects_bad_modes(capsys):
    assert main(["montecarlo", "--mode", "0,0", "--trials", "10"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["montecarlo", "--mode", "banana", "--trials", "10"]) == 2
    assert main(["montecarlo", "--mode", "1,1", "--trials", "3"]) == 2


def test_hologram_writes_outputs(tmp_path, capsys):
    stem = tmp_path / "holo"
    cfg = tmp_path / "holo.cfg"
    assert main(["hologram", "--mode", "2,2", "--grid", "256",
                 "--out", str(stem), "--config-out", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {stem}.pgm and {stem}.fgrd" in out
    purity_line = [l for l in out.splitlines()
                   if l.startswith("first-order purity:")][0]
    assert float(purity_line.split(":")[1]) >= 0.99
    pgm = Path(str(stem) + ".pgm").read_bytes()
    assert pgm.startswith(b"P5\n256 256\n255\n")
    fgrd = Path(str(stem) + ".fgrd").read_bytes()
    assert fgrd[:4] == b"FGRD"
    settings = dict(line.split(" = ") for line in cfg.read_text().splitlines())
    assert float(settings["first_order_purity"]) >= 0.99


@pytest.mark.parametrize("side, purity", [(256, "0.986747"),
                                          (512, "0.999864")])
def test_hologram_peak_is_the_output_grid_plus_the_pinhole_band(
        side, purity, tmp_path, capsys):
    # the mask is streamed from the 1-D factors into the staged file, so the
    # one full grid is the output: the declared peak is that grid plus the
    # larger of the pinhole band (side^2 / P samples) and the power sum's
    # leaf run (0.125 MiB); measured 1.16 grids at 256 px and 1.08 at
    # 512 px. The bound allows the band and 0.4 MiB more, so about 0.3 of a
    # grid more breaks it at 256 px and about a tenth at 512 px. A 128 px
    # run first takes the one-time allocations (about 0.2 MiB) out of it
    assert main(["hologram", "--mode", "1,1", "--grid", "128",
                 "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(["hologram", "--mode", "3,3", "--grid", str(side),
                     "--out", str(tmp_path / "holo")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * side ** 2 * (1 + 1 / 16) + 0.4 * 2 ** 20
    assert f"first-order purity: {purity}" in capsys.readouterr().out


@pytest.mark.parametrize("argv, name", [
    (["montecarlo", "--mode", "1,1", "--seed", "-1"], "seed -1"),
    (["hologram", "--mode", "1,"], "--mode expects 'm,n', got '1,'"),
    (["hologram", "--mode", "1,x"], "--mode expects 'm,n', got '1,x'"),
    # parse failures: one line, no usage block
    (["bounds", "--breakdown-epsilons", "x"], "argument --breakdown-epsilons: "
     "expected a comma-separated float list, got 'x'"),
    (["montecarlo", "--mode", "1,1", "--seed", "x"],
     "argument --seed: invalid int value: 'x'"),
    # a negative sweep limit would drop whole families from the CSV
    (["bounds", "--grid-max", "-2", "--sweep-max", "1"], "--grid-max -2"),
    (["bounds", "--sweep-max", "-3"], "--sweep-max -3"),
])
def test_refusal_names_the_input(argv, name, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x"),
                        "--config-out", str(tmp_path / "c.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {name}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command",
                         [["bounds"], ["hologram", "--mode", "1,1"]])
def test_missing_out_is_one_error_line(command, tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    assert main([*command, "--config-out", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("error: the following arguments are required: "
                            "--out\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def _subparsers():
    """{subcommand: its parser}."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def _entry(command, flag):
    """The table's entry for flag in command, or None."""
    return cli.DOMAINS.get(f"{command} {flag}", cli.DOMAINS.get(flag))


def _help_entries(text: str) -> dict:
    """Each option of a --help text by its first flag, its lines joined and
    its whitespace folded."""
    entries = {}
    for line in text.splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = ""
        if line.startswith("  ") and entries:
            entries[flag] += " " + line
    return {flag: " ".join(entry.split()) for flag, entry in entries.items()}


@pytest.mark.parametrize("command", [None, "bounds", "table2", "montecarlo",
                                     "hologram"])
def test_help_still_exits_0(command, capsys):
    # a subcommand's help ends each flag's line with its table text, and
    # every numeric flag has an entry
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: hgsense {command or ''}".rstrip())
    if command is None:
        return
    entries = _help_entries(out)
    stated = []
    for action in _subparsers()[command]._actions:
        flag = action.option_strings[0]
        if _entry(command, flag) is None:
            assert action.type not in (int, float, cli._parse_float_list)
            continue
        text = " ".join(cli.domain(command, flag).split())
        assert entries[flag].endswith(text), (entries[flag], text)
        stated.append(flag)
    assert stated


def test_every_table_key_names_a_flag_of_its_subcommand():
    parsers = _subparsers()
    flags = {(command, action.option_strings[0])
             for command, parser in parsers.items()
             for action in parser._actions}
    for key in cli.DOMAINS:
        *command, flag = key.split()
        assert any((c, flag) in flags for c in command or parsers), key


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main(BOUNDS_GOLDEN_ARGV + ["--out", str(first)]) == 0
    assert main(["hologram", "--mode", "1,1", "--grid", "128",
                 "--out", str(tmp_path / "holo")]) == 0
    assert main(["bounds", "--breakdown-epsilons", "x",
                 "--out", str(tmp_path / "refused.csv")]) == 2
    assert main(BOUNDS_GOLDEN_ARGV + ["--out", str(again)]) == 0
    assert first.read_bytes() == GOLDEN_BOUNDS.read_bytes()
    assert again.read_bytes() == GOLDEN_BOUNDS.read_bytes()
    assert cli.build_parser() is cli.build_parser()
    # a tuple: no parse can change the default the next one hands out
    assert cli.build_parser().parse_args(
        ["bounds", "--out", "x"]).breakdown_epsilons == (0.1, 0.05, 0.01)
    assert not (tmp_path / "refused.csv").exists()


def test_hologram_rejects_tight_grating(tmp_path, capsys):
    assert main(["hologram", "--mode", "1,1", "--grating-period", "2",
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("side", [0, -4, fields.MIN_SIDE - 1,
                                  fields.MAX_SIDE + 1])
def test_hologram_rejects_grid_side_before_allocating(
        side, tmp_path, capsys, monkeypatch):
    def no_axis(*args):  # the first array a synthesis builds
        pytest.fail("grid axis built before the side was checked")

    monkeypatch.setattr(fields, "_axis", no_axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a 2nd line
        assert main(["hologram", "--mode", "1,1", f"--grid={side}",
                     "--out", str(tmp_path / "x"),
                     "--config-out", str(tmp_path / "c.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: grid side {side} must be finite and lie "
                            f"in [{fields.MIN_SIDE}, {fields.MAX_SIDE}]\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("grid, period", [
    (512, 2.0), (512, 257.0), (fields.MAX_SIDE, 2.0),
    (fields.MIN_SIDE, math.nextafter(fields.MIN_GRATING_PX, 0.0)),
    (fields.MIN_SIDE, math.nextafter(fields.MIN_SIDE / 2, math.inf))])
def test_hologram_rejects_grating_period_before_allocating(
        grid, period, tmp_path, capsys, monkeypatch):
    def no_axis(*args):  # the first array a synthesis builds
        pytest.fail("grid axis built before the grating period was checked")

    monkeypatch.setattr(fields, "_axis", no_axis)
    assert main(["hologram", "--mode", "3,3", "--grid", str(grid),
                 "--grating-period", repr(period),
                 "--out", str(tmp_path / "x"),
                 "--config-out", str(tmp_path / "c.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: grating period in px {period} must be "
                            f"finite and lie in [{fields.MIN_GRATING_PX}, "
                            f"{grid / 2}]\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


_NO_MEMORY = ("Unable to allocate 256. MiB for an array with shape "
              "(4096, 4096) and data type complex128")


@pytest.mark.parametrize("argv, owner, name", [
    # the first array the largest synthesis builds: nothing large is allocated
    (["hologram", "--mode", "3,3", "--grid", str(fields.MAX_SIDE)], fields,
     "_axis"),
    (["bounds", "--grid-max", "2", "--sweep-max", "2"], fisher, "weak_fisher"),
    (["bounds", "--grid-max", "2", "--sweep-max", "2"], fisher,
     "qfi_rotation_exact_selections"),
    (["montecarlo", "--mode", "1,1", "--trials", "10"], cli,
     "montecarlo_lockin"),
    (["table2"], cli, "sensitivity_table"),
    # with the mask staged, before and after it is written: no .pgm and no
    # temp file may stay behind
    (["hologram", "--mode", "3,3", "--grid", "128"], cli, "hologram_readout"),
    (["hologram", "--mode", "3,3", "--grid", "128"], cli, "mode_purity"),
])
def test_out_of_memory_is_one_error_line_naming_the_command(
        argv, owner, name, tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError(_NO_MEMORY)

    monkeypatch.setattr(owner, name, exhausted)
    assert main(argv + ["--out", str(tmp_path / "x"),
                        "--config-out", str(tmp_path / "c.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: {argv[0]} ran out of memory: "
                            f"{_NO_MEMORY}\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["hologram", "--mode", "1,1", "--grating-period", "nan"],
    ["hologram", "--mode", "1,1", "--grating-period", "inf"],
    ["hologram", "--mode", "1,1", "--illum-scale", "nan"],
    ["montecarlo", "--mode", "1,1", "--f-drive", "nan", "--trials", "10"],
    ["montecarlo", "--mode", "1,1", "--alpha0-rad", "nan", "--trials", "10"],
    ["montecarlo", "--mode", "1,1", "--electrical-v", "nan", "--trials", "10"],
    ["table2", "--volts-per-rad-cal", "nan"],
    ["montecarlo", "--mode", "1,1", "--alpha-rad", "nan", "--trials", "10"],
    # no breakdown row is built at --sweep-max 0, so nothing else sees alpha
    ["bounds", "--grid-max", "2", "--sweep-max", "0", "--alpha-rad", "nan",
     "--config-out", "{tmp}/c.cfg"],
])
def test_non_finite_physics_inputs_exit_2(argv, tmp_path, capsys):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a 2nd line
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "finite" in captured.err  # names the cause, not a symptom
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scale, cause", [
    ("1e-9", "gaussian illumination has power 0.0 must be finite and "
             "positive"),  # underflow
    ("1e-160", "gaussian illumination has power 0.0 must be finite and "
               "positive"),  # overflow
    ("1e-300", "sigma0 1e-300 must be positive with a finite, nonzero"),
    ("1e160", "sigma0 1e+160 must be positive with a finite, nonzero"),
])
def test_hologram_refuses_illumination_out_of_range(scale, cause, tmp_path,
                                                    capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a 2nd line
        assert main(["hologram", "--mode", "3,3", "--grid", "128",
                     "--illum-scale", scale, "--out", str(tmp_path / "x"),
                     "--config-out", str(tmp_path / "c.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {cause}")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_montecarlo_checks_expansion_before_simulating(monkeypatch, tmp_path,
                                                       capsys):
    def no_simulation(*args, **kwargs):
        pytest.fail("trials simulated before the analytic guard")

    monkeypatch.setattr(cli, "montecarlo_lockin", no_simulation)
    assert main(["montecarlo", "--mode", "1,1", "--alpha-rad", "1e-3",
                 "--out", str(tmp_path / "mc.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rotation 0.001 not small against the dither")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ["--epsilon-deg", "nan"],
    ["--epsilon-deg", "0"],
    ["--epsilon-deg", "90"],
    ["--alpha-rad", "nan"],
    ["--alpha-rad", "inf"],
    ["--breakdown-epsilons", "nan"],
    ["--breakdown-epsilons", "5"],
    ["--breakdown-epsilons", "-0.1"],
    ["--alpha-rad", "1e308"],
])
def test_bounds_rejects_bad_angle_or_coupling(flags, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a 2nd line
        assert main(["bounds", "--grid-max", "2", "--sweep-max", "2",
                     "--out", str(tmp_path / "b.csv")] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (["--alpha-rad", "1e308", "--sweep-max", "2"],
     "alpha 1e+308 times a generator eigenvalue in"),
    (["--breakdown-epsilons", "5"], "--breakdown-epsilons angle 5.0 must"),
])
def test_bounds_refusal_is_one_line_under_warnings_as_errors(
        flags, message, tmp_path):
    # a fresh interpreter under -W error: an overflowing phase used to reach
    # np.exp and end in a RuntimeWarning traceback
    src = os.path.dirname(os.path.dirname(hgsense.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hgsense", "bounds", *flags,
         "--out", str(tmp_path / "b.csv")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {message}"), proc.stderr
    assert proc.stderr.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_failed_hologram_keeps_an_existing_mask(tmp_path, capsys,
                                               monkeypatch):
    def disk_full(*args, **kwargs):
        raise OSError("disk full")

    old = tmp_path / "holo.pgm"
    old.write_bytes(b"old mask")
    monkeypatch.setattr(cli, "write_field_binary", disk_full)
    assert main(["hologram", "--mode", "3,3", "--grid", "128",
                 "--out", str(tmp_path / "holo")]) == 2
    assert capsys.readouterr().err == "error: disk full\n"
    assert old.read_bytes() == b"old mask"
    assert list(tmp_path.iterdir()) == [old]


def _no_work(*args, **kwargs):
    pytest.fail("computed before the output path was checked")


@pytest.mark.parametrize("argv, name", [
    (["table2"], "sensitivity_table"),
    (["bounds", "--sweep-max", "20"], "weak_fisher"),
    (["bounds", "--sweep-max", "20"], "qfi_rotation_exact_selections"),
    (["montecarlo", "--mode", "1,1"], "montecarlo_lockin"),
    (["hologram", "--mode", "3,3", "--grid", "2048"], "hologram_readout"),
])
@pytest.mark.parametrize("flag", ["--out", "--config-out"])
@pytest.mark.parametrize("where, problem", [
    ("missing/x", "directory {parent} does not exist"),
    ("file/x", "directory {parent} is not a directory"),
    ("locked/x", "directory {parent} is not writable"),
    # hologram's --out is a stem: it writes dir.pgm, a directory here
    ("dir", "it is a directory"), ("", "the path is empty")])
def test_unwritable_output_is_refused_before_any_work(
        argv, name, flag, where, problem, tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("")  # a file where a directory should be
    (tmp_path / "locked").mkdir()  # denied below: root may write anywhere
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir.pgm").mkdir()
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode: (
        os.path.basename(path) != "locked" and access(path, mode)))
    # the bounds table's sweeps run inside fisher.bound_rows
    monkeypatch.setattr(fisher if argv[0] == "bounds" else cli, name, _no_work)
    bad = str(tmp_path / where) if where else ""
    outs = {"--out": str(tmp_path / "out"),
            "--config-out": str(tmp_path / "c.cfg"), flag: bad}
    assert main(argv + [a for kv in outs.items() for a in kv]) == 2
    named = bad or "''"
    if (argv[0], flag, where) == ("hologram", "--out", "dir"):
        named += ".pgm"
    captured = capsys.readouterr()
    assert captured.err == (f"error: cannot write {named}: "
                            f"{problem.format(parent=os.path.dirname(bad))}\n")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dir", "dir.pgm", "file", "locked"]


@pytest.mark.parametrize("argv", [
    ["table2", "--format", "json"],  # the CSV form is pinned by the golden file
    ["montecarlo", "--mode", "3,3", "--trials", "10", "--seed", "4",
     "--electrical-v", "3e-5"],
])
def test_stdout_equals_out_file(argv, tmp_path, capsys):
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert main(argv + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == stdout.encode()


# the small sweep, trial count and grid each subcommand runs at
SWEEP_ARGV = {"bounds": ["--grid-max", "2", "--sweep-max", "2"],
              "table2": [],
              "montecarlo": ["--mode", "1,1", "--trials", "10"],
              "hologram": ["--mode", "1,1", "--grid", "128"]}


def _flags(*types):
    """(subcommand, flag) for every flag the parser reads with one of types."""
    return [(command, action.option_strings[0])
            for command, parser in _subparsers().items()
            for action in parser._actions if action.type in types]


def _ends(command, flag):
    """(bound, outward, closed) for each finite end of the table interval of
    flag in command; outward is -1 at the low end and 1 at the high end."""
    entry = _entry(command, flag)
    if not isinstance(entry, tuple):  # a rule alone
        return []
    lo, hi, ends, *_ = entry
    return [(bound, outward, end in "[]") for bound, outward, end in
            ((lo, -1, ends[0]), (hi, 1, ends[1])) if math.isfinite(bound)]


def _outside(command, flag, value) -> bool:
    """Whether value lies outside the table interval of flag in command."""
    return any(value * outward > bound * outward
               or (value == bound and not closed)
               for bound, outward, closed in _ends(command, flag))


def _numeric_rows(text: str):
    """Each row of a CSV output, '# key = value' lines included, as a dict
    of the cells that read as numbers."""
    lines = text.splitlines()
    rows = [dict([line[2:].split(" = ")]) for line in lines
            if line.startswith("# ")]
    rows += csv.DictReader(line for line in lines if not line.startswith("# "))
    for row in rows:
        numbers = {}
        for column, cell in row.items():
            try:
                numbers[column] = float(cell)
            except ValueError:  # a label, or an empty angle
                continue
        yield numbers


def _assert_finite_run_or_one_error_line(command, code, err, tmp_path):
    """Exit 2 with one error line and nothing written, or exit 0 with every
    number of the run's settings and CSV output finite but the inf bound of
    a zero Fisher information."""
    if code == 2:
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        return
    assert code == 0 and err == ""
    cfg = (tmp_path / "run.cfg").read_text()
    settings = dict(line.split(" = ") for line in cfg.splitlines())
    assert all(math.isfinite(float(v)) for v in settings.values()), settings
    if command != "hologram":
        out = (tmp_path / "out").read_text()
        assert "nan" not in out
        # every number is finite but the bound of a zero Fisher information
        for row in _numeric_rows(out):
            assert all(math.isfinite(v) for k, v in row.items()
                       if (k, v, row.get("fisher_info")) != (
                           "variance_bound", math.inf, 0.0)), row


def _run_flag(command, flag, value, tmp_path, capsys, *extra):
    """main on the subcommand's small run, then extra, with flag=value; its
    exit code and stderr. No warning but a saturation one may escape."""
    # --flag=value form: a bare -inf would parse as an option
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, *SWEEP_ARGV[command], *extra, f"{flag}={value}",
                     "--out", str(tmp_path / "out"),
                     "--config-out", str(tmp_path / "run.cfg")])
    assert [w.message for w in caught
            if w.category is not SaturationWarning] == []
    return code, capsys.readouterr().err


FLOAT_VALUES = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "5e-324"]


def _float_values(command, flag):
    """FLOAT_VALUES, then each finite end of the table interval and one ulp
    past it where it is closed."""
    probes = [float(bound) for bound, _, _ in _ends(command, flag)]
    probes += [math.nextafter(bound, outward * math.inf)
               for bound, outward, closed in _ends(command, flag) if closed]
    known = set(map(float, FLOAT_VALUES))
    return FLOAT_VALUES + [repr(v) for v in dict.fromkeys(probes)
                           if v not in known]


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value)
    for command, flag in _flags(float, cli._parse_float_list)
    for value in _float_values(command, flag)])
def test_every_float_flag_gives_a_finite_run_or_one_error_line(
        command, flag, value, tmp_path, capsys):
    code, err = _run_flag(command, flag, value, tmp_path, capsys)
    if value in ("nan", "inf", "-inf"):  # refused, naming the cause
        assert code == 2 and "finite" in err, err
    # outside the table interval is refused, but one ulp under MIN_PHOTONS:
    # a count --photons sets comes back from its power up to 2 ulp short
    if _outside(command, flag, float(value)) and flag != "--photons":
        assert code == 2, err
    _assert_finite_run_or_one_error_line(command, code, err, tmp_path)


def _int_values(command, flag):
    """-1, 0 and 10**30, each finite low end of the table interval +-1 and
    one past each finite high end: the accepted values at a high end are
    too slow for the suite (a MAX_SIDE grid, a MAX_HERMITE_ORDER sweep), and
    test_each_table_bound_is_where_the_library_starts_to_refuse accepts
    them through the library."""
    values = {-1, 0, 10 ** 30}
    for bound, outward, _ in _ends(command, flag):
        values |= {bound - 1, bound, bound + 1} if outward < 0 else {bound + 1}
    return sorted(values)


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, value) for command, flag in _flags(int)
    for value in _int_values(command, flag)])
def test_every_int_flag_gives_a_finite_run_or_one_error_line(
        command, flag, value, tmp_path, capsys):
    code, err = _run_flag(command, flag, value, tmp_path, capsys)
    if _outside(command, flag, value):
        assert code == 2, err
    _assert_finite_run_or_one_error_line(command, code, err, tmp_path)


def _table_ends():
    """(command, flag, bound, outward, closed) for each finite end of each
    table interval, in the first subcommand that takes the flag."""
    first = {}
    for command, flag in _flags(int, float, cli._parse_float_list):
        first.setdefault(flag, command)
    return [(command, flag, *end) for flag, command in first.items()
            for end in _ends(command, flag)]


# what refuses the first value outside each end of a flag's table interval,
# as the message names it ({v} is the value), one for both ends or a pair
REFUSED = {
    "--grid": "grid side {v} must",
    "--grid-max": ("--grid-max {v} must", "mode (1, {v}) above"),
    "--sweep-max": ("--sweep-max {v} must", "mode ({v}, {v}) above"),
    "--trials": "trials {v} must",
    "--seed": "seed {v} must",
    "--epsilon-deg": "post-selection angle",
    "--breakdown-epsilons": "--breakdown-epsilons angle {v} must",
    "--alpha0-rad": ("dither {v} must", "dither depth {v} must"),
    "--electrical-v": "electrical noise {v} must",
    "--photons": "detected photons per window",
    "--power-w": "power {v} must",
    "--tau-s": "integration {v} must",
    "--wavelength-m": "wavelength {v} must",
    "--f-drive": "drive frequency {v} must",
    "--volts-per-rad-cal": "--volts-per-rad-cal {v} must",
    "--illum-scale": "sigma0 {v} must",
}
# the accepted high ends too slow for a run, each through the cheapest
# library call that applies the flag's check
HIGH_END_ACCEPTED = {
    "--grid": fields.check_side,
    # the carrier grid's first cell, and the sweep's last pointer
    "--grid-max": lambda order: hgsense.ModeIndex(1, order),
    "--sweep-max": lambda order: hgsense.ModeIndex(order, order),
    "--trials": lambda trials: hgsense.montecarlo_lockin(
        hgsense.ModeIndex(1, 1), math.radians(5.0), 1e-6, trials=trials),
}
# HG(1, 0)'s rate deficit alpha0^2 / 3 stays under DITHER_DEFICIT_LIMIT up
# to the dither cap, so the cap is the rule that refuses there
EXTRA_ARGV = {"--alpha0-rad": ["--mode", "1,0"]}


@pytest.mark.parametrize("command, flag, bound, outward, closed",
                         _table_ends())
def test_each_table_bound_is_where_the_library_starts_to_refuse(
        command, flag, bound, outward, closed, tmp_path, capsys):
    # one step past the bound is refused through the command line, by the
    # check REFUSED names; the last value inside is accepted. An open end
    # at zero is refused at zero: just inside it the smallest float gives
    # derived values (a cot^2, a photon count, an inverse) out of range
    integral = (command, flag) in _flags(int)
    if integral or not closed:
        past = bound + outward if integral else float(bound)
    elif flag == "--photons":  # past the budget's 2 ulp rounding allowance
        past = bound - 4 * math.ulp(bound)
    else:
        past = math.nextafter(bound, outward * math.inf)
    text = str(past) if integral else repr(past)
    extra = EXTRA_ARGV.get(flag, [])
    code, err = _run_flag(command, flag, text, tmp_path, capsys, *extra)
    needle = REFUSED[flag]
    if isinstance(needle, tuple):
        needle = needle[outward > 0]
    assert code == 2 and needle.format(v=text) in err, err
    assert err.count("\n") == 1
    if not closed and bound == 0:
        return
    inside = bound if closed else math.nextafter(bound, -outward * math.inf)
    if outward > 0 and flag in HIGH_END_ACCEPTED:
        HIGH_END_ACCEPTED[flag](inside)
        return
    text = str(inside) if integral else repr(inside)
    code, err = _run_flag(command, flag, text, tmp_path, capsys, *extra)
    assert (code, err) == (0, "")


_EPS = math.radians(5.0)
_HG10, _HG11 = hgsense.ModeIndex(1, 0), hgsense.ModeIndex(1, 1)
_ROTATION = experiment.MAX_ROTATION_PER_DITHER * experiment.DEFAULT_DITHER_RAD


def _hologram_fields():
    target = fields.synthesize_hg_field(_HG11, 1.0, 128)
    return target, fields.gaussian_illumination(3.0, target)


# per flag that a lock-in, hologram or budget guard reads: a run of its
# subcommand, the values one step past its cli.DOMAINS bounds, and every
# library entry point that takes the parameter, called with it. The dither's
# low end is NoiseModel's positive rule, which the run reaches first; at its
# high end HG(1, 0)'s rate deficit passes, so only the depth cap refuses.
ONE_STEP_PAST = {
    "--alpha0-rad": (
        ["montecarlo", "--mode", "1,0", "--trials", "10", "--alpha-rad",
         "1e-7"], [cli.DOMAINS["--alpha0-rad"][1]], {
            "demod_signal": lambda d: experiment.demod_signal(
                _HG10, _EPS, 1e-7, dither_rad=d),
            "shot_noise_level": lambda d: experiment.shot_noise_level(
                _HG10, _EPS, dither_rad=d),
            "snr": lambda d: experiment.snr(_HG10, _EPS, 1e-7, dither_rad=d),
            "montecarlo_lockin": lambda d: experiment.montecarlo_lockin(
                _HG10, _EPS, 1e-7, noise=experiment.NoiseModel(d),
                trials=10)}),
    "--alpha-rad": (
        ["montecarlo", "--mode", "1,1", "--trials", "10"],
        [math.nextafter(_ROTATION, math.inf),
         -math.nextafter(_ROTATION, math.inf)], {
            "snr": lambda a: experiment.snr(_HG11, _EPS, a),
            "montecarlo_lockin": lambda a: experiment.montecarlo_lockin(
                _HG11, _EPS, a, trials=10)}),
    "--grating-period": (
        ["hologram", "--mode", "1,1", "--grid", "128"],
        [math.nextafter(fields.MIN_GRATING_PX, 0.0),
         math.nextafter(128 / 2, math.inf)], {
            "hologram_phase": lambda p: fields.hologram_phase(
                *_hologram_fields(), p),
            "first_order_extract": lambda p: fields.first_order_extract(
                _hologram_fields()[0], p),
            "hologram_readout": lambda p: fields.hologram_readout(
                _HG11, 128, p, 3.0, os.devnull)}),
    # a caller-built FieldGrid takes the side rule too, before it copies: the
    # frozen zeros are adopted, so no page of the 4097-px grid is touched
    "--grid": (
        ["hologram", "--mode", "1,1"], [fields.MIN_SIDE - 1,
                                        fields.MAX_SIDE + 1], {
            "FieldGrid": lambda s: fields.FieldGrid(
                errors.frozen(np.zeros((s, s))), 16.0 / s, 1.0),
            "synthesize_hg_field": lambda s: fields.synthesize_hg_field(
                _HG11, 1.0, s),
            "hologram_readout": lambda s: fields.hologram_readout(
                _HG11, s, 8.0, 3.0, os.devnull)}),
    "--electrical-v": (
        ["montecarlo", "--mode", "1,1", "--trials", "10"],
        [math.nextafter(cli.DOMAINS["--electrical-v"][0], -math.inf)], {
            "NoiseModel": lambda v: experiment.NoiseModel(electrical_v=v),
            "snr": lambda v: experiment.snr(_HG11, _EPS, 1e-7,
                                            electrical_v=v)}),
}


@pytest.mark.parametrize("flag, value, entry", [
    (flag, value, entry) for flag, (_, values, calls) in ONE_STEP_PAST.items()
    for value in values for entry in calls])
def test_every_entry_point_refuses_one_step_past_the_table(flag, value, entry,
                                                           tmp_path):
    # the library call raises what the run raises: its class and its message
    argv, _, calls = ONE_STEP_PAST[flag]
    args = cli.build_parser().parse_args(
        [*argv, f"{flag}={value!r}", "--out", str(tmp_path / "out")])
    with pytest.raises(HgSenseError) as run:
        args.handler(args)
    with pytest.raises(HgSenseError) as call:
        calls[entry](value)
    assert (type(call.value), str(call.value)) == (type(run.value),
                                                   str(run.value))


def test_ci_refuses_each_int_flag_one_past_its_table_bound():
    # the last four runs of CI's refusal loop put an integer flag one past
    # its table bound: they cannot drift from the library's constants
    workflow = Path(__file__).parents[1] / ".github/workflows/tests.yml"
    loop = workflow.read_text().split("for args in ", 1)[1].split("; do")[0]
    runs = [entry.split() for entry in re.findall(r'"([^"]*)"', loop)]
    past = {run[-2]: int(run[-1]) for run in runs[-4:]}
    assert past == {flag: cli.DOMAINS[flag][1] + 1 for flag in (
        "--sweep-max", "--grid-max", "--trials", "--grid")}


def test_ci_compares_the_golden_bounds_arguments_with_the_golden_file():
    # CI's cmp step runs the argv that wrote the golden CSV, spelled once
    workflow = Path(__file__).parents[1] / ".github/workflows/tests.yml"
    step = workflow.read_text().split(
        "- name: Bounds sweep matches the golden file\n", 1)[1]
    script = step.split("run: |\n", 1)[1].replace("\\\n", "")
    run, compare = [shlex.split(line) for line in script.splitlines()[:2]]
    out = "$RUNNER_TEMP/bounds-golden.csv"
    assert run == ["python", "-W", "error", "-m", "hgsense",
                   *BOUNDS_GOLDEN_ARGV, "--out", out]
    assert compare == ["cmp", out, "tests/data/bounds_golden.csv"]


@pytest.mark.parametrize("command", sorted(SWEEP_ARGV))
def test_small_run_under_warnings_as_errors(command, tmp_path):
    # a fresh interpreter with warnings raised as errors
    src = os.path.dirname(os.path.dirname(hgsense.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "hgsense", command,
         *SWEEP_ARGV[command], "--out", str(tmp_path / "out"),
         "--config-out", str(tmp_path / "run.cfg")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=60)
    _assert_finite_run_or_one_error_line(command, proc.returncode,
                                         proc.stderr, tmp_path)
