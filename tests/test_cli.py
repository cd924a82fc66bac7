"""End-to-end command line checks through main(argv).

The golden table file freezes the default table2 output byte for byte;
regenerating it is a deliberate act, not a side effect of other edits.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import hgsense
from hgsense import cli, fields
from hgsense.cli import main

GOLDEN_TABLE = Path(__file__).parent / "data" / "table2_golden.csv"


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


def test_bounds_empty_sweep_fails(tmp_path, capsys):
    code = main(["bounds", "--grid-max", "0", "--sweep-max", "-1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "no rows" in capsys.readouterr().err


def test_bounds_refuses_unsupported_order_before_sweeping(
        tmp_path, capsys, monkeypatch):
    # the breakdown family cannot build HG(65, 65): nothing may run first
    def no_sweep(*args, **kwargs):
        pytest.fail("Hamiltonian family swept before the order was checked")

    monkeypatch.setattr(cli, "hamiltonian_bound", no_sweep)
    assert main(["bounds", "--sweep-max", "65",
                 "--out", str(tmp_path / "b.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "(65, 65)" in err
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_bounds_photon_override(tmp_path):
    out = tmp_path / "b.csv"
    cfg = tmp_path / "run.cfg"
    assert main(["bounds", "--grid-max", "2", "--sweep-max", "2",
                 "--photons", "1e6", "--out", str(out),
                 "--config-out", str(cfg)]) == 0
    settings = dict(line.split(" = ") for line in
                    cfg.read_text().splitlines())
    assert float(settings["photons"]) == pytest.approx(1e6, rel=1e-9)
    assert float(settings["epsilon_rad"]) == pytest.approx(math.radians(5.0))


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


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(hgsense.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, hgsense, hgsense.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"


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


def test_hologram_rejects_tight_grating(tmp_path, capsys):
    assert main(["hologram", "--mode", "1,1", "--grating-period", "2",
                 "--out", str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["0", "-4", "4097"])
def test_hologram_rejects_grid_side_before_allocating(
        side, tmp_path, capsys, monkeypatch):
    def no_axis(*args):  # the first array a synthesis builds
        pytest.fail("grid axis built before the side was checked")

    monkeypatch.setattr(fields, "_axis", no_axis)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would be a 2nd line
        assert main(["hologram", "--mode", "1,1", "--grid", side,
                     "--out", str(tmp_path / "x"),
                     "--config-out", str(tmp_path / "c.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: grid side {side} outside [128, 4096]\n"
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


@pytest.mark.parametrize("flags", [
    ["--epsilon-deg", "nan"],
    ["--epsilon-deg", "0"],
    ["--epsilon-deg", "90"],
    ["--alpha-rad", "nan"],
    ["--alpha-rad", "inf"],
    ["--breakdown-epsilons", "nan"],
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


def test_unwritable_output_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "table.csv"
    assert main(["table2", "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


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
