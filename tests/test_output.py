"""The one write path: atomic replacement and the 12-digit row formatters."""

import csv
import io
import math
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hgsense
from hgsense.experiment import (
    MAX_TRIALS,
    sensitivity_table,
    table_csv,
    table_json,
    write_run_config,
)
from hgsense.fields import (
    PhaseMap,
    synthesize_hg_field,
    write_field_binary,
    write_phase_pgm,
)
from hgsense.fisher import BOUND_CSV_COLUMNS, write_bound_csv
from hgsense.modes import ModeIndex
from hgsense.output import (
    FLOAT_CELL,
    format_indexed,
    format_rows,
    write_atomic,
)

_PHASE = PhaseMap(np.zeros((64, 64)))

WRITERS = {
    "text": lambda path: write_atomic(path, "new\n"),
    "bytes": lambda path: write_atomic(path, b"new"),
    "parts": lambda path: write_atomic(path, "head\n", b"\0",
                                       np.arange(8, dtype=np.uint8)),
    "bound_csv": lambda path: write_bound_csv(
        path, [("", "", "", "", 1, 1, "alpha", 1.0)]),
    "table_csv": lambda path: write_atomic(path,
                                           table_csv(sensitivity_table(0.1))),
    "table_json": lambda path: write_atomic(
        path, table_json(sensitivity_table(0.1))),
    "run_config": lambda path: write_run_config(path, {"seed": 1}),
    "field_binary": lambda path: write_field_binary(
        path, synthesize_hg_field(ModeIndex(0, 0), 1.0, side=128)),
    "phase_pgm": lambda path: write_phase_pgm(path, _PHASE),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_replace_keeps_target_and_leaves_no_temp(writer, tmp_path,
                                                        monkeypatch):
    target = tmp_path / "target.out"
    target.write_bytes(b"old contents\r\n")

    def refuse(src, dst):
        assert os.path.exists(src)  # the temp sibling was written
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        WRITERS[writer](target)
    assert target.read_bytes() == b"old contents\r\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["target.out"]


def test_write_atomic_replaces_without_newline_translation(tmp_path):
    target = tmp_path / "t.txt"
    target.write_text("previous, longer contents\n")
    write_atomic(target, "a\r\nb\n")
    assert target.read_bytes() == b"a\r\nb\n"
    write_atomic(str(target), b"\x00\xff")
    assert target.read_bytes() == b"\x00\xff"
    grid = np.arange(6, dtype="<f8").reshape(2, 3)
    write_atomic(target, "a\r\n", b"\x00", memoryview(b"mv"), grid)
    assert target.read_bytes() == b"a\r\n\x00mv" + grid.tobytes()


def test_binary_writers_emit_header_then_samples(tmp_path):
    # the documented layouts, built the long way: header bytes + tobytes()
    field = synthesize_hg_field(ModeIndex(2, 1), 0.7, side=129)
    write_field_binary(tmp_path / "f", field)
    raw = (tmp_path / "f").read_bytes()
    # the waist plane: wavelength 780e-9 and z 0 fill the header's last two
    assert raw[:44] == (b"FGRD" + struct.pack("<II", 1, 129)
                        + struct.pack("<4d", field.pitch, 0.7, 780e-9, 0.0))
    assert raw[36:44] == bytes(8)  # z = +0.0
    assert raw[44:] == field.samples.astype("<c16").tobytes()
    rng = np.random.default_rng(5)
    phase = PhaseMap(rng.uniform(-math.pi, math.pi, (128, 128)))
    write_phase_pgm(tmp_path / "g", phase)
    levels = np.clip(np.round((phase.values + math.pi) / (2 * math.pi) * 255),
                     0, 255).astype(np.uint8)
    assert (tmp_path / "g").read_bytes() == (b"P5\n128 128\n255\n"
                                            + levels.tobytes())


def test_bound_csv_keeps_crlf_and_twelve_digits(tmp_path):
    target = tmp_path / "b.csv"
    write_bound_csv(target, [("", "", "", "", 1, 2, "alpha", 3.0)])
    assert target.read_bytes() == (
        b"family,method,coupling,epsilon,m,n,parameter,fisher_info,"
        b"variance_bound\r\n"
        b",,,,1,2,alpha,3,0.333333333333\r\n")


def _cell(value) -> str:
    """The oracle of a text cell: floats (numpy's too) with 12 significant
    digits, anything else by str."""
    return format(value, ".12g") if isinstance(value, float) else str(value)


def test_bound_csv_bytes_are_csv_writers(tmp_path):
    # every kind of cell a bounds sweep writes: the labels, an empty
    # epsilon, ints, floats down to the smallest subnormal, -0, inf, NaN and
    # numpy floats; the writer appends 1 / fisher_info, inf at zero
    rows = [("projective", "carrier-povm", "oam", 0.0872664625997, 1, 1,
             "alpha", 9.80665e21),
            ("hamiltonian", "quantum-bound", "gaussian-pointer", "", 0, 0,
             "theta", 0.0),
            ("postselection", "weak-approx", "momentum-x", 0.05, 16, 16,
             "phi", np.float64(2.0) / 3),
            ("postselection", "exact", "oam", 1e-300, 64, 64, "alpha",
             -1.5),
            ("postselection", "exact", "oam", np.float64(0.05), 2, 2,
             "alpha", 5e-324),
            ("postselection", "exact", "oam", 0.05, 2, 2, "alpha", math.nan)]
    # rows of one cell-type sequence share a %-format: random bit patterns,
    # as floats and as numpy floats, must keep the oracle's bytes
    bits = np.random.default_rng(20231019).integers(0, 2 ** 64, 400,
                                                    dtype=np.uint64)
    values = bits.view(np.float64)
    rows += [("postselection", "exact", "oam", float(a), 3, 3, "alpha", b)
             for a, b in zip(values[::2], values[1::2])]
    target = tmp_path / "b.csv"
    write_bound_csv(target, rows)
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(BOUND_CSV_COLUMNS)
    writer.writerows([*map(_cell, row),
                      _cell(math.inf if row[-1] == 0.0 else 1.0 / row[-1])]
                     for row in rows)
    assert target.read_bytes() == buffer.getvalue().encode()


def test_every_text_row_has_the_oracle_bytes():
    # one-cell rows, a table2 row and montecarlo rows: numpy float trials,
    # then the float mean and std
    cells = [1 / 3, np.float64(2.0) / 3, math.inf, -math.inf, -0.0,
             2.2250738585072014e-308, np.float64(1e300), 1.0197e-22, 7,
             "alpha"]
    assert format_rows([(v,) for v in cells], ",") == [
        "0.333333333333", "0.666666666667", "inf", "-inf", "-0",
        "2.22507385851e-308", "1e+300", "1.0197e-22", "7", "alpha"]
    table = sensitivity_table(math.radians(5.0))
    samples = np.random.default_rng(7).normal(1.0, 0.3, 5)
    trials = [(f"trial{k:04d}", v) for k, v in enumerate(samples)]
    stats = [("mean", float(samples.mean())),
             ("std", float(samples.std(ddof=1)))]
    for rows in (table[:1], trials + stats):
        assert format_rows(rows, ",") == [",".join(map(_cell, row))
                                          for row in rows]
    assert format_rows([("# seed", 4), ("# alpha_rad", 0.1 / 3)], " = ") == [
        "# seed = 4", "# alpha_rad = 0.0333333333333"]


def _indexed_rows(values) -> str:
    """The oracle of format_indexed: format_rows over the trial rows."""
    rows = ((f"trial{k:04d}", v) for k, v in enumerate(values))
    return "".join(f"{line}\n" for line in format_rows(rows, ","))


def test_indexed_lines_are_format_rows_bytes():
    # numpy floats of a read-only array, as a Monte Carlo run returns them:
    # random bit patterns (NaN and inf among them), with the signed zero,
    # the smallest subnormal, a huge, an integral and a negative value at
    # the first indices and at 9999 and 10000, where the label widens
    bits = np.random.default_rng(20261020).integers(0, 2 ** 64, 10001,
                                                    dtype=np.uint64)
    values = bits.view(np.float64).copy()
    special = [-0.0, 5e-324, 1e300, 2.0, -0.7]
    values[:5] = special
    values[9996:] = special
    values.setflags(write=False)
    # compared as lists of lines, kept ends and all, so that a failure
    # reports the first line that differs rather than diffing 10**4 lines
    text = format_indexed("trial", values.tolist(), ",")
    lines = text.splitlines(keepends=True)
    assert lines == _indexed_rows(values).splitlines(keepends=True)
    assert format_indexed("trial", values, ",").splitlines(True) == lines
    lines = text.splitlines()
    assert lines[:5] == ["trial0000,-0", "trial0001,4.94065645841e-324",
                         "trial0002,1e+300", "trial0003,2",
                         "trial0004,-0.7"]
    assert lines[9999:] == ["trial9999,2", "trial10000,-0.7"]
    assert len(lines) == 10001 and text.endswith("\n")


def test_indexed_lines_take_prefix_and_sep_literally():
    assert format_indexed("trial", [], ",") == ""
    assert format_indexed("a%s", [1.0, 0.25], "%d") == (
        "a%s0000%d1\na%s0001%d0.25\n")


def _cell_lines(prefix, values, sep) -> list:
    """The oracle of format_indexed's kernel: FLOAT_CELL % v, row by row."""
    return [f"{prefix}{k:04d}{sep}{FLOAT_CELL % v}\n"
            for k, v in enumerate(values)]


def _around(x) -> list:
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


# the kernel's edges: exact binary ties with an even and an odd last digit
# (FLOAT_CELL rounds them half to even), each power of ten the scaling meets
# and the values that round up into the next decade (to 0.0001 and to 1e+12),
# each with its neighbours, decimal near-ties whose scaled product can round
# onto one half or across it, the signed zero and the smallest subnormal
EDGES = [123456789012.5, 123456789013.5, 0.0, 5e-324]
EDGES += [v for x in ([10.0 ** k for k in range(-5, 13)]
                      + [9.9999999999995e-05, 999999999999.5])
          for v in _around(x)]
EDGES += [float(f"{digits}e{k}") for k in range(-4, 12)
          for digits in ("1.234567890125", "1.234567890135", "9.876543210985",
                         "2.500000000015", "5.000000000005")]
EDGES += [-v for v in EDGES]


@pytest.mark.parametrize("prefix, sep", [("trial", ","),
                                         ("t%s\u00e9\0", "%d\u20ac\0")])
@pytest.mark.parametrize("count", [1, 4095, 4096, 4097, 8193, 10000, 10001])
def test_indexed_kernel_rows_are_float_cell_bytes(count, prefix, sep):
    # SNR-like samples with the edge table spread through them, in runs
    # that end short of, on and past a block boundary and past trial9999,
    # where the label widens; the prefix and the separator hold a "%", a
    # non-ASCII character and a NUL
    values = np.random.default_rng(count).normal(2.0, 1.0, count)
    values[::7] = np.resize(EDGES, len(values[::7]))
    lines = format_indexed(prefix, values, sep).splitlines(keepends=True)
    assert lines == _cell_lines(prefix, values.tolist(), sep)


@pytest.mark.parametrize("toward", [-math.inf, math.inf])
def test_indexed_kernel_bytes_do_not_follow_the_last_ulp_of_log10(
        toward, monkeypatch):
    # numpy's CPU dispatch picks the np.log10 loop, and an ulp of it can move
    # e by one at a power of ten: that may only hand the value to the
    # %-operation
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda x: np.nextafter(log10(x), toward))
    lines = format_indexed("trial", EDGES, ",").splitlines(keepends=True)
    assert lines == _cell_lines("trial", EDGES, ",")


def test_indexed_kernel_tables_are_built_on_first_use(tmp_path):
    # the import and the commands that write no trial rows pay nothing for
    # the kernel's tables; the first montecarlo run builds them
    src = os.path.dirname(os.path.dirname(hgsense.__file__))
    code = textwrap.dedent("""
        import contextlib, io
        from hgsense import output
        from hgsense.cli import main
        built = [output._tables.cache_info().currsize]
        for argv in (["bounds", "--grid-max", "2", "--sweep-max", "2",
                      "--out", "bounds.csv"], ["table2"],
                     ["hologram", "--mode", "1,1", "--grid", "128",
                      "--out", "holo"],
                     ["montecarlo", "--mode", "3,3", "--trials", "10"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            built.append(output._tables.cache_info().currsize)
        print(built)
    """)
    out = subprocess.run([sys.executable, "-W", "error", "-c", code],
                         cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert out.strip() == "[0, 0, 0, 0, 1]"


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


FLOATS = st.one_of(
    st.floats(),  # NaN, inf and subnormals among them
    st.integers(0, 2 ** 64 - 1).map(_from_bits),
    # 12 digits and a 5: a decimal tie at every exponent the kernel takes
    st.builds(lambda digits, k: float(f"{digits}5e{k}"),
              st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-17, 0)),
    st.sampled_from(EDGES))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(FLOATS, max_size=40))
def test_indexed_kernel_writes_any_float_as_float_cell(values):
    assert format_indexed("trial", values, ",").splitlines(True) == (
        _cell_lines("trial", values, ","))


def test_indexed_peak_at_the_trial_cap():
    # the text is 2.5 MB at MAX_TRIALS SNR samples: the blocks' strings and
    # their join hold two copies, beside one block's slots and temporaries
    # (5.6 MB measured; 12.1 MB with the one %-operation it replaced)
    values = np.random.default_rng(5).normal(2.0, 1.0, MAX_TRIALS)
    format_indexed("trial", values[:10], ",")
    tracemalloc.start()
    try:
        text = format_indexed("trial", values, ",")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) < 2.6e6 and peak < 7e6
