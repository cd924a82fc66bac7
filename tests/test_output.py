"""The one write path: atomic replacement and the 12-digit cell format."""

import math
import os

import numpy as np
import pytest

from hgsense.experiment import (
    sensitivity_table,
    write_run_config,
    write_table_csv,
    write_table_json,
)
from hgsense.fields import (
    PhaseMap,
    synthesize_hg_field,
    write_field_binary,
    write_phase_binary,
    write_phase_pgm,
)
from hgsense.fisher import write_bound_csv
from hgsense.modes import ModeIndex
from hgsense.output import format_cell, write_atomic

_PHASE = PhaseMap(np.zeros((64, 64)), 16.0)

WRITERS = {
    "text": lambda path: write_atomic(path, "new\n"),
    "bytes": lambda path: write_atomic(path, b"new"),
    "bound_csv": lambda path: write_bound_csv(
        path, [{"m": 1, "n": 1, "parameter": "alpha", "fisher_info": 1.0,
                "variance_bound": 1.0}]),
    "table_csv": lambda path: write_table_csv(path, sensitivity_table(0.1)),
    "table_json": lambda path: write_table_json(path, sensitivity_table(0.1)),
    "run_config": lambda path: write_run_config(path, {"seed": 1}),
    "field_binary": lambda path: write_field_binary(
        path, synthesize_hg_field(ModeIndex(0, 0), 1.0, side=128)),
    "phase_binary": lambda path: write_phase_binary(path, _PHASE),
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


def test_bound_csv_keeps_crlf_and_twelve_digits(tmp_path):
    target = tmp_path / "b.csv"
    write_bound_csv(target, [{"m": 1, "n": 2, "parameter": "alpha",
                              "fisher_info": 3.0, "variance_bound": 1 / 3}])
    assert target.read_bytes() == (
        b"family,method,coupling,epsilon,m,n,parameter,fisher_info,"
        b"variance_bound\r\n"
        b",,,,1,2,alpha,3,0.333333333333\r\n")


def test_format_cell():
    assert format_cell(1 / 3) == "0.333333333333"
    assert format_cell(np.float64(2.0) / 3) == "0.666666666667"
    assert format_cell(math.inf) == "inf"
    assert format_cell(7) == "7"
    assert format_cell("alpha") == "alpha"
