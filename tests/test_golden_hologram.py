"""The CLI against the outputs frozen by make_hologram_golden.py.

For hologram, the .pgm digest, the purity line and the .fgrd header must
match exactly; the .fgrd samples on the stored lattice must match to the
stored max-abs tolerance, since their last bits follow numpy's CPU dispatch.
The text outputs of bounds, table2 and montecarlo must match byte for byte;
a mismatch names the numpy version the digests were made on and the running
one.
"""

import json

import numpy as np
import pytest

from make_hologram_golden import GOLDEN, STRIDE, run_case, run_text_case

GOLD = json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(GOLD["cases"]))
def test_hologram_outputs_match_the_golden_set(name):
    want = GOLD["cases"][name]
    got = run_case(want["argv"])
    for key in ("pgm_sha256", "purity_line", "fgrd_header"):
        assert got[key] == want[key], key
    assert GOLD["sample_stride"] == STRIDE
    assert len(got["samples"]) == len(want["samples"])
    error = np.abs(np.array([complex(z) for z in got["samples"]])
                   - np.array([complex(z) for z in want["samples"]]))
    assert np.max(error) <= GOLD["sample_tolerance"]


@pytest.mark.parametrize("name", sorted(GOLD["text_cases"]))
def test_text_outputs_match_the_golden_set(name):
    want = GOLD["text_cases"][name]
    made_on = GOLD["text_sha256_made_on"]["numpy"]
    assert run_text_case(want["argv"]) == want["sha256"], (
        f"digests made on numpy {made_on}, running numpy {np.__version__}")
