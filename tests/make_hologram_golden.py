"""Freeze the CLI outputs that tests/test_golden_hologram.py checks.

Run it against the source tree whose outputs are to be frozen, from the
repository root:

    PYTHONPATH=src python tests/make_hologram_golden.py

It writes tests/data/hologram_golden.json; no test writes that file. Per case
it pins the SHA-256 of the .pgm, the purity line of stdout and the 44-byte
.fgrd header exactly. numpy's runtime CPU dispatch changes the bits of np.exp
and np.angle (https://numpy.org/doc/stable/reference/simd/), so the .fgrd
samples are pinned as values: every STRIDE-th row and column of the grid, to
SAMPLE_TOLERANCE in max-abs. The exact .fgrd digest is recorded together with
the numpy version and CPU features it was made on, for comparing by hand on
that platform; the test does not read it.

The text outputs of bounds, table2 and montecarlo do not depend on the CPU,
so for each TEXT_CASES run the SHA-256 of every output is pinned: stdout,
the --config-out file and, for bounds, the --out CSV. The numpy version they
were made on is recorded beside them, and a failing text digest names it
and the running one: the montecarlo samples follow numpy's Generator
stream, and a numpy that cannot run on the oldest supported Python may
change it.
"""

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).parent / "data" / "hologram_golden.json"
CASES = {
    "3,3 at 512 px": ["--mode", "3,3", "--grid", "512"],
    "2,1 at 129 px, period 4": ["--mode", "2,1", "--grid", "129",
                                "--grating-period", "4"],
    "3,3 at 1024 px": ["--mode", "3,3", "--grid", "1024"],
    "4,1 at 300 px, period 7.5": ["--mode", "4,1", "--grid", "300",
                                  "--grating-period", "7.5"],
    "0,0 at 256 px": ["--mode", "0,0", "--grid", "256"],
    "5,2 at 257 px, period 5": ["--mode", "5,2", "--grid", "257",
                                "--grating-period", "5"],
}
TEXT_CASES = {
    "bounds, defaults": ["bounds"],
    "table2 as CSV": ["table2"],
    "table2 as JSON": ["table2", "--format", "json"],
    "montecarlo 3,3, 50 trials": ["montecarlo", "--mode", "3,3",
                                  "--trials", "50"],
    "montecarlo 1,2 at 1e7 photons": ["montecarlo", "--mode", "1,2",
                                      "--photons", "1e7",
                                      "--electrical-v", "1e-5"],
    "table2 at 1e7 photons": ["table2", "--photons", "1e7"],
    # one photon a window comes back from its power one ulp short
    "bounds at one photon a window": ["bounds", "--grid-max", "2",
                                      "--sweep-max", "2", "--photons", "1",
                                      "--tau-s", "0.13366834170854272"],
    # labels past trial9999, several blocks of format_indexed's kernel and
    # electrical noise
    "montecarlo 3,2, 12000 trials with electrical noise": [
        "montecarlo", "--mode", "3,2", "--trials", "12000",
        "--electrical-v", "35.75e-6"],
    # SNR samples around 0 through the kernel: about half of them negative,
    # some in [1e-4, 0.1), where the text starts "0.", and a block boundary
    "montecarlo 3,3 at 1e-9 rad, 4097 trials": [
        "montecarlo", "--mode", "3,3", "--alpha-rad", "1e-9",
        "--trials", "4097"],
}
# the bounds run that wrote tests/data/bounds_golden.csv, which this script
# does not write: golden.py, the CLI and Fisher tests and CI's "Bounds sweep
# matches the golden file" step run it (a test reads the step)
BOUNDS_GOLDEN_ARGV = ["bounds", "--grid-max", "3", "--sweep-max", "6",
                      "--breakdown-epsilons", "0.1,0.05,0.01",
                      "--alpha-rad", "0.02"]
FGRD_HEADER_BYTES = 44
STRIDE = 16  # a 32 x 32 sample lattice at 512 px, 9 x 9 at 129 px
# ulp changes in the synthesized fields move the samples by up to 1.7e-9:
# the J1 inversion has an infinite slope at the peak, so a depth target an ulp
# below it moves its depth by about 1e-8. Seen with +-2 ulp of noise on every
# hg_factor value, 12 draws per case; the samples themselves reach 0.26.
SAMPLE_TOLERANCE = 1e-8


def run_case(argv: list) -> dict:
    """Run `hgsense hologram` in process; return its outputs as pinned."""
    from hgsense.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        stem = str(Path(tmp) / "holo")
        out = StringIO()
        with redirect_stdout(out):
            status = main(["hologram", *argv, "--out", stem])
        if status != 0:
            raise RuntimeError(f"hologram {argv} exited {status}")
        pgm = Path(stem + ".pgm").read_bytes()
        fgrd = Path(stem + ".fgrd").read_bytes()
    side = int(argv[argv.index("--grid") + 1])
    samples = np.frombuffer(fgrd, "<c16", offset=FGRD_HEADER_BYTES)
    lattice = samples.reshape(side, side)[::STRIDE, ::STRIDE].ravel()
    return {
        "pgm_sha256": hashlib.sha256(pgm).hexdigest(),
        "purity_line": out.getvalue().splitlines()[1],
        "fgrd_header": fgrd[:FGRD_HEADER_BYTES].hex(),
        "fgrd_sha256": hashlib.sha256(fgrd).hexdigest(),
        "samples": [repr(complex(z)) for z in lattice],  # exact round trip
    }


def run_text_case(argv: list) -> dict:
    """Run a text-output subcommand in process; return its outputs' SHA-256."""
    from hgsense.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        files = {"config": Path(tmp) / "run.cfg"}
        extra = ["--config-out", str(files["config"])]
        if argv[0] == "bounds":  # the one command with no stdout form
            files["out"] = Path(tmp) / "bounds.csv"
            extra += ["--out", str(files["out"])]
        out = StringIO()
        with redirect_stdout(out):
            status = main([*argv, *extra])
        if status != 0:
            raise RuntimeError(f"{argv} exited {status}")
        outputs = {"stdout": out.getvalue().encode(),
                   **{key: path.read_bytes() for key, path in files.items()}}
    return {key: hashlib.sha256(data).hexdigest()
            for key, data in sorted(outputs.items())}


def _cpu_features() -> list:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return sorted(name for name, on in __cpu_features__.items() if on)


def main() -> int:
    golden = {
        "sample_stride": STRIDE,
        "sample_tolerance": SAMPLE_TOLERANCE,
        "fgrd_sha256_made_on": {"numpy": np.__version__,
                                "cpu_features": _cpu_features()},
        "cases": {name: {"argv": argv, **run_case(argv)}
                  for name, argv in CASES.items()},
        "text_sha256_made_on": {"numpy": np.__version__},
        "text_cases": {name: {"argv": argv, "sha256": run_text_case(argv)}
                       for name, argv in TEXT_CASES.items()},
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
