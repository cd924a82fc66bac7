"""Compare every golden CLI output of this tree with a parent commit's, byte for byte.

Run it from anywhere inside the repository:

    python tests/golden.py PARENT_SHA

It unpacks the parent's src with `git archive PARENT_SHA src` into a
temporary directory, then runs each CASES (as `hologram`) and TEXT_CASES
argv of make_hologram_golden.py, plus its BOUNDS_GOLDEN_ARGV, as a
fresh `python -m hgsense` on both trees. Per case it compares the exit
status, stderr, stdout without its "wrote" line and every file written,
and prints one line, and under it the first SHOWN differing lines of each
output that differs. It exits 1 if any case differs. The .fgrd bytes follow
numpy's CPU dispatch, so the claim holds between two runs on one machine.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from make_hologram_golden import BOUNDS_GOLDEN_ARGV, CASES, TEXT_CASES

HERE = Path(__file__).resolve().parent
SHOWN = 5  # differing lines printed per differing output


def runs() -> dict:
    """Every compared argv, each with the output options it needs."""
    out = {f"hologram {name}": ["hologram", *argv, "--out", "holo"]
           for name, argv in CASES.items()}
    out.update({name: [*argv, *(["--out", "bounds.csv"]
                                if argv[0] == "bounds" else [])]
                for name, argv in TEXT_CASES.items()})
    out["bounds, golden arguments"] = [*BOUNDS_GOLDEN_ARGV,
                                       "--out", "bounds.csv"]
    return {name: [*argv, "--config-out", "run.cfg"]
            for name, argv in out.items()}


def run(src: Path, argv: list, workdir: Path) -> dict:
    """Run hgsense from src in an empty workdir; return what it left."""
    workdir.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "hgsense", *argv], cwd=workdir,
        capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
    stdout = b"".join(line for line in proc.stdout.splitlines(True)
                      if not line.startswith(b"wrote "))
    return {"status": proc.returncode, "stdout": stdout,
            "stderr": proc.stderr,
            **{path.name: path.read_bytes()
               for path in sorted(workdir.iterdir())}}


def source_of(src: Path) -> Path:
    """The hgsense package a subprocess with src on its path imports."""
    proc = subprocess.run(
        [sys.executable, "-c", "import hgsense; print(hgsense.__file__)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)})
    return Path(proc.stdout.strip()).resolve()


def moved_lines(parent: bytes, here: bytes, limit: int = SHOWN) -> list:
    """The first limit lines in which two text outputs differ, each as
    "line N: parent -> here", and a count of the rest; one line for an
    output that is not UTF-8 text or that differs only in its length."""
    try:
        old, new = (data.decode().splitlines() for data in (parent, here))
    except UnicodeDecodeError:
        return [f"binary: {len(parent)} -> {len(here)} bytes"]
    moved = [f"line {k}: {a!r} -> {b!r}"
             for k, (a, b) in enumerate(zip(old, new), 1) if a != b]
    if len(old) != len(new):
        moved.append(f"{len(old)} -> {len(new)} lines")
    rest = len(moved) - limit
    return moved[:limit] + ([f"... {rest} more"] if rest > 0 else [])


def main(argv: list) -> int:
    if len(argv) != 1:
        print("usage: python tests/golden.py PARENT_SHA", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", argv[0], "src"],
                                 cwd=HERE.parent, capture_output=True,
                                 check=True)
        (tmp / "parent").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "parent")],
                       input=archive.stdout, check=True)
        trees = {"parent": tmp / "parent" / "src", "here": HERE.parent / "src"}
        for label, src in trees.items():
            if not source_of(src).is_relative_to(src.resolve()):
                print(f"{label}: hgsense is not imported from {src}")
                return 2
        differing = 0
        for k, (name, case) in enumerate(runs().items()):
            got = {label: run(src, case, tmp / f"{label}{k}")
                   for label, src in trees.items()}
            keys = sorted(set(got["parent"]) | set(got["here"]))
            diff = [key for key in keys
                    if got["parent"].get(key) != got["here"].get(key)]
            differing += bool(diff)
            files = len(keys) - 3
            print(f"{name}: " + (f"differs in {', '.join(diff)}" if diff
                                 else f"identical ({files} files)"))
            for key in diff:
                for line in moved_lines(got["parent"].get(key, b""),
                                        got["here"].get(key, b"")):
                    print(f"  {key} {line}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
