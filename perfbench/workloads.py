"""Seeded op lists, op execution and correctness checks for each workload.

An op is a JSON-serialisable dict. ``make_ops`` builds one pass of ops from
the seed; ``run_op`` executes one op against the package and returns the
op's check, which reads the outputs back and gives a ``Result``.

Sizes are drawn from a fixed histogram per workload and the seed chooses
everything else (order, modes, physics parameters, which ops get optional
flags). Runs on different seeds therefore cover the same sizes, so their
timings are comparable, while the inputs themselves still differ.

The package is always reached through module attributes at call time
(``cli.main``, ``fisher.cfi_povm``), never through names bound at import,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import random
import struct

WORKLOADS = ("bounds-sweep", "rotation-exact", "hologram-readout",
             "lockin-montecarlo")

# The modules each workload imports before its first op.
ENTRY_MODULES = {
    "bounds-sweep": ("hgsense.cli",),
    "rotation-exact": ("hgsense.modes", "hgsense.weak", "hgsense.fisher",
                       "hgsense.fields"),
    "hologram-readout": ("hgsense.cli",),
    "lockin-montecarlo": ("hgsense.cli",),
}

# Domain unit of work_per_s, per workload.
WORK_UNIT = {
    "bounds-sweep": "CSV rows",
    "rotation-exact": "modes",
    "hologram-readout": "megapixels",
    "lockin-montecarlo": "count bins",
}

# One pass of each workload at full size, as {size: copies}. Sizes repeat in
# every pass and the seed draws everything else, so runs on different seeds
# time the same sizes. A pass is kept short, so a run makes several passes.
# The loop times warm ops (see warmup_ops), so an op's cost depends on its
# size alone. The bounds-sweep, rotation-exact and lockin-montecarlo passes
# each have a block of equal-cost ops with as many cheaper ops as dearer
# ones, where the median latency falls, and a block near the top where the
# tail latency (the eleventh-largest sample) falls: at four passes, one
# dearer size above a block of three copies puts it in the block's middle.
# So neither metric sits between two sizes of very different cost, where
# one noisy sample would move it from one size to the other. Bounds sweeps
# of a repeated size all take BLOCK_EPSILONS epsilons; the others take 1, 2,
# 3, 1, ... along the size order, and the seed deals --grid-max values 4, 5,
# ..., 10, 4, ... to the ops (they barely change the cost), so every seed
# does the same work. Sweeps stop at 20: one sweep to 25 alone takes as long
# as the rest of a pass.
SWEEP_MAX_COUNTS = {8: 1, 10: 1, 12: 1, 14: 1, 16: 4, 17: 3, 20: 1}
BLOCK_EPSILONS = 2
# Shell sizes m + n, weighted to small shells. Shells up to 6 include the
# 512 px sampled-field cross-check and cost the same, and form the median
# block; shells up to 20 include the SLD monitor, so 20 and 25 cost about
# the same and form the tail block below 30.
# A mode with m or n = 0 costs less than one with both nonzero, so the ops
# of a repeated shell take m = 1 or m = shell - 1; the others draw m freely.
SHELL_COUNTS = {4: 2, 5: 2, 6: 2, 7: 1, 8: 1, 9: 1, 10: 1, 11: 1, 13: 1,
                16: 1, 19: 1, 20: 2, 25: 1, 30: 1}
HOLOGRAM_OPS = 4  # every fourth op at 1024 px, the rest at 512 px
# (trials, electrical noise on) -> copies. Half the Monte Carlo ops carry
# electrical noise, which adds about 30% to a trial. 1600 trials without
# noise is the median block and 2200 with noise the tail block.
TRIALS_COUNTS = {(400, False): 1, (400, True): 1, (1000, False): 1,
                 (1600, False): 3, (2200, True): 3, (4000, True): 1}

# Nominal seconds per pass: a run makes the whole number of passes nearest
# its --seconds over this, and at least one, so the op count depends only on
# the workload and --seconds and every commit is timed on the same ops. At
# run_seconds 12 each workload makes four passes.
PASS_SECONDS = 3.0

SMALLEST = {
    "bounds-sweep": dict(sweep_max={8: 2}, grid_max=4, eps_count=1),
    "rotation-exact": dict(shells={4: 2, 5: 1}),
    "hologram-readout": dict(ops=2),
    "lockin-montecarlo": dict(trials={(400, False): 1}),
}

BOUNDS_EPSILON_DEG = 5.0  # CLI default post-selection offset
ELECTRICAL_V = 35.75e-6
HOLOGRAM_PERIOD_PX = 16
HOLOGRAM_ORDER_MAX = 6
FGRD_HEADER = struct.Struct("<4sII4d")

# Published minimum detectable rotations at eps = 5 deg, 4.04e7 photons.
TABLE2_URAD = {(1, 1): 3.44, (3, 3): 1.40, (5, 5): 0.89}

# Photon budget defaults of the CLI, restated so the bounds check does not
# depend on the package computing them.
_PLANCK = 6.62607015e-34
_LIGHT_SPEED = 299792458.0
_DEFAULT_PHOTONS = 94.34e-12 * 0.10908 * 780e-9 / (_PLANCK * _LIGHT_SPEED)


def make_ops(workload: str, seed: int, smallest: bool = False) -> list[dict]:
    """One pass of ops for ``workload``; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, smallest)


def _expand(counts: dict) -> list:
    return [size for size, copies in sorted(counts.items())
            for _ in range(copies)]


def _bounds_ops(rng, smallest):
    small = SMALLEST["bounds-sweep"]
    counts = small["sweep_max"] if smallest else SWEEP_MAX_COUNTS
    grids = [small["grid_max"] if smallest else 4 + k % 7
             for k in range(sum(counts.values()))]
    rng.shuffle(grids)
    ops, single = [], 0
    for sweep_max in _expand(counts):
        if smallest:
            eps_count = small["eps_count"]
        elif counts[sweep_max] > 1:
            eps_count = BLOCK_EPSILONS
        else:
            eps_count, single = 1 + single % 3, single + 1
        eps = [round(rng.uniform(0.01, 0.1), 6) for _ in range(eps_count)]
        ops.append({"kind": "bounds", "grid_max": grids[len(ops)],
                    "sweep_max": sweep_max, "epsilons": eps})
    rng.shuffle(ops)
    return ops


def _rotation_ops(rng, smallest):
    counts = SMALLEST["rotation-exact"]["shells"] if smallest else SHELL_COUNTS
    ops = []
    for shell in _expand(counts):
        if counts[shell] > 1:
            m = rng.choice((1, shell - 1))
        else:
            m = rng.randint(0, shell)
        ops.append({"kind": "rotation", "m": m, "n": shell - m,
                    "epsilon": round(rng.uniform(0.05, 0.1), 6),
                    "alpha": round(rng.uniform(5e-4, 2e-3), 9),
                    "theta": round(rng.uniform(0.3, 2.8), 6)})
    rng.shuffle(ops)
    return ops


def _hologram_ops(rng, smallest):
    count = SMALLEST["hologram-readout"]["ops"] if smallest else HOLOGRAM_OPS
    ops = []
    for k in range(count):
        grid = 1024 if (k % 4 == 3 and not smallest) else 512
        ops.append({"kind": "hologram",
                    "m": rng.randint(0, HOLOGRAM_ORDER_MAX),
                    "n": rng.randint(0, HOLOGRAM_ORDER_MAX),
                    "grid": grid, "period": HOLOGRAM_PERIOD_PX})
    return ops


def _lockin_ops(rng, smallest):
    trials = _expand(SMALLEST["lockin-montecarlo"]["trials"] if smallest
                     else TRIALS_COUNTS)
    ops = [{"kind": "montecarlo", "m": rng.randint(1, 6), "n": rng.randint(1, 6),
            "seed": rng.randrange(2 ** 31), "trials": t,
            "electrical_v": ELECTRICAL_V if noise else 0.0}
           for t, noise in trials]
    rng.shuffle(ops)
    ops.insert(rng.randrange(len(ops) + 1), {"kind": "table2"})
    return ops


_BUILDERS = {
    "bounds-sweep": _bounds_ops,
    "rotation-exact": _rotation_ops,
    "hologram-readout": _hologram_ops,
    "lockin-montecarlo": _lockin_ops,
}


def size_key(op: dict) -> float:
    """Order of ops by size, used to pick the representative cold-start op."""
    kind = op["kind"]
    if kind == "bounds":
        return op["sweep_max"] + 0.1 * len(op["epsilons"])
    if kind == "rotation":
        return op["m"] + op["n"]
    if kind == "hologram":
        return op["grid"]
    if kind == "montecarlo":  # electrical noise adds about 30% to a trial
        return op["trials"] * (1.3 if op["electrical_v"] else 1.0)
    return 0.0


def median_op(ops: list[dict]) -> dict:
    """The op in the middle of the size-ordered pass."""
    return sorted(ops, key=size_key)[len(ops) // 2]


def warmup_ops(ops: list[dict]) -> list[dict]:
    """Ops run untimed before the timed loop, so that it times warm ops.

    The largest op of each cache key: the package caches one
    eigendecomposition per operator cutoff (``weak._coupling_eig``), so
    each shell of ``rotation-exact`` is warmed, while the largest bounds
    sweep fills every cutoff a smaller one uses; numpy's FFT keeps its set-up
    per grid side.
    """
    largest = {}
    for op in sorted(ops, key=size_key):
        largest[_cache_key(op)] = op
    return list(largest.values())


def _cache_key(op: dict):
    if op["kind"] == "rotation":
        return op["m"] + op["n"]
    if op["kind"] == "hologram":
        return op["grid"]
    return op["kind"]


class Result:
    """Outcome of one op: work done in domain units and failed checks."""

    def __init__(self, units: float, problems: list[str]):
        self.units = units
        self.problems = problems

    @property
    def ok(self) -> bool:
        return not self.problems


def run_op(op: dict, outdir: str):
    """Execute one op and return its check, a callable giving a ``Result``.

    Every output file goes under ``outdir``. The caller times this call and
    runs the check afterwards, so checking costs no op time.
    """
    return _RUNNERS[op["kind"]](op, outdir)


def _cli(argv: list[str]) -> tuple[int, str]:
    from hgsense import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        rc = cli.main(argv)
    return rc, buffer.getvalue()


def _close(got: float, want: float, rtol: float) -> bool:
    return math.isfinite(got) and abs(got - want) <= rtol * abs(want)


def _exit_failure(rc: int):
    return lambda: Result(0, [f"exit status {rc}"])


def _run_bounds(op, outdir):
    path = os.path.join(outdir, "bounds.csv")
    rc, _ = _cli(["bounds", "--grid-max", str(op["grid_max"]),
                  "--sweep-max", str(op["sweep_max"]),
                  "--breakdown-epsilons",
                  ",".join(repr(e) for e in op["epsilons"]),
                  "--out", path])
    if rc != 0:
        return _exit_failure(rc)
    return lambda: _check_bounds(op, path)


def _check_bounds(op, path):
    from hgsense import modes

    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    problems = []
    g, s, e = op["grid_max"], op["sweep_max"], len(op["epsilons"])
    expected = g * g + 9 * (s + 1) + 2 * e * s
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    cot2 = 1.0 / math.tan(math.radians(BOUNDS_EPSILON_DEG)) ** 2
    sigma0 = 1.0 / math.sqrt(2.0)
    for row in rows:
        fisher = float(row["fisher_info"])
        bound = float(row["variance_bound"])
        if fisher == 0.0 and bound != math.inf:
            problems.append(f"zero information with bound {bound}")
        # a zero-information row carries an infinite bound by definition
        values = [fisher, bound if fisher != 0.0 else 0.0]
        if row["epsilon"]:
            values.append(float(row["epsilon"]))
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value in {row}")
            continue
        m, n = int(row["m"]), int(row["n"])
        if row["family"] == "projective":
            want = 4.0 * cot2 * (2 * m * n + m + n) * _DEFAULT_PHOTONS
        elif row["family"] == "hamiltonian" and row["parameter"] == "alpha":
            # 4 |A_w|^2 <dOmega^2> with A_w = 1/2 for the CLI's selection pair
            if row["coupling"] == "oam":
                want = modes.oam_variance(modes.ModeIndex(m, n))
            elif row["coupling"] == "momentum-x":
                want = modes.momentum_variance_x(modes.ModeIndex(m, n), sigma0)
            else:  # gaussian pointer under the momentum coupling
                want = modes.momentum_variance_x(modes.ModeIndex(0, 0), sigma0)
        else:
            continue
        if not _close(fisher, want, 1e-9):
            problems.append(f"{row['family']} {row['coupling']} ({m},{n}) "
                            f"fisher {fisher} vs {want}")
    return Result(len(rows), problems[:5])


def _run_rotation(op, outdir):
    from hgsense import fields, fisher, modes, weak

    m, n = op["m"], op["n"]
    shell = m + n
    alpha = op["alpha"]
    idx = modes.ModeIndex(m, n)
    pre, post = weak.post_selected_pair(op["epsilon"])
    axis = weak.PauliAxis.z()
    pointer = modes.ModeState.basis(shell, m, n)

    def family(a):
        scenario = weak.WeakScenario(a, pre, post, axis, weak.Coupling.OAM,
                                     pointer)
        return weak.final_pointer_exact(scenario).pointer

    got = {"qfi": fisher.qfi_pure_numeric(family, alpha),
           "qfi_shell": fisher.qfi_rotation_exact(pre, post, axis, alpha, idx)}
    carrier = weak.carrier_state(idx, shell)
    got["cfi"] = fisher.cfi_povm(family, alpha,
                                 fisher.carrier_projection_povm(carrier))
    if shell <= 20:
        qubit = weak.QubitState.from_angles(op["theta"], 0.0)
        got["sld"] = fisher.qfi_mixed_monitor(qubit, alpha, pointer)
        got["closed"] = fisher.qfi_mixed_closed_form(qubit, alpha, pointer)
    if shell <= 6:
        base = fields.synthesize_hg_field(idx, 1.0, side=512)
        carrier_field = fields.synthesize_superposition(carrier, 1.0, side=512)
        got["amp"] = fields.overlap(carrier_field,
                                    fields.rotate_field(base, alpha)).real
    return lambda: _check_rotation(op, got)


def _check_rotation(op, got):
    m, n = op["m"], op["n"]
    problems = []
    qfi = got["qfi"]
    if not _close(qfi, got["qfi_shell"], 1e-6):
        problems.append(f"numeric QFI {qfi} vs shell-exact {got['qfi_shell']}")
    if not (math.isfinite(got["cfi"]) and got["cfi"] <= qfi * (1.0 + 1e-9)):
        problems.append(f"CFI {got['cfi']} above QFI {qfi}")
    if "sld" in got and not (abs(got["sld"] - got["closed"])
                             <= 1e-6 * abs(got["closed"]) + 1e-12):
        problems.append(f"SLD monitor {got['sld']} vs closed form "
                        f"{got['closed']}")
    if "amp" in got:
        want = op["alpha"] * math.sqrt(2 * m * n + m + n)
        if not _close(got["amp"], want, 0.01):
            problems.append(f"field amplitude {got['amp']} vs {want}")
    return Result(1, problems)


def _run_hologram(op, outdir):
    stem = os.path.join(outdir, "holo")
    rc, out = _cli(["hologram", "--mode", f"{op['m']},{op['n']}",
                    "--grid", str(op["grid"]),
                    "--grating-period", str(op["period"]), "--out", stem])
    if rc != 0:
        return _exit_failure(rc)
    return lambda: _check_hologram(op, out, stem + ".fgrd")


def _check_hologram(op, out, path):
    grid = op["grid"]
    problems = []
    purity = math.nan
    for line in out.splitlines():
        if line.startswith("first-order purity:"):
            purity = float(line.split(":")[1])
    if not purity >= 0.99:
        problems.append(f"purity {purity}")
    with open(path, "rb") as handle:
        raw = handle.read()
    magic, version, side = FGRD_HEADER.unpack_from(raw)[:3]
    if (magic, version, side) != (b"FGRD", 1, grid):
        problems.append(f"FGRD header {magic!r} v{version} side {side}")
    elif len(raw) != FGRD_HEADER.size + 16 * side * side:
        problems.append(f"FGRD payload of {len(raw)} bytes")
    return Result(grid * grid / 1e6, problems)


def _run_montecarlo(op, outdir):
    path = os.path.join(outdir, "lockin.csv")
    rc, _ = _cli(["montecarlo", "--mode", f"{op['m']},{op['n']}",
                  "--seed", str(op["seed"]), "--trials", str(op["trials"]),
                  "--electrical-v", repr(op["electrical_v"]), "--out", path])
    if rc != 0:
        return _exit_failure(rc)
    return lambda: _check_montecarlo(op, path)


def _check_montecarlo(op, path):
    from hgsense import experiment

    header, samples, stats = {}, [], {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("#"):
                key, value = line[1:].split("=")
                header[key.strip()] = value.strip()
            elif line.startswith("trial"):
                samples.append(float(line.split(",")[1]))
            elif line.startswith(("mean,", "std,")):
                key, value = line.split(",")
                stats[key] = float(value)
    trials = op["trials"]
    problems = []
    if len(samples) != trials:
        problems.append(f"{len(samples)} samples for {trials} trials")
    analytic = float(header.get("analytic_snr", "nan"))
    mean, std = stats.get("mean", math.nan), stats.get("std", math.nan)
    if not abs(mean - analytic) <= 5.0 * std / math.sqrt(trials):
        problems.append(f"mean SNR {mean} vs analytic {analytic} (std {std})")
    bins = (experiment.SAMPLES_PER_CYCLE
            * math.floor(experiment.DEFAULT_DRIVE_HZ
                         * experiment.DEFAULT_INTEGRATION_S))
    return Result(trials * bins, problems)


def _run_table2(op, outdir):
    path = os.path.join(outdir, "table2.csv")
    rc, _ = _cli(["table2", "--out", path])
    if rc != 0:
        return _exit_failure(rc)
    return lambda: _check_table2(path)


def _check_table2(path):
    with open(path, newline="") as handle:
        rows = {(int(r["m"]), int(r["n"])): float(r["alpha_min_rad"])
                for r in csv.DictReader(handle)}
    problems = [f"table2 ({m},{n}) {rows.get((m, n))} rad vs {urad} urad"
                for (m, n), urad in TABLE2_URAD.items()
                if not _close(rows.get((m, n), math.nan) * 1e6, urad, 0.005)]
    return Result(0, problems)


_RUNNERS = {
    "bounds": _run_bounds,
    "rotation": _run_rotation,
    "hologram": _run_hologram,
    "montecarlo": _run_montecarlo,
    "table2": _run_table2,
}
