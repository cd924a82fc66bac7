"""Run perfbench on a parent and a change commit in alternating pairs and
write BENCH_<short change sha>.json at the repository root.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT CHANGE --workdir DIR \
        [--pairs WORKLOAD=N ...] [--traced WORKLOAD=N ...] [--seed0 S] \
        [--out PATH]

Each commit is unpacked with `git archive` into its own directory under
DIR, so only committed files are measured. Pair k of a workload runs
`python3 perfbench/run.py --workload W --seed S --seconds 12 --trace 0` on
both trees with the same seed S = seed0 + k, the parent first on odd pairs
and the change first on even ones; every workload not named in --pairs gets
10 pairs, and WORKLOAD=0 leaves it out. --traced adds N traced pairs per
named workload on the seeds after the untraced ones, and the file reports
the median of every per-layer metric that is nonzero on either side. Pick a
seed0 whose seeds were not used while the change was written. --out writes
the file elsewhere, for example a run that isolates one part of a change
against its other parts.

For each end-to-end metric the file holds both sides' runs, medians and
quartiles, the change's wins and ties over the pairs, the parent's
interquartile range and whether the change's median stays inside the bound
BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 12
DEFAULT_PAIRS = 10
PROTOCOL = ("alternating parent/change pairs on one seed each, the parent "
            "first on odd pairs; every time is in perfbench reference "
            "seconds; wins count the pairs where the change reads better, "
            "ties count for neither")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def unpack(rev: str, target: Path) -> Path:
    """The committed files of rev, unpacked into target."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    target.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target)
    return target


def run(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One perfbench run; its result file with the printed metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS),
         "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    name = f"{workload}.seed{seed}.trace{trace}.json"
    report = json.loads((tree / "perfbench" / "results" / name).read_text())
    report["metrics"] = {name: m["value"] for name, m in metrics.items()}
    return report


def summary(runs: list[float]) -> dict:
    """The runs with their median and quartiles; one run is all three."""
    q1, median, q3 = (statistics.quantiles(runs, n=4, method="inclusive")
                      if len(runs) > 1 else runs * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    higher = spec["better"] == "higher"
    p, c = summary(parent), summary(change)
    ratio = c["median"] / p["median"] if p["median"] else 1.0
    worsening = (1.0 - ratio) if higher else (ratio - 1.0)
    wins = sum((b > a) if higher else (b < a) for a, b in zip(parent, change))
    return {"unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "parent": p, "change": c,
            "change_over_parent": ratio, "parent_iqr": p["q3"] - p["q1"],
            "wins": wins, "ties": sum(a == b for a, b in zip(parent, change)),
            "pairs": len(parent), "relative_worsening": worsening,
            "within_bound": worsening <= spec["bound"]}


def pairs(trees: dict, workload: str, seeds: list[int], trace: int) -> dict:
    """{"parent": [report...], "change": [report...]} over the seeds."""
    out = {"parent": [], "change": []}
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            out[side].append(run(trees[side], workload, seed, trace))
            print(f"{workload} seed {seed} trace {trace} {side}: "
                  f"{out[side][-1]['metrics'].get('work_per_s', '')}",
                  file=sys.stderr, flush=True)
    return out


def parse_counts(items: list[str]) -> dict[str, int]:
    return {name: int(count) for name, count in
            (item.split("=") for item in items)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--pairs", nargs="*", default=[])
    parser.add_argument("--traced", nargs="*", default=[])
    parser.add_argument("--seed0", type=int, default=1900)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ends = {m["name"]: m for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    shas = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", args.change)}
    trees = {side: unpack(sha, args.workdir / side)
             for side, sha in shas.items()}
    counts = {w["name"]: DEFAULT_PAIRS for w in spec["workloads"]}
    counts.update(parse_counts(args.pairs))
    counts = {name: count for name, count in counts.items() if count}
    traced = parse_counts(args.traced)
    environment, workloads = {}, {}
    for workload, count in counts.items():
        seeds = [args.seed0 + k for k in range(1, count + 1)]
        reports = pairs(trees, workload, seeds, 0)
        entry = workloads[workload] = {
            "seeds": seeds, "work_unit": reports["parent"][0]["work_unit"],
            "metrics": {name: compare(
                ends[name], *[[r["metrics"][name] for r in reports[side]]
                              for side in ("parent", "change")])
                for name in ends}}
        for side in shas:
            environment[side] = dict(reports[side][0]["environment"],
                                     git_commit=shas[side])
            del environment[side]["seed"]  # the seeds are listed per workload
        if workload not in traced:
            continue
        seeds = [seeds[-1] + k for k in range(1, traced[workload] + 1)]
        reports = pairs(trees, workload, seeds, 1)
        medians = {side: {name: statistics.median(r["metrics"][name]
                                                  for r in reports[side])
                          for name in reports[side][0]["metrics"]}
                   for side in shas}
        entry["traced"] = {"seeds": seeds, "per_layer_median": {
            name: {"parent": medians["parent"][name], "unit": units[name],
                   "change": medians["change"][name]}
            for name in medians["parent"]
            if name in units and (medians["parent"][name]
                                  or medians["change"][name])}}
    record = {"benchmark": "python3 perfbench/run.py --workload W --seed S "
                           "--seconds 12 --trace 0|1",
              "protocol": PROTOCOL, "workloads": workloads,
              "parent": shas["parent"], "change": shas["change"],
              "src_trees": {side: git("rev-parse", f"{sha}:src")
                            for side, sha in shas.items()},
              "environment": environment}
    path = args.out or ROOT / f"BENCH_{shas['change'][:7]}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
