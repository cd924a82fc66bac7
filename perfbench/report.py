"""Summarise the result files in perfbench/results, one row per workload.

Usage (from the root of a checkout): python3 perfbench/report.py

Untraced runs (end-to-end metrics) and traced runs (per-layer metrics and
trace.overhead_s) are reported in separate tables; each cell is the median
over the runs found, and the run count is shown.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
TOP_SELF = 5


def load() -> dict[tuple[str, bool], list[dict]]:
    runs: dict[tuple[str, bool], list[dict]] = {}
    for path in sorted(RESULTS.glob("*.trace[01].json")):
        report = json.loads(path.read_text())
        if report["smallest"]:
            continue
        traced = "trace.overhead_s" in report["metrics"]
        runs.setdefault((report["workload"], traced), []).append(report)
    return runs


def median_metrics(reports: list[dict]) -> dict[str, tuple[float, str]]:
    names = reports[0]["metrics"]
    return {name: (statistics.median(r["metrics"][name]["value"] for r in reports),
                   names[name]["unit"]) for name in names}


def main() -> int:
    runs = load()
    if not runs:
        print(f"no result files in {RESULTS}")
        return 1
    untraced = sorted((w, r) for (w, t), r in runs.items() if not t)
    if untraced:
        names = list(untraced[0][1][0]["metrics"])
        units = {n: untraced[0][1][0]["metrics"][n]["unit"] for n in names}
        print("end-to-end (untraced), median over runs")
        print(f"{'workload':<20}{'runs':>5}" + "".join(
            f"{n + ' [' + units[n] + ']':>24}" for n in names))
        for workload, reports in untraced:
            med = median_metrics(reports)
            print(f"{workload:<20}{len(reports):>5}" + "".join(
                f"{med[n][0]:>24.6g}" for n in names))
    traced = sorted((w, r) for (w, t), r in runs.items() if t)
    if traced:
        print("\nper-layer (traced runs), median over runs")
        for workload, reports in traced:
            med = median_metrics(reports)
            print(f"{workload:<20} runs {len(reports)}  trace.overhead_s "
                  f"{med['trace.overhead_s'][0]:.4g} s")
            top = sorted(((v, n) for n, (v, _) in med.items()
                          if n.endswith(".self_s")), reverse=True)[:TOP_SELF]
            for value, name in top:
                print(f"    {name:<44}{value:>12.4g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
