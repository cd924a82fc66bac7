"""Smoke check of the benchmark itself.

Usage (from the root of a checkout): python3 perfbench/smoke.py

Runs every workload at its smallest size, untraced and traced, and exits 1
if a run fails, if a metric that BENCHMARK.json or perfbench/mapping.json
names is missing or not a finite number, or if any op failed (ok_frac below
1, i.e. fail_frac above 0).
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload: str, trace: int, expected: list[str]) -> list[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smallest"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{label}: {result.get('failed')} failed ops")
    metrics = result.get("metrics", {})
    for name in expected:
        value = metrics.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: metric {name} missing or {value!r}")
    if set(metrics) - set(expected):
        problems.append(f"{label}: unlisted metrics {sorted(set(metrics) - set(expected))}")
    if trace == 0 and metrics.get("ok_frac", {}).get("value") != 1.0:
        problems.append(f"{label}: ok_frac {metrics.get('ok_frac')}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    mapping = json.loads((HERE / "mapping.json").read_text())
    problems = [f"mapping names unknown metric {name}"
                for row in mapping["moves"]
                for name in row["layer_metrics"] + row["end_to_end"]
                if name not in end_to_end + per_layer]
    for workload in (w["name"] for w in spec["workloads"]):
        problems += check_run(workload, 0, end_to_end)
        problems += check_run(workload, 1, per_layer)
        print(f"smoke {workload}: done", flush=True)
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
