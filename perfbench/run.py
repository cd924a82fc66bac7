"""hgsense benchmark: one seeded, single-process, closed-loop caller.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, their reasons and every metric are listed in BENCHMARK.json at
the checkout root; perfbench/mapping.json says which per-layer metric should
move which end-to-end metric. The package is run from ``src/`` as it is in
the checkout, in fresh interpreters (perfbench/worker.py), each running one
op at a time with the BLAS thread count set to BLAS_THREADS.

``--trace 0`` measures the end-to-end metrics. Every time in them is in
reference seconds: the wall time measured, times REFERENCE_S over the time
a fixed reference kernel (worker.Reference) took next to it in the same
interpreter. On a shared host the CPU can switch between a fast state and
one about a third slower, each lasting from seconds to minutes; the
reference kernel slows with it, so a run in the slow state reads about what
one in the fast state reads, while a change to the package still moves the
figures in full. The result file keeps the wall times and reference
times as measured, and the medians of the unscaled times under "wall".

setup_s      median over PROBES fresh interpreters of the time from spawning
             the interpreter to having imported the workload's entry
             modules. Half the probes run before the timed loop and half
             after it. Each probe runs the reference kernel
             worker.REFERENCE_RUNS times after its first op, and the
             median scales the probe.
first_op_s   median over the same interpreters of their first op, run cold:
             the op in the middle of the size-ordered pass, whose size is
             the same on every seed, so the figure belongs to a typical op.
work_per_s   work done in the workload's domain unit (workloads.WORK_UNIT)
             per reference second of op time, over the timed loop.
op_p50_s     median latency of an op in the timed loop, which starts after
             untimed warm-up ops (workloads.warmup_ops) have filled the
             package's caches. The reference kernel runs before every op
             and after the last, and an op is scaled by the median of the
             two runs on each side of it.
op_tail_s    the latency with exactly ten samples above it, i.e. the highest
             percentile with at least ten samples beyond it; the result file
             records that percentile and the sample count.
peak_rss_mb  ru_maxrss of the timed-loop interpreter.
ok_frac      share of attempted ops (probes, warm-up and loop) that ran
             without error and passed their correctness check, i.e.
             1 - fail_frac.

The timed loop runs whole passes over the seeded op list: the number that
comes nearest ``--seconds`` at the nominal pass time
workloads.PASS_SECONDS, and at least one. The op count therefore depends
only on the workload and ``--seconds``, and two commits are always timed on
the same ops.

``--trace 1`` measures the per-layer metrics in one loop interpreter: the
warm-up, traced, then pairs of one untraced and one traced pass, half as
many pairs (rounded up) as an untraced run has passes. The traced passes
wrap the package's public functions (perfbench/tracer.py). The run reports
calls and self time per function and the counters in tracer.COUNTERS,
summed over the traced warm-up and passes; import times from
``python -X importtime``; and trace.overhead_s, the traced passes' wall
time minus that of the untraced passes they are paired with.

Each run writes perfbench/results/<workload>.seed<N>.trace<T>.json with the
environment (package, Python, numpy, scipy and BLAS versions, BLAS threads,
nproc, git commit, seed), the op list and every sample; traced runs also
write their spans next to it. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
TMP_DIR = HERE / "tmp"

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402

PROBES = 4
# Reference kernel time (worker.Reference.time) on a 2-CPU x86-64 host in
# its fast state when the benchmark was defined. A reference second is a
# measured second scaled to that speed; the constant only sets the scale.
REFERENCE_S = 0.0055
IMPORTTIME_RUNS = 3
# The caller is one single-threaded closed loop; one BLAS thread (never more
# than nproc) keeps its timings steady on a shared machine.
BLAS_THREADS = 1
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smallest", action="store_true",
                        help="smallest op sizes, for the smoke check")
    args = parser.parse_args(argv)
    # a terminated run still stops and reaps its worker interpreters
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if not (SRC / "hgsense" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'hgsense'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"]
                 for m in spec["end_to_end"] + spec["per_layer"]}
        bench = Bench(args, units)
        report = bench.run()
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    size = ".smallest" if args.smallest else ""
    stem = f"{args.workload}{size}.seed{args.seed}.trace{args.trace}"
    spans = report.pop("spans", None)
    if spans is not None:
        (RESULTS / f"{stem}.spans.json").write_text(json.dumps(spans))
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print_table(report)
    print(json.dumps({key: report[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


class Bench:
    def __init__(self, args, units: dict[str, str]):
        self.args = args
        self.units = units
        self.deadline = time.monotonic() + DEADLINE_S
        self.ops = workloads.make_ops(args.workload, args.seed, args.smallest)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def run(self) -> dict:
        TMP_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=TMP_DIR) as tmp:
            self.tmp = Path(tmp)
            if self.args.trace:
                metrics, extra = self.traced()
            else:
                metrics, extra = self.untraced()
        attempted, failed = extra.pop("attempted"), extra.pop("failed")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": self.units[name]}
                        for name, value in metrics.items()},
            "workload": self.args.workload,
            "work_unit": workloads.WORK_UNIT[self.args.workload],
            "smallest": self.args.smallest,
            "seconds": self.args.seconds,
            "environment": {**extra.pop("environment"), **self.host()},
            "ops": self.ops,
            **extra,
        }

    def host(self) -> dict:
        return {
            "seed": self.args.seed,
            "nproc": os.cpu_count(),
            "blas_threads_set": BLAS_THREADS,
            "git_commit": git_commit(),
            "executable": os.path.basename(sys.executable),
        }

    # -- subprocesses -------------------------------------------------------

    def job(self, name: str, job: dict) -> list[str]:
        """Write a worker job file; returns the worker command line."""
        job = {"workload": self.args.workload, "src": str(SRC),
               "outdir": str(self.tmp / name), **job}
        (self.tmp / name).mkdir(exist_ok=True)
        job_path = self.tmp / f"{name}.job.json"
        job_path.write_text(json.dumps(job))
        return [sys.executable, str(HERE / "worker.py"), str(job_path),
                str(self.tmp / f"{name}.result.json")]

    def result(self, name: str) -> dict:
        return json.loads((self.tmp / f"{name}.result.json").read_text())

    def probe(self, op: dict) -> dict:
        """One fresh interpreter: set-up time and the cold op."""
        cmd = self.job("probe", {"mode": "probe", "op": op})
        spawned = time.monotonic()
        self.call(cmd)
        result = self.result("probe")
        scale = REFERENCE_S / result["reference_s"]
        return {"setup_s": (result["ready"] - spawned) * scale,
                "first_op_s": result["first_op_s"] * scale,
                "wall_setup_s": result["ready"] - spawned,
                "wall_first_op_s": result["first_op_s"],
                "reference_s": result["reference_s"],
                "ok": result["ok"], "problems": result["problems"]}

    def call(self, cmd: list[str]) -> str:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=remaining,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
            raise BenchError(f"timed out: {cmd[1:]}") from exc
        if proc.returncode != 0:
            raise BenchError(f"{cmd[1:]} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        return proc.stderr

    def passes(self) -> int:
        return max(1, round(self.args.seconds / workloads.PASS_SECONDS))

    def loop(self, trace: bool, passes: int) -> dict:
        """Warm-up and ``passes`` timed passes in one fresh interpreter."""
        cmd = self.job("loop", {
            "mode": "loop", "ops": self.ops, "trace": trace,
            "warmup": workloads.warmup_ops(self.ops), "passes": passes,
        })
        self.call(cmd)
        return self.result("loop")

    # -- the two kinds of run -----------------------------------------------

    def untraced(self):
        op = workloads.median_op(self.ops)
        probes = [self.probe(op) for _ in range(PROBES // 2)]
        loop = self.loop(False, self.passes())
        probes += [self.probe(op) for _ in range(PROBES - PROBES // 2)]
        times = scaled_times(loop)
        tail, percentile = tail_latency(times)
        attempted = len(probes) + loop["attempted"]
        failed = sum(not p["ok"] for p in probes) + failed_ops(loop)
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "first_op_s": statistics.median(p["first_op_s"] for p in probes),
            "work_per_s": sum(s[1] for s in loop["samples"]) / sum(times),
            "op_p50_s": statistics.median(times),
            "op_tail_s": tail,
            "peak_rss_mb": loop["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        extra = {
            "attempted": attempted, "failed": failed,
            "environment": loop["environment"],
            "op_tail_percentile": percentile,
            "op_samples": len(times),
            "passes": loop["passes"],
            "run_s": loop["run_s"],
            "pass_s": loop["pass_s"],
            "wall": {
                "setup_s": statistics.median(p["wall_setup_s"] for p in probes),
                "first_op_s": statistics.median(p["wall_first_op_s"]
                                                for p in probes),
                "op_p50_s": statistics.median(s[0] for s in loop["samples"]),
                "reference_s": statistics.median(loop["reference_s"]),
            },
            "probes": probes,
            "samples": loop["samples"],
            "reference_s": loop["reference_s"],
            "problems": [p for pr in probes for p in pr["problems"]]
                        + loop["problems"],
        }
        return metrics, extra

    def traced(self):
        loop = self.loop(True, (self.passes() + 1) // 2)
        metrics = dict(loop["layers"])
        metrics.update(self.import_times())
        metrics["trace.overhead_s"] = (sum(loop["traced_pass_s"])
                                       - sum(loop["pass_s"]))
        extra = {
            "attempted": loop["attempted"], "failed": failed_ops(loop),
            "environment": loop["environment"],
            "passes": loop["passes"],
            "pass_s": {"untraced": loop["pass_s"],
                       "traced": loop["traced_pass_s"]},
            "problems": loop["problems"],
            "spans": loop["spans"],
        }
        return metrics, extra

    def import_times(self) -> dict:
        """Median cumulative import time per module from -X importtime."""
        entry = workloads.ENTRY_MODULES[self.args.workload]
        modules = list(entry) + [m for m in tracer.IMPORT_MODULES
                                 if m not in entry]
        code = "; ".join(f"import {m}" for m in modules)
        runs = []
        for _ in range(IMPORTTIME_RUNS):
            stderr = self.call([sys.executable, "-X", "importtime", "-c", code])
            runs.append(parse_importtime(stderr))
        return {f"setup.import.{m}_s":
                statistics.median(run.get(m, 0.0) for run in runs)
                for m in tracer.IMPORT_MODULES}


def failed_ops(loop: dict) -> int:
    return loop["warmup_failed"] + sum(not s[2] for s in loop["samples"])


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        out[name.strip()] = int(cumulative) / 1e6
    return out


def scaled_times(loop: dict) -> list[float]:
    """Loop op times in reference seconds.

    ``reference_s`` holds the reference kernel's time before each op and
    after the last one, so op k lies between entries k and k + 1. The op is
    scaled by the median of the two entries on each side of it, which one
    interrupted reference run does not move.
    """
    ref = loop["reference_s"]
    return [sample[0] * REFERENCE_S
            / statistics.median(ref[max(0, k - 1):k + 3])
            for k, sample in enumerate(loop["samples"])]


def tail_latency(times: list[float]) -> tuple[float, float]:
    """Latency with ten samples above it and its percentile.

    With ten samples or fewer no value has ten beyond it; the maximum is
    reported at percentile 100.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def print_table(report: dict):
    """Every metric of the run by name, value and unit."""
    print(f"workload {report['workload']}  seed {report['environment']['seed']}"
          f"  work unit: {report['work_unit']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    if "op_tail_percentile" in report:
        print(f"  op_tail_s is p{report['op_tail_percentile']:.1f} of "
              f"{report['op_samples']} samples; times in reference seconds")
    for problem in report["problems"][:5]:
        print(f"  FAILED {problem}")


if __name__ == "__main__":
    sys.exit(main())
