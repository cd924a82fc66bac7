"""One fresh interpreter of the benchmark: a cold-start probe or a timed loop.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the workload, its ops and the mode:

probe  import the workload's entry modules, stamp the monotonic clock
       (the parent started its own clock just before spawning us, so the
       difference is the set-up time), run one op cold, then time the
       reference kernel.
loop   import, run the warm-up ops untimed, then ``passes`` whole passes
       over the op list, one op at a time, timing the reference kernel
       before each op and after the last. With ``trace`` set, the warm-up
       is traced and is followed by ``passes`` pairs of one untraced and
       one traced pass, in alternating order, so that the two sides of
       each pair see the same stretch of machine time; spans and counters
       are recorded in the traced passes only.

Imports are kept to the standard library until the entry modules are in, so
the set-up time is the package's.
"""

import importlib
import json
import os
import resource
import statistics
import sys
import time
import warnings

# The reference kernel: a pure-Python loop, a 2-D FFT and a symmetric
# eigendecomposition, the three kinds of work the package's ops do.
REFERENCE_LOOP = 40000
REFERENCE_FFT_SIDE = 256
REFERENCE_EIGH_SIDE = 100
REFERENCE_RUNS = 7
# Each timing is the fastest of this many back-to-back runs: the first run
# after a large op pays for the caches and memory that op left behind.
REFERENCE_REPEATS = 3


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path) as handle:
        job = json.load(handle)
    import workloads

    for name in workloads.ENTRY_MODULES[job["workload"]]:
        importlib.import_module(name)
    ready = time.monotonic()

    import hgsense

    src = os.path.realpath(job["src"])
    if not os.path.realpath(hgsense.__file__).startswith(src + os.sep):
        print(f"hgsense imported from {hgsense.__file__}, not {src}",
              file=sys.stderr)
        return 2
    runner = Runner(workloads, job["outdir"])
    if job["mode"] == "probe":
        record = runner.run(job["op"])
        reference = Reference()
        result = {"ready": ready, "first_op_s": record[0], "ok": record[2],
                  "reference_s": statistics.median(
                      reference.time() for _ in range(REFERENCE_RUNS)),
                  "problems": runner.problems}
    else:
        result = loop(job, runner)
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


class Runner:
    """Runs ops one at a time, times the program call and checks outputs."""

    def __init__(self, workloads, outdir):
        self.workloads = workloads
        self.outdir = outdir
        self.tracer = None
        self.problems: list[str] = []

    def run(self, op) -> tuple[float, float, bool]:
        """(seconds, work units, ok) for one op; an error is a failed op."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                check = self.workloads.run_op(op, self.outdir)
            except Exception as exc:  # an op that raises counts as failed
                check = _raised(self.workloads, exc)
            elapsed = time.perf_counter() - start
        try:
            result = check()
        except Exception as exc:  # unreadable output fails the check
            result = _raised(self.workloads, exc)()
        self._collect(caught)
        if not result.ok:
            self._fail(op, result.problems)
        return elapsed, result.units, result.ok

    def _fail(self, op, problems):
        if len(self.problems) < 20:
            self.problems.append(f"{json.dumps(op)}: {'; '.join(problems)}")

    def _collect(self, caught):
        """Clear the op's output files, counting them when tracing."""
        written = 0
        for name in os.listdir(self.outdir):
            path = os.path.join(self.outdir, name)
            written += os.path.getsize(path)
            os.unlink(path)
        if self.tracer is not None:
            self.tracer.record_op(written, caught)


class Reference:
    """Fixed work, timed next to the ops to gauge the machine's speed.

    It depends on nothing in the package, so only the machine moves its
    time.
    """

    def __init__(self):
        import numpy

        self.numpy = numpy
        rng = numpy.random.default_rng(0)
        side = REFERENCE_EIGH_SIDE
        matrix = rng.standard_normal((side, side))
        self.matrix = matrix + matrix.T
        side = REFERENCE_FFT_SIDE
        self.field = rng.standard_normal((side, side)) + 0j
        self.time()  # warm the FFT plan and the LAPACK workspace

    def time(self) -> float:
        return min(self._once() for _ in range(REFERENCE_REPEATS))

    def _once(self) -> float:
        start = time.perf_counter()
        total = 0
        for k in range(REFERENCE_LOOP):
            total += k * k
        self.numpy.fft.fft2(self.field)
        self.numpy.linalg.eigh(self.matrix)
        return time.perf_counter() - start


def _raised(workloads, exc):
    return lambda: workloads.Result(0, [f"{type(exc).__name__}: {exc}"])


def loop(job, runner) -> dict:
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
    warmup = [runner.run(op) for op in job["warmup"]]
    reference = None if tracer else Reference()
    references = []
    samples = []
    pass_s = {False: [], True: []}
    if tracer:
        # pairs of one untraced and one traced pass, alternating which
        # side runs first
        schedule = [(False, True) if k % 2 == 0 else (True, False)
                    for k in range(job["passes"])]
    else:
        schedule = [(False,)] * job["passes"]
    for pair in schedule:
        for traced in pair:
            if traced:
                tracer.install()
                runner.tracer = tracer
            elif tracer:
                tracer.uninstall()
                runner.tracer = None
            start = time.perf_counter()
            for op in job["ops"]:
                if tracer:
                    tracer.op_id = len(samples)
                else:
                    references.append(reference.time())
                samples.append(runner.run(op))
            pass_s[traced].append(time.perf_counter() - start)
    if reference:
        references.append(reference.time())
    result = {
        "run_s": sum(pass_s[False]),
        "pass_s": pass_s[False],
        "passes": job["passes"],
        "samples": samples,
        "reference_s": references,
        "warmup_failed": sum(not ok for _, _, ok in warmup),
        "attempted": len(warmup) + len(samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": runner.problems,
        "environment": environment(),
    }
    if tracer:
        tracer.uninstall()
        result["traced_pass_s"] = pass_s[True]
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans
    return result


def environment() -> dict:
    import numpy
    import scipy

    import hgsense

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "hgsense": hgsense.__version__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


if __name__ == "__main__":
    sys.exit(main())
