"""Spans and counters around the package's public functions.

``Tracer.install`` wraps each function in ``TRACED`` and rebinds the
wrapper in every ``hgsense`` module namespace that holds the original, since
modules bind imported names locally (``weak.lz_matrix``,
``cli.hamiltonian_bound``); ``uninstall`` puts the originals back, and the
two may alternate, with counters kept only while installed. Spans (name,
start, end, parent, op id) stay in memory; ``layer_metrics`` turns them into
per-function call counts and self times, where a span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

TRACED = {
    "modes": ("lz_matrix", "ladder_matrices", "momentum_matrix_x", "variance",
              "hg_wavefunction"),
    "weak": ("coupling_matrix", "final_pointer_exact", "monitor_branches",
             "qubit_monitor_channel"),
    "fisher": ("hamiltonian_bound", "qfi_weak_approx", "qfi_rotation_exact",
               "qfi_pure_numeric", "cfi_povm", "carrier_projection_povm",
               "qfi_mixed_monitor", "sld_solve", "qfi_mixed_closed_form",
               "write_bound_csv"),
    "fields": ("synthesize_hg_field", "synthesize_superposition",
               "gaussian_illumination", "rotate_field", "hologram_phase",
               "modulate", "first_order_extract", "mode_purity",
               "write_phase_pgm", "write_field_binary"),
    "experiment": ("montecarlo_lockin", "sensitivity_table"),
    "cli": ("main",),
}

COUNTERS = ("modes.dense_bytes", "weak.eig_cache.hits", "weak.eig_cache.misses",
            "fisher.stencil_rejects", "fields.pixels", "experiment.count_bins",
            "io.bytes_written", "warnings.SmallProbabilityWarning",
            "warnings.SaturationWarning")

IMPORT_MODULES = ("hgsense.modes", "hgsense.weak", "hgsense.fisher",
                  "hgsense.fields", "hgsense.experiment", "hgsense.cli",
                  "numpy", "scipy.optimize", "scipy.special")


def function_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def _dense_bytes(result, args, kwargs) -> int:
    ops = result if isinstance(result, tuple) else (result,)
    return sum(op.entries.nbytes for op in ops)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op_id]
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._cache_start = (0, 0)

    def install(self):
        if self._restore:
            return
        from hgsense import experiment, weak
        from hgsense.errors import StepSizeError

        self._step_error = StepSizeError
        bins_per_trial = functools.partial(self._count_bins, experiment)
        hooks = {
            "modes.lz_matrix": ("modes.dense_bytes", _dense_bytes),
            "modes.ladder_matrices": ("modes.dense_bytes", _dense_bytes),
            "modes.momentum_matrix_x": ("modes.dense_bytes", _dense_bytes),
            "fields.hologram_phase":
                ("fields.pixels", lambda r, a, k: a[0].side ** 2),
            "experiment.montecarlo_lockin":
                ("experiment.count_bins", bins_per_trial),
        }
        namespaces = [m for name, m in sys.modules.items()
                      if name == "hgsense" or name.startswith("hgsense.")]
        for mod_name, fns in TRACED.items():
            module = importlib.import_module(f"hgsense.{mod_name}")
            for fn in fns:
                original = getattr(module, fn)
                name = f"{mod_name}.{fn}"
                wrapper = self._wrap(name, original, hooks.get(name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._restore.append((ns, attr, original))
        self._cache_start = self._cache_info(weak)

    def uninstall(self):
        if not self._restore:
            return
        from hgsense import weak

        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()
        hits, misses = self._cache_info(weak)
        self.counts["weak.eig_cache.hits"] += hits - self._cache_start[0]
        self.counts["weak.eig_cache.misses"] += misses - self._cache_start[1]

    @staticmethod
    def _cache_info(weak) -> tuple[int, int]:
        cache = getattr(weak, "_coupling_eig", None)
        if cache is None or not hasattr(cache, "cache_info"):
            return (0, 0)
        info = cache.cache_info()
        return (info.hits, info.misses)

    @staticmethod
    def _count_bins(experiment, result, args, kwargs):
        bound = inspect.signature(experiment.montecarlo_lockin).bind(*args, **kwargs)
        bound.apply_defaults()
        budget, noise = bound.arguments["budget"], bound.arguments["noise"]
        bins = (experiment.SAMPLES_PER_CYCLE
                * math.floor(noise.drive_frequency * budget.integration))
        return len(result.samples) * bins

    def _wrap(self, name, original, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except self._step_error as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    counts["fisher.stencil_rejects"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                key, measure = hook
                counts[key] += measure(result, args, kwargs)
            return result

        return wrapper

    def record_op(self, bytes_written: int, caught: list):
        """Count what one op wrote and which tracked warnings it raised."""
        self.counts["io.bytes_written"] += bytes_written
        for item in caught:
            key = f"warnings.{item.category.__name__}"
            if key in COUNTERS:
                self.counts[key] += 1

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls and self times, and the counters; call after
        ``uninstall``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]
        out: dict[str, float] = {}
        for name in function_names():
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for key in COUNTERS:
            out[key] = self.counts[key]
        lookups = out["weak.eig_cache.hits"] + out["weak.eig_cache.misses"]
        out["weak.eig_cache.hit_ratio"] = (
            out["weak.eig_cache.hits"] / lookups if lookups else 0.0)
        return out

