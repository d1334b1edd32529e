"""Span tracer that wraps permslab's public callables from the outside.

Nothing inside ``src/`` knows about tracing. ``Tracer.install`` replaces
each target callable under every name its callers look it up by (the
defining module, every permslab module that imported it, the package
namespace, or the class dict for methods) with a recording wrapper, and
``Tracer.uninstall`` puts the original objects back. Spans are recorded
only while ``op_id`` is set, so the benchmark's own checks, which also
call permslab, stay out of the trace.

A span is ``(name, layer, start_ns, end_ns, parent_index, op_id)``, its
times read from the process CPU clock like every time the benchmark
reports. A layer's self time is its spans' durations minus the time
their direct child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

# (layer, module, callable) -- one layer per permslab module
TARGETS = (
    ("cli", "cli", "main"),
    ("io", "io", "DatasetFile.read"),
    ("io", "io", "DatasetFile.write"),
    ("io", "io", "DatasetFile.to_sweep"),
    ("io", "io", "ReportFile.from_fit"),
    ("io", "io", "ReportFile.read"),
    ("io", "io", "ReportFile.write"),
    ("synth", "synth", "generate_dataset"),
    ("synth", "synth", "generate_if_datasets"),
    ("synth", "synth", "extract_sweep"),
    ("fmcw", "fmcw", "dft"),
    ("fmcw", "fmcw", "synth_if_trace"),
    ("estimator", "estimator", "fit_permittivity"),
    ("estimator", "estimator", "fit_ideal"),
    ("estimator", "estimator", "residuals"),
    ("estimator", "estimator", "jacobian"),
    ("estimator", "estimator", "phase_slope_diagnostic"),
    ("trf", "trf", "least_squares_trf"),
    ("trf", "trf", "numerical_jacobian"),
    ("em", "em", "effective_reflection"),
    ("em", "em", "slab_bounce_terms"),
    ("em", "em", "complex_sqrt_lossy"),
    ("bench", "bench", "run_sweep"),
)

LAYERS = ("cli", "io", "synth", "fmcw", "estimator", "trf", "em", "bench")

FITS = ("estimator.fit_permittivity", "estimator.fit_ideal")


def permslab_modules() -> dict:
    return {
        name: mod
        for name, mod in list(sys.modules.items())
        if name == "permslab" or name.startswith("permslab.")
    }


def snapshot() -> dict:
    """Every attribute of every permslab module and of the classes they define."""
    snap = {}
    for name, mod in permslab_modules().items():
        for key, value in vars(mod).items():
            if key == "__warningregistry__":  # grows whenever a module warns
                continue
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for ckey, cvalue in vars(value).items():
                    snap[(name, key, ckey)] = cvalue
    return snap


def same_objects(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(before[k] is after[k] for k in before)


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op_id = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._fits: list[list] = []  # per open fit: solutions of its solves so far
        self._restore: list = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        self.missing = []
        mods = permslab_modules()
        for layer, modname, qual in TARGETS:
            mod = mods.get("permslab." + modname)
            name = f"{modname}.{qual}"
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mod, cls_name, None)
                raw = vars(cls).get(attr) if isinstance(cls, type) else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, layer))
                else:
                    new = self._wrap(raw, name, layer)
                self._replace(cls, attr, raw, new)
                continue
            fn = getattr(mod, qual, None)
            if fn is None:
                self.missing.append(name)
                continue
            new = self._wrap(fn, name, layer)
            for owner in mods.values():
                for key, value in list(vars(owner).items()):
                    if value is fn:
                        self._replace(owner, key, fn, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr, original, new) -> None:
        setattr(owner, attr, new)
        self._restore.append((owner, attr, original))

    def _wrap(self, fn, name, layer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op_id is None:
                return fn(*args, **kwargs)
            return tracer._call(fn, name, layer, args, kwargs)

        return wrapper

    # -- recording --------------------------------------------------------

    def _call(self, fn, name, layer, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        state = self._before(name, args, kwargs)
        t0 = time.process_time_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.process_time_ns()
            self._stack.pop()
            self.spans[index] = (name, layer, t0, t1, parent, self.op_id)
            if name in FITS:
                self._fits.pop()
        self._after(name, args, kwargs, state, result)
        return result

    def _before(self, name, args, kwargs):
        if name in FITS:
            self._fits.append([])
        elif name == "trf.least_squares_trf":
            # a start is a solve from a fresh point; a polish continues
            # from the solution of an earlier solve of the same fit
            x0 = np.asarray(args[2] if len(args) > 2 else kwargs["x0"], dtype=float)
            solved = self._fits[-1] if self._fits else []
            return not any(np.array_equal(x0, x) for x in solved)
        return None

    def _after(self, name, args, kwargs, is_start, result):
        c = self.counts
        if name in FITS:
            c["estimator.iterations"] += result.iterations
        elif name == "trf.least_squares_trf":
            c["trf.iterations"] += result.iterations
            c["trf.converged"] += bool(result.converged)
            c["estimator.starts"] += is_start
            if self._fits:
                self._fits[-1].append(np.array(result.x, dtype=float))
        elif name == "fmcw.dft":
            c["fmcw.dft_samples"] += args[0].samples.size
        elif name in ("io.DatasetFile.read", "io.ReportFile.read"):
            c["io.bytes_read"] += os.path.getsize(args[1])
        elif name in ("io.DatasetFile.write", "io.ReportFile.write"):
            c["io.bytes_written"] += os.path.getsize(args[1])
        elif name == "bench.run_sweep":
            c["bench.trials"] += len(result.records)

    # -- reducing ---------------------------------------------------------

    def self_times_ns(self) -> tuple[Counter, Counter, Counter]:
        """(self ns per span name, self ns per layer, calls per span name)."""
        child = [0] * len(self.spans)
        for name, layer, t0, t1, parent, op in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: Counter = Counter()
        by_layer: Counter = Counter()
        calls: Counter = Counter()
        for (name, layer, t0, t1, parent, op), inner in zip(self.spans, child):
            own = t1 - t0 - inner
            by_name[name] += own
            by_layer[layer] += own
            calls[name] += 1
        return by_name, by_layer, calls

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics as ``{name: (value, unit)}``."""
        by_name, by_layer, calls = self.self_times_ns()
        c = self.counts

        def ms(*names):
            return sum(by_name[n] for n in names) / 1e6

        def mbps(nbytes, millis):
            return nbytes / 1e6 / (millis / 1e3) if millis > 0 else 0.0

        def layer_calls(layer):
            return sum(n for name, n in calls.items() if name.split(".")[0] == layer)

        fits = calls["estimator.fit_permittivity"] + calls["estimator.fit_ideal"]
        starts = c["estimator.starts"]
        write_ms = ms("io.DatasetFile.write", "io.ReportFile.write")
        read_ms = ms("io.DatasetFile.read", "io.ReportFile.read")
        trf_calls = calls["trf.least_squares_trf"]
        return {
            "cli.calls": (calls["cli.main"], "count"),
            "cli.self_ms": (by_layer["cli"] / 1e6, "ms"),
            "io.write_ms": (write_ms, "ms"),
            "io.read_ms": (read_ms, "ms"),
            "io.bytes_written": (c["io.bytes_written"], "bytes"),
            "io.bytes_read": (c["io.bytes_read"], "bytes"),
            "io.write_MBps": (mbps(c["io.bytes_written"], write_ms), "MB/s"),
            "io.read_MBps": (mbps(c["io.bytes_read"], read_ms), "MB/s"),
            "synth.generate_ms": (
                ms("synth.generate_dataset", "synth.generate_if_datasets"), "ms"),
            "synth.extract_ms": (ms("synth.extract_sweep"), "ms"),
            "synth.calls": (layer_calls("synth"), "count"),
            "fmcw.dft_calls": (calls["fmcw.dft"], "count"),
            "fmcw.dft_ms": (ms("fmcw.dft"), "ms"),
            "fmcw.dft_bytes": (16 * c["fmcw.dft_samples"], "bytes"),
            "fmcw.synth_if_trace_calls": (calls["fmcw.synth_if_trace"], "count"),
            "fmcw.synth_if_trace_ms": (ms("fmcw.synth_if_trace"), "ms"),
            "estimator.fit_calls": (fits, "count"),
            "estimator.self_ms": (by_layer["estimator"] / 1e6, "ms"),
            "estimator.residual_evals": (calls["estimator.residuals"], "count"),
            "estimator.jacobian_evals": (calls["estimator.jacobian"], "count"),
            "estimator.iterations": (c["estimator.iterations"], "count"),
            "estimator.starts_per_fit": (starts / fits if fits else 0.0, "count"),
            "estimator.useful_start_ratio": (fits / starts if starts else 0.0, "ratio"),
            "trf.calls": (trf_calls, "count"),
            "trf.ms": (by_layer["trf"] / 1e6, "ms"),
            "trf.iterations": (c["trf.iterations"], "count"),
            "trf.converged_ratio": (
                c["trf.converged"] / trf_calls if trf_calls else 0.0, "ratio"),
            "em.calls": (layer_calls("em"), "count"),
            "em.ms": (by_layer["em"] / 1e6, "ms"),
            "bench.trials": (c["bench.trials"], "count"),
            "bench.self_ms": (by_layer["bench"] / 1e6, "ms"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def layer_self_ms(self) -> dict:
        _, by_layer, _ = self.self_times_ns()
        return {layer: by_layer[layer] / 1e6 for layer in LAYERS}

    def write_spans(self, path) -> None:
        """One JSON array per line: name, layer, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
