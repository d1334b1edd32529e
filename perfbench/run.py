"""Seeded end-to-end and per-layer benchmark of permslab.

Run from the repository root:

    python3 perfbench/run.py --workload mc-paper --seed 1 --seconds 25 --trace 0

One process, one thread, BLAS pinned to one thread, one closed-loop
client. Times are process CPU time rescaled to a nominal machine speed
(see speed.py and README.md). ``--trace 0`` measures the end-to-end
metrics for ``--seconds``; ``--trace 1`` runs a fixed batch of
operations untraced and then traced, and reports the per-layer metrics.
Either way the zero-noise check operations run last. The last stdout
line is the result object (``correct``, ``attempted``, ``failed``,
``metrics``); the line before it carries provenance and the metrics that
do not fit a relative bound (``error_ratio``, ``eps_err_max``, the tail
percentile). Details and spans are also written to ``.bench_out/``.
README.md in this directory explains the workloads and metrics.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

import sys

sys.dont_write_bytecode = True  # the benchmark's own modules leave no __pycache__

import argparse
import gc
import importlib
import json
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from speed import Speed
from tracer import Tracer, permslab_modules, same_objects, snapshot
from workloads import AMP_SIGMA, DRIFT, PHASE_SIGMA_DEG, TRACED, TIMED, TRUTHS, WARMUP, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
MAX_PROBLEMS = 20
UNITS = {"throughput_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms"}


class Tally:
    """Attempted and failed units; a unit is an operation's unit or one check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, units: int, failed: list[str]) -> None:
        self.attempted += units
        self.failed += len(failed)
        self.problems.extend(failed[: MAX_PROBLEMS - len(self.problems)])


def fresh_import():
    """Import permslab from the checkout's sources, dropping any earlier import."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in permslab_modules():
        del sys.modules[name]
    pl = importlib.import_module("permslab")
    importlib.import_module("permslab.cli")
    if not Path(pl.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"permslab imported from {pl.__file__}, not from {SRC}")
    return pl


def one_op(wl, tally: Tally, stream: int, i: int, tracer=None) -> tuple[float, float, int]:
    """Run and verify one operation; return (CPU s, wall s, units that passed)."""
    inp = wl.inputs(stream, i)
    if tracer is not None:
        tracer.op_id = (stream, i)
    w0 = time.perf_counter()
    c0 = time.process_time()
    try:
        out = wl.execute(inp)
        error = None
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    cpu = time.process_time() - c0
    wall = time.perf_counter() - w0
    if tracer is not None:
        tracer.op_id = None
    if error is None:
        try:
            failed = wl.verify(inp, out)
        except Exception as exc:
            failed = [f"verify: {type(exc).__name__}: {exc}"] * wl.units
    else:
        failed = [error] * wl.units
    tally.add(wl.units, failed)
    return cpu, wall, wl.units - len(failed)


def cache_bytecode() -> None:
    """Keep permslab's bytecode in a cache of the benchmark's own and fill it.

    Every timed import then reads current bytecode from there, whether or
    not the checkout holds a ``src/permslab/__pycache__`` and however old
    it is. The filling import is not timed.
    """
    sys.pycache_prefix = str(OUT_DIR / "pycache")
    sys.dont_write_bytecode = False
    fresh_import()


def set_up(cls, seed: int, workdir: str, tally: Tally, speed: Speed):
    """Import, build the workload's inputs and warm up, ``setup_repeats`` times.

    Each repeat starts from a collected heap, so the garbage of the
    previous repeat's import is not timed. Returns the last workload, the
    nominal-speed seconds of each repeat, and the raw CPU and wall seconds
    of all repeats together.
    """
    cache_bytecode()
    times = []
    cpu_total = wall_total = 0.0
    wl = None
    for k in range(cls.setup_repeats):
        gc.collect()
        speed.sample()
        w0 = time.perf_counter()
        c0 = time.process_time()
        pl = fresh_import()
        wl = cls(pl, seed, workdir)
        wl.setup()
        for j in range(cls.group):
            one_op(wl, tally, WARMUP, k * cls.group + j)
        cpu = time.process_time() - c0
        wall_total += time.perf_counter() - w0
        cpu_total += cpu
        times.append(speed.nominal(cpu))
    return wl, times, {"cpu_s": cpu_total, "wall_s": wall_total}


def measure(wl, tally: Tally, seconds: float, speed: Speed) -> tuple[dict, dict]:
    """Closed loop, one client, for ``seconds`` of wall time.

    Ends on a whole latency group. Returns the metrics, by nominal-speed
    CPU time, and the raw CPU and wall seconds spent inside operations.
    """
    samples = []
    busy = cpu_busy = wall_busy = 0.0
    done = 0
    i = 0
    speed.sample()
    start = time.perf_counter()
    while True:
        spent = 0.0
        for _ in range(wl.group):
            cpu, wall, passed = one_op(wl, tally, TIMED, i)
            i += 1
            spent += speed.nominal(cpu)
            cpu_busy += cpu
            wall_busy += wall
            done += passed
        samples.append(spent / (wl.group * wl.units))
        busy += spent
        if time.perf_counter() - start >= seconds:
            break
    value, pct, beyond = tail(samples)
    metrics = {
        "throughput_per_s": done / busy,
        "latency_ms_p50": statistics.median(samples) * 1e3,
        "latency_ms_tail": value * 1e3,
    }
    return metrics, {
        "operations": i, "cpu_busy_s": cpu_busy, "wall_busy_s": wall_busy,
        "latency_samples": len(samples), "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
    }


def tail(samples):
    """(value, percentile, samples beyond) at the highest whole percentile
    that leaves at least 10 samples beyond it, by nearest rank.

    With fewer than 20 samples no percentile at or above the median
    does; the median is reported then.
    """
    s = sorted(samples)
    n = len(s)
    for q in range(99, 49, -1):
        rank = -(-q * n // 100)
        if n - rank >= 10:
            return s[rank - 1], float(q), n - rank
    return statistics.median(s), 50.0, n // 2


def trace_batch(wl, tally: Tally, tracer: Tracer) -> float:
    """Run each batch operation untraced, then traced; return the throughput ratio.

    Alternating per operation keeps slow drifts of a shared machine out
    of the ratio.
    """
    plain, traced = [], []
    before = snapshot()
    for i in range(wl.trace_batch):
        plain.append(one_op(wl, tally, TRACED, i))
        tracer.install()
        try:
            traced.append(one_op(wl, tally, TRACED, i, tracer))
        finally:
            tracer.uninstall()
    restored = same_objects(before, snapshot())
    tally.add(1, [] if restored else ["tracing left a permslab attribute replaced"])

    def rate(runs):
        return sum(passed for _, _, passed in runs) / sum(cpu for cpu, _, _ in runs)

    return rate(traced) / rate(plain)


def run_checks(wl, tally: Tally) -> list[float]:
    try:
        return wl.checks(tally)
    except Exception as exc:
        tally.add(1, [f"checks: {type(exc).__name__}: {exc}"])
        return []


def git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(wl, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": wl.sizes,
        "truths": [list(t) for t in TRUTHS],
        "noise": {"amplitude_rel_sigma": AMP_SIGMA, "phase_sigma_deg": PHASE_SIGMA_DEG,
                  "amplitude_drift_rel": DRIFT},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
    }


def run(args, workdir: str) -> tuple[dict, dict]:
    """Return (result, detail) for one invocation."""
    tally = Tally()
    speed = Speed()
    wl, setup_times, setup_raw = set_up(WORKLOADS[args.workload], args.seed, workdir, tally,
                                        speed)
    setup_s = statistics.median(setup_times)
    detail = {"setup_repeats_s": setup_times, "setup_raw": setup_raw}
    if args.trace:
        tracer = Tracer()
        overhead = trace_batch(wl, tally, tracer)
        metrics = tracer.layer_metrics(overhead)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_file)
        detail.update(trace_batch=wl.trace_batch, spans=len(tracer.spans),
                      spans_file=str(spans_file.relative_to(ROOT)),
                      layer_self_ms=tracer.layer_self_ms(), missing_targets=tracer.missing)
    else:
        measured, raw = measure(wl, tally, args.seconds, speed)
        metrics = {
            "setup_s": (setup_s, "s"),
            **{name: (value, UNITS[name]) for name, value in measured.items()},
        }
        detail.update(raw)
    q1, median, q3 = statistics.quantiles(speed.samples, n=4)
    detail["reference_kernel_ms"] = {"samples": len(speed.samples), "q1": q1 * 1e3,
                                     "median": median * 1e3, "q3": q3 * 1e3}
    eps_errors = run_checks(wl, tally)
    if not args.trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    detail.update(
        error_ratio={"value": tally.failed / tally.attempted, "unit": "ratio"},
        eps_err_max={"value": max(eps_errors) if eps_errors else None, "unit": "1"},
        setup_s={"value": setup_s, "unit": "s"},
        problems=tally.problems,
        provenance=provenance(wl, args),
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permslab" / "__init__.py").is_file():
        print(f"perfbench: no permslab sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        result, detail = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail_file = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_file.write_text(json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
