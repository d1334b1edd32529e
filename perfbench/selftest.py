"""Smoke tests of the benchmark itself, at reduced sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py

The file is not named ``test_*.py`` so the repository's own test run
does not pick it up.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
EXACT_UNITS = ("count", "bytes")


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a run takes about a second."""
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "setup_repeats", 1)
    monkeypatch.setattr(workloads.McPaper, "TRIALS", 1)
    monkeypatch.setattr(workloads.McPaper, "trace_batch", 2)
    monkeypatch.setattr(workloads.RawIfLarge, "M", 8)
    monkeypatch.setattr(workloads.RawIfLarge, "N", 64)
    monkeypatch.setattr(workloads.RawIfLarge, "trace_batch", 1)
    monkeypatch.setattr(workloads.GammaSmall, "trace_batch", 3)
    monkeypatch.setattr(workloads.IdealFit, "trace_batch", 2)


def invoke(capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def traced(cls, seed, workdir):
    tally = run.Tally()
    wl, _, _ = run.set_up(cls, seed, str(workdir), tally, run.Speed())
    t = tracer.Tracer()
    run.trace_batch(wl, tally, t)
    return tally, t


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(small, capsys, workload):
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result, detail = invoke(capsys, workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        assert detail["error_ratio"]["value"] == 0.0
        assert detail["eps_err_max"]["value"] <= workloads.EPS_TOL


@pytest.mark.parametrize("workload", NAMES)
def test_tracing_restores_every_module_attribute(small, tmp_path, workload):
    tally = run.Tally()
    wl, _, _ = run.set_up(workloads.WORKLOADS[workload], 5, str(tmp_path), tally, run.Speed())
    before = tracer.snapshot()
    t = tracer.Tracer()
    run.trace_batch(wl, tally, t)
    assert t.spans and not t.missing
    assert tracer.same_objects(before, tracer.snapshot())
    assert tally.failed == 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat_for_a_seed(small, tmp_path, workload):
    def counts():
        _, t = traced(workloads.WORKLOADS[workload], 11, tmp_path)
        metrics = t.layer_metrics(overhead_ratio=1.0)
        return {k: v for k, (v, unit) in metrics.items() if unit in EXACT_UNITS}

    assert counts() == counts()


def test_auto_fits_keep_one_start_in_eight(small, tmp_path):
    _, t = traced(workloads.IdealFit, 2, tmp_path)
    value, _ = t.layer_metrics(overhead_ratio=1.0)["estimator.useful_start_ratio"]
    assert value == 0.125


def test_a_flipped_gamma_bit_counts_as_a_failure(small, tmp_path, monkeypatch):
    tally = run.Tally()
    wl, _, _ = run.set_up(workloads.GammaSmall, 7, str(tmp_path), tally, run.Speed())
    assert tally.failed == 0
    dataset_file = wl.pl.io.DatasetFile
    write = dataset_file.write

    def write_flipped(self, path):
        if self.mode == "gamma":
            bits = self.gammas.copy().view(np.uint64)
            bits[0] ^= 1  # lowest mantissa bit of Re(gamma[0])
            self = dataclasses.replace(self, gammas=bits.view(complex))
        write(self, path)

    monkeypatch.setattr(dataset_file, "write", write_flipped)
    _, _, passed = run.one_op(wl, tally, workloads.TIMED, 0)
    assert passed == 0
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "bit-exact" in tally.problems[0]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond_it():
    assert run.tail(list(range(30))) == (19, 66.0, 10)
    assert run.tail(list(range(3000))) == (2969, 99.0, 30)
    assert run.tail(list(range(7))) == (3, 50.0, 3)


def test_no_result_without_the_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gamma-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
