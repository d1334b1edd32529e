"""Monte-Carlo sweep benchmark harness."""

import json

import numpy as np
import pytest

import permslab.bench as bench_module
from permslab import BenchReport, ComplexPermittivity, NoiseModel, run_sweep

FIG5_TRUTHS = [
    ComplexPermittivity(2.0, 0.1),
    ComplexPermittivity(3.0, 0.15),
    ComplexPermittivity(7.0, 0.3),
]


def test_zero_noise_recovers_all_truths():
    report = run_sweep(FIG5_TRUTHS, NoiseModel.quiet(), trials=1)
    for summary in report.summaries:
        assert summary.converged_count == 1
        assert summary.mean_abs_err_a < 1e-6
        assert summary.mean_abs_err_b < 1e-6
        assert summary.mean_abs_err_c < 1e-6


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        run_sweep(FIG5_TRUTHS, NoiseModel.quiet(), trials=0)


def test_empty_truths_rejected():
    with pytest.raises(ValueError):
        run_sweep([], NoiseModel.quiet(), trials=1)


def test_seeded_reports_are_identical():
    noise = NoiseModel(seed=21)
    r1 = run_sweep([ComplexPermittivity(2.6, 0.1)], noise, trials=5)
    r2 = run_sweep([ComplexPermittivity(2.6, 0.1)], noise, trials=5)
    for a, b in zip(r1.records, r2.records):
        assert a.fitted_a == b.fitted_a
        assert a.fitted_b == b.fitted_b
        assert a.fitted_c == b.fitted_c
        assert a.residual_norm == b.residual_norm
        assert a.seed == b.seed
    s1, s2 = r1.summaries[0], r2.summaries[0]
    assert (s1.mean_a, s1.mean_b, s1.std_a, s1.std_b) == (
        s2.mean_a,
        s2.mean_b,
        s2.std_a,
        s2.std_b,
    )


def test_noise_monotonicity_in_phase_sigma():
    # isolate the phase-noise factor; errors must not shrink as it grows
    sigmas_deg = [0.0, 0.2, 0.8, 2.0]
    errors = []
    for sd in sigmas_deg:
        noise = NoiseModel(0.0, np.radians(sd), 0.0, seed=33)
        report = run_sweep([ComplexPermittivity(2.6, 0.1)], noise, trials=200)
        errors.append(report.summaries[0].mean_abs_err_a)
    assert all(e1 <= e2 + 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_per_trial_failures_recorded_not_raised(monkeypatch):
    calls = {"n": 0}
    real_fit = bench_module.fit_permittivity

    def flaky_fit(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("synthetic failure")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(bench_module, "fit_permittivity", flaky_fit)
    report = run_sweep([ComplexPermittivity(2.6, 0.1)], NoiseModel(seed=2), trials=3)
    errors = [r.error for r in report.records]
    assert errors[0] is not None and "synthetic failure" in errors[0]
    assert errors[1] is None and errors[2] is None
    assert report.summaries[0].converged_count == 2


def test_report_dict_round_trips_fields():
    report = run_sweep([ComplexPermittivity(2.6, 0.1)], NoiseModel(seed=1), trials=2)
    d = report.to_dict()
    assert d["trials_per_truth"] == 2
    assert d["noise"]["seed"] == 1
    assert len(d["summaries"]) == 1
    assert d["summaries"][0]["trials"] == 2
    assert isinstance(report, BenchReport)


def test_report_dict_schema():
    # the keys come from the dataclass fields, so a new field would otherwise
    # reach report.json unnoticed; wall times must stay out of it
    report = run_sweep([ComplexPermittivity(2.6, 0.1)], NoiseModel(seed=1), trials=2)
    d = report.to_dict()
    assert list(d) == ["trials_per_truth", "noise", "records", "summaries"]
    assert list(d["noise"]) == [
        "amplitude_rel_sigma", "phase_sigma_rad", "amplitude_drift_rel", "seed",
    ]
    for r in d["records"]:
        assert list(r) == [
            "eps_real", "eps_imag", "phase_offset", "seed", "fitted_a", "fitted_b",
            "fitted_c", "residual_norm", "iterations", "converged", "error",
        ]
    assert list(d["summaries"][0]) == [
        "eps_real", "eps_imag", "trials", "converged", "mean_a", "mean_b", "std_a",
        "std_b", "mean_abs_err_a", "mean_abs_err_b", "mean_abs_err_c", "mean_residual_norm",
    ]
    assert "seconds" not in json.dumps(d)


def test_auto_start_policy_runs():
    report = run_sweep(
        [ComplexPermittivity(2.6, 0.1)],
        NoiseModel.quiet(),
        trials=1,
        start_policy="auto",
    )
    # auto starts converge to an exact fit; the parameter split follows
    # the start anchor, not the generating truth
    assert report.summaries[0].converged_count == 1
    assert report.records[0].residual_norm < 1e-8


def test_unknown_start_policy_rejected():
    with pytest.raises(ValueError):
        run_sweep([ComplexPermittivity(2.6, 0.1)], NoiseModel.quiet(), 1,
                  start_policy="oracle")
