"""Monte-Carlo sweep benchmark harness."""

import dataclasses
import json
import math

import numpy as np
import pytest

import permslab.bench as bench_module
import permslab.estimator as estimator_module
from permslab import (
    BenchReport,
    ComplexPermittivity,
    FitBounds,
    NoiseModel,
    PermslabError,
    TrialRecord,
    fit_permittivity,
    generate_dataset,
    run_sweep,
)

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


def test_per_trial_failures_recorded_not_raised():
    # truth 1 - j0 reflects nothing, so its sweeps are degenerate; they share
    # one stacked fit with the other truth's rows, which must still fit
    report = run_sweep([ComplexPermittivity(1.0, 0.0), ComplexPermittivity(2.6, 0.1)],
                       NoiseModel(seed=2), trials=3)
    errors = [r.error for r in report.records]
    assert errors[:3] == ["DegenerateDataError: all reflection samples below 1e-12"] * 3
    assert errors[3:] == [None] * 3
    assert [s.converged_count for s in report.summaries] == [0, 3]
    assert math.isnan(report.summaries[0].mean_a)


def reference_run_sweep(truths, noise, trials, m_count=40, step=1e-4, carrier=79e9,
                        bounds=FitBounds(), start_policy="truth") -> BenchReport:
    """run_sweep as one generate_dataset and one fit_permittivity per trial."""
    report = BenchReport(noise=noise, trials_per_truth=trials)
    for ti, truth in enumerate(truths):
        records = []
        for k in range(trials):
            seed_seq = np.random.SeedSequence((noise.seed, ti, k))
            phase_offset = float(np.random.default_rng(seed_seq).uniform(-math.pi, math.pi))
            trial_seed = int(seed_seq.generate_state(1)[0])
            trial_noise = NoiseModel(noise.amplitude_rel_sigma, noise.phase_sigma,
                                     noise.amplitude_drift_rel, trial_seed)
            data = generate_dataset(truth, phase_offset, m_count, step, carrier, trial_noise)
            starts = ([(truth.real_part, truth.imag_part, phase_offset)]
                      if start_policy == "truth" else "auto")
            try:
                fit = fit_permittivity(data, bounds=bounds, starts=starts)
                eps = fit.permittivity
                fitted = (eps.real_part, eps.imag_part, fit.phase_offset,
                          fit.residual_norm, fit.iterations, fit.converged)
                error = None
            except PermslabError as exc:
                fitted = (None, None, None, None, None, False)
                error = f"{type(exc).__name__}: {exc}"
            records.append(TrialRecord(truth, phase_offset, trial_seed, *fitted, error=error))
        report.records.extend(records)
        report.summaries.append(bench_module._summarize(truth, records))
    return report


@pytest.mark.parametrize("start_policy", ["truth", "auto"])
@pytest.mark.parametrize("quiet", [False, True])
@pytest.mark.parametrize("bounds", [FitBounds(), FitBounds(1.5, 1e-3)])
def test_stacked_sweep_matches_per_trial_loop(start_policy, quiet, bounds):
    # 1 - j0 is degenerate; under FitBounds(1.5, 1e-3) most rows take the
    # r_max corner, and 1.2 - j0.0005 keeps some rows inside the box
    truths = FIG5_TRUTHS + [ComplexPermittivity(1.0, 0.0), ComplexPermittivity(1.2, 5e-4)]
    for seed in (1, 7, 4242):
        noise = NoiseModel.quiet(seed) if quiet else NoiseModel(seed=seed)
        for m_count in (3, 40):
            args = (truths, noise, 4, m_count, 1e-4, 79e9, bounds, start_policy)
            got = json.dumps(run_sweep(*args).to_dict())
            assert got == json.dumps(reference_run_sweep(*args).to_dict())


def test_passes_split_the_stack_without_changing_results(monkeypatch):
    # a large call runs in several stacked passes; where they split must not matter
    truths = [ComplexPermittivity(1.0, 0.0)] + FIG5_TRUTHS
    args = (truths, NoiseModel(seed=5), 5)
    whole = json.dumps(run_sweep(*args, start_policy="auto").to_dict())
    monkeypatch.setattr(bench_module, "_STACK_SAMPLES", 3 * 40)  # 3 rows per pass, 20 rows
    assert json.dumps(run_sweep(*args, start_policy="auto").to_dict()) == whole
    assert json.dumps(reference_run_sweep(*args, start_policy="auto").to_dict()) == whole


def test_stacked_sweep_covers_corner_and_interior_rows():
    # the truths and box of test_stacked_sweep_matches_per_trial_loop reach both branches
    report = run_sweep([ComplexPermittivity(7.0, 0.3), ComplexPermittivity(1.2, 5e-4)],
                       NoiseModel(seed=7), 4, bounds=FitBounds(1.5, 1e-3))
    corner = [(r.fitted_a, r.fitted_b) == (1.5, 1e-3) for r in report.records]
    assert corner[:4] == [True] * 4
    assert not any(corner[4:])


def test_box_edge_quartics_are_solved_only_where_needed(monkeypatch):
    # a row solves its four box-edge quartics only when its nearest stationary
    # root leaves the box; truth anchors sit inside it
    solved = []
    real_roots = estimator_module._unit_circle_roots
    monkeypatch.setattr(estimator_module, "_unit_circle_roots",
                        lambda quartics: solved.append(len(quartics)) or real_roots(quartics))
    args = (FIG5_TRUTHS, NoiseModel(seed=4242), 8)
    run_sweep(*args)
    assert sum(solved) == 3 * 8
    solved.clear()
    auto = json.dumps(run_sweep(*args, start_policy="auto").to_dict())
    assert 3 * 8 < sum(solved) < 5 * 3 * 8
    monkeypatch.undo()
    assert auto == json.dumps(reference_run_sweep(*args, start_policy="auto").to_dict())


def per_statistic_summary(truth, records):
    """_summarize as one numpy reduction per statistic on a 1-D array."""
    ok = [r for r in records if r.error is None]
    a = np.array([r.fitted_a for r in ok])
    b = np.array([r.fitted_b for r in ok])
    err_c = np.array([abs(bench_module._angle_difference(r.fitted_c, r.phase_offset))
                      for r in ok])
    res = np.array([r.residual_norm for r in ok])

    def stat(reduce, values):
        return float(reduce(values)) if ok else math.nan

    return bench_module.TruthSummary(
        truth, len(records), sum(1 for r in records if r.converged),
        mean_a=stat(np.mean, a), mean_b=stat(np.mean, b),
        std_a=stat(np.std, a), std_b=stat(np.std, b),
        mean_abs_err_a=stat(np.mean, np.abs(a - truth.real_part)),
        mean_abs_err_b=stat(np.mean, np.abs(b - truth.imag_part)),
        mean_abs_err_c=stat(np.mean, err_c), mean_residual_norm=stat(np.mean, res),
    )


@pytest.mark.parametrize("trials", [1, 4, 8, 9, 17])
@pytest.mark.parametrize("failing", [(), (1, 2, 7, 8, 16), "all"])
def test_summary_matches_per_statistic_reductions(trials, failing):
    # pairwise summation unrolls from 8 values on; 9 and 17 leave remainders
    rng = np.random.default_rng(trials)
    truth = ComplexPermittivity(3.0, 0.15)
    records = []
    for k in range(trials):
        offset = float(rng.uniform(-math.pi, math.pi))
        if failing == "all" or k in failing:
            records.append(TrialRecord(truth, offset, k, None, None, None, None, None, False,
                                       error="InfeasibleFitError: no root"))
        else:
            fit = (3.0 + rng.normal(0.0, 0.1), abs(rng.normal(0.15, 0.1)),
                   offset + rng.normal(0.0, 0.5), rng.uniform(0.0, 1e-3))
            records.append(TrialRecord(truth, offset, k, *map(float, fit), 0, True))
    got = bench_module._summarize(truth, records)
    assert repr(dataclasses.astuple(got)) == repr(
        dataclasses.astuple(per_statistic_summary(truth, records)))


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
