"""Monte-Carlo benchmarking of the sweep-and-fit pipeline.

Runs seeded noisy sweeps through the estimator for a list of ground
truths and aggregates the estimation errors. Trials are independent;
per-trial failures are recorded, not raised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .em import ComplexPermittivity
from .estimator import FitBounds, fit_permittivity
from .synth import NoiseModel, generate_dataset


@dataclass(frozen=True)
class TrialRecord:
    """One noisy sweep fitted once."""

    truth: ComplexPermittivity
    phase_offset: float
    seed: int
    fitted_a: float | None
    fitted_b: float | None
    fitted_c: float | None
    residual_norm: float | None
    iterations: int | None
    converged: bool
    fit_seconds: float
    error: str | None = None


@dataclass
class TruthSummary:
    """Aggregate statistics of all trials for one ground truth."""

    truth: ComplexPermittivity
    trials: int
    converged_count: int
    mean_a: float
    mean_b: float
    std_a: float
    std_b: float
    mean_abs_err_a: float
    mean_abs_err_b: float
    mean_abs_err_c: float
    mean_residual_norm: float
    mean_fit_seconds: float


@dataclass
class BenchReport:
    """Per-trial records plus per-truth summaries of a sweep benchmark."""

    noise: NoiseModel
    trials_per_truth: int
    records: list[TrialRecord] = field(default_factory=list)
    summaries: list[TruthSummary] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Machine-readable form.

        Wall-time fields are deliberately left out so serialized reports
        are bit-identical for identical inputs and seeds; timings stay
        available on the in-memory records and summaries.
        """
        return {
            "trials_per_truth": self.trials_per_truth,
            "noise": {
                "amplitude_rel_sigma": self.noise.amplitude_rel_sigma,
                "phase_sigma_rad": self.noise.phase_sigma,
                "amplitude_drift_rel": self.noise.amplitude_drift_rel,
                "seed": self.noise.seed,
            },
            "records": [
                {
                    "eps_real": r.truth.real_part,
                    "eps_imag": r.truth.imag_part,
                    "phase_offset": r.phase_offset,
                    "seed": r.seed,
                    "fitted_a": r.fitted_a,
                    "fitted_b": r.fitted_b,
                    "fitted_c": r.fitted_c,
                    "residual_norm": r.residual_norm,
                    "iterations": r.iterations,
                    "converged": r.converged,
                    "error": r.error,
                }
                for r in self.records
            ],
            "summaries": [
                {
                    "eps_real": s.truth.real_part,
                    "eps_imag": s.truth.imag_part,
                    "trials": s.trials,
                    "converged": s.converged_count,
                    "mean_a": s.mean_a,
                    "mean_b": s.mean_b,
                    "std_a": s.std_a,
                    "std_b": s.std_b,
                    "mean_abs_err_a": s.mean_abs_err_a,
                    "mean_abs_err_b": s.mean_abs_err_b,
                    "mean_abs_err_c": s.mean_abs_err_c,
                    "mean_residual_norm": s.mean_residual_norm,
                }
                for s in self.summaries
            ],
        }


def run_sweep(
    truths: list[ComplexPermittivity],
    noise: NoiseModel,
    trials: int,
    m_count: int = 40,
    step: float = 1e-4,
    carrier: float = 79e9,
    bounds: FitBounds = FitBounds(),
    start_policy: str = "truth",
) -> BenchReport:
    """Fit ``trials`` seeded noisy sweeps per truth and aggregate errors.

    Each trial draws its own phase offset uniformly from [-pi, pi) and
    derives its dataset seed from (noise.seed, truth index, trial
    index), so reports are bit-reproducible for identical inputs.

    Args:
        start_policy: "truth" seeds each fit at the generating
            parameters (round-trip benchmarking: measures how far noise
            pushes the fit from a known anchor); "auto" uses the
            estimator's default anchor (1.5, 0.01), in which case the
            phase-offset gauge freedom dominates the spread.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not truths:
        raise ValueError("empty truth list")
    if start_policy not in ("truth", "auto"):
        raise ValueError(f"unknown start policy {start_policy!r}")

    report = BenchReport(noise=noise, trials_per_truth=trials)
    for ti, truth in enumerate(truths):
        records = []
        for k in range(trials):
            seed_seq = np.random.SeedSequence((noise.seed, ti, k))
            offset_rng = np.random.default_rng(seed_seq)
            phase_offset = float(offset_rng.uniform(-math.pi, math.pi))
            trial_seed = int(seed_seq.generate_state(1)[0])
            trial_noise = NoiseModel(
                noise.amplitude_rel_sigma,
                noise.phase_sigma,
                noise.amplitude_drift_rel,
                trial_seed,
            )
            data = generate_dataset(truth, phase_offset, m_count, step, carrier, trial_noise)
            starts = (
                [(truth.real_part, truth.imag_part, phase_offset)]
                if start_policy == "truth"
                else "auto"
            )
            t0 = time.perf_counter()
            try:
                fit = fit_permittivity(data, bounds=bounds, starts=starts)
                records.append(
                    TrialRecord(
                        truth=truth,
                        phase_offset=phase_offset,
                        seed=trial_seed,
                        fitted_a=fit.permittivity.real_part,
                        fitted_b=fit.permittivity.imag_part,
                        fitted_c=fit.phase_offset,
                        residual_norm=fit.residual_norm,
                        iterations=fit.iterations,
                        converged=fit.converged,
                        fit_seconds=time.perf_counter() - t0,
                    )
                )
            except Exception as exc:  # per-trial failures must not abort the sweep
                records.append(
                    TrialRecord(
                        truth=truth,
                        phase_offset=phase_offset,
                        seed=trial_seed,
                        fitted_a=None,
                        fitted_b=None,
                        fitted_c=None,
                        residual_norm=None,
                        iterations=None,
                        converged=False,
                        fit_seconds=time.perf_counter() - t0,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
        report.records.extend(records)
        report.summaries.append(_summarize(truth, records))
    return report


def _angle_difference(fitted: float, target: float) -> float:
    """Signed difference wrapped to (-pi, pi]."""
    d = fitted - target
    return math.remainder(d, 2.0 * math.pi)


def _summarize(truth: ComplexPermittivity, records: list[TrialRecord]) -> TruthSummary:
    ok = [r for r in records if r.error is None]
    if ok:
        a = np.array([r.fitted_a for r in ok])
        b = np.array([r.fitted_b for r in ok])
        err_c = np.array([abs(_angle_difference(r.fitted_c, r.phase_offset)) for r in ok])
        res = np.array([r.residual_norm for r in ok])
        stats = dict(
            mean_a=float(a.mean()),
            mean_b=float(b.mean()),
            std_a=float(a.std()),
            std_b=float(b.std()),
            mean_abs_err_a=float(np.abs(a - truth.real_part).mean()),
            mean_abs_err_b=float(np.abs(b - truth.imag_part).mean()),
            mean_abs_err_c=float(err_c.mean()),
            mean_residual_norm=float(res.mean()),
        )
    else:
        stats = dict(
            mean_a=math.nan, mean_b=math.nan, std_a=math.nan, std_b=math.nan,
            mean_abs_err_a=math.nan, mean_abs_err_b=math.nan,
            mean_abs_err_c=math.nan, mean_residual_norm=math.nan,
        )
    return TruthSummary(
        truth=truth,
        trials=len(records),
        converged_count=sum(1 for r in records if r.converged),
        mean_fit_seconds=float(np.mean([r.fit_seconds for r in records])),
        **stats,
    )
