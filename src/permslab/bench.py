"""Monte-Carlo benchmarking of the sweep-and-fit pipeline.

Runs seeded noisy sweeps through the estimator for a list of ground
truths and aggregates the estimation errors. Trials are independent;
per-trial failures are recorded, not raised.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

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
            "noise": _json_fields(self.noise),
            "records": [_json_fields(r) for r in self.records],
            "summaries": [_json_fields(s) for s in self.summaries],
        }


# to_dict key for each field whose name it does not keep, and the wall times it leaves out
_JSON_NAMES = {"phase_sigma": "phase_sigma_rad", "converged_count": "converged"}
_UNTIMED = ("fit_seconds", "mean_fit_seconds")


def _json_fields(obj) -> dict:
    """The fields of a dataclass in declaration order, ``truth`` split into
    ``eps_real`` and ``eps_imag``."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name == "truth":
            out.update(eps_real=value.real_part, eps_imag=value.imag_part)
        elif f.name not in _UNTIMED:
            out[_JSON_NAMES.get(f.name, f.name)] = value
    return out


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
            error = None
            try:
                fit = fit_permittivity(data, bounds=bounds, starts=starts)
                eps = fit.permittivity
                fitted = (eps.real_part, eps.imag_part, fit.phase_offset,
                          fit.residual_norm, fit.iterations, fit.converged)
            except Exception as exc:  # per-trial failures must not abort the sweep
                fitted = (None, None, None, None, None, False)
                error = f"{type(exc).__name__}: {exc}"
            records.append(TrialRecord(truth, phase_offset, trial_seed, *fitted,
                                       fit_seconds=time.perf_counter() - t0, error=error))
        report.records.extend(records)
        report.summaries.append(_summarize(truth, records))
    return report


def _angle_difference(fitted: float, target: float) -> float:
    """Signed difference wrapped to (-pi, pi]."""
    d = fitted - target
    return math.remainder(d, 2.0 * math.pi)


def _summarize(truth: ComplexPermittivity, records: list[TrialRecord]) -> TruthSummary:
    ok = [r for r in records if r.error is None]
    a = np.array([r.fitted_a for r in ok])
    b = np.array([r.fitted_b for r in ok])
    err_c = np.array([abs(_angle_difference(r.fitted_c, r.phase_offset)) for r in ok])
    res = np.array([r.residual_norm for r in ok])

    def stat(reduce, values) -> float:  # nan when every trial failed
        return float(reduce(values)) if ok else math.nan

    return TruthSummary(
        truth=truth,
        trials=len(records),
        converged_count=sum(1 for r in records if r.converged),
        mean_a=stat(np.mean, a),
        mean_b=stat(np.mean, b),
        std_a=stat(np.std, a),
        std_b=stat(np.std, b),
        mean_abs_err_a=stat(np.mean, np.abs(a - truth.real_part)),
        mean_abs_err_b=stat(np.mean, np.abs(b - truth.imag_part)),
        mean_abs_err_c=stat(np.mean, err_c),
        mean_residual_norm=stat(np.mean, res),
        mean_fit_seconds=float(np.mean([r.fit_seconds for r in records])),
    )
