"""Monte-Carlo benchmarking of the sweep-and-fit pipeline.

Runs seeded noisy sweeps through the estimator for a list of ground
truths and aggregates the estimation errors. Trials are independent;
per-trial failures are recorded, not raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .em import ComplexPermittivity
from .estimator import AUTO_STARTS, FitBounds, _fit_rows, step_phase_advance
from .synth import NoiseModel, _noisy_sweeps, _pcg64_seeding


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
    converged: bool
    error: str | None = None


@dataclass
class TruthSummary:
    """Aggregate statistics of all trials for one ground truth.

    The means and standard deviations are over the trials whose fit
    succeeded: they read nan when every trial failed, and a mean whose
    sum overflows reads inf (the errors of a truth near 1e308).
    """

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


@dataclass
class BenchReport:
    """Per-trial records plus per-truth summaries of a sweep benchmark."""

    noise: NoiseModel
    trials_per_truth: int
    records: list[TrialRecord] = field(default_factory=list)
    summaries: list[TruthSummary] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Machine-readable form; bit-identical for identical inputs and seeds."""
        return {
            "trials_per_truth": self.trials_per_truth,
            "noise": _json_fields(self.noise),
            "records": [_json_fields(r) for r in self.records],
            "summaries": [_json_fields(s) for s in self.summaries],
        }


# to_dict key for each field whose name it does not keep
_JSON_NAMES = {"phase_sigma": "phase_sigma_rad", "converged_count": "converged"}


def _json_fields(obj) -> dict:
    """The fields of a dataclass in declaration order, ``truth`` split into
    ``eps_real`` and ``eps_imag``."""
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name == "truth":
            out.update(eps_real=value.real_part, eps_imag=value.imag_part)
        else:
            out[_JSON_NAMES.get(f.name, f.name)] = value
    return out


# samples per stacked pass of run_sweep, so that its memory does not grow with the trial count
_STACK_SAMPLES = 1 << 16


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

    Trial k of truth ti takes the phase offset
    ``default_rng(SeedSequence((noise.seed, ti, k))).uniform(-pi, pi)``
    and the dataset seed ``generate_state(1)[0]`` of that sequence; both
    are computed on Python ints from the sequence's pool by
    ``synth._pcg64_seeding``, which a test pins to numpy. Reports are
    therefore bit-reproducible for identical inputs on one install
    (see README "Reproducibility"). The trials of a call are generated
    and fitted as one stack (in passes of at most 65536 samples).

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

    # SeedSequence((noise.seed, ti, k)) reads each integer as its 32-bit words, low first
    seed = noise.seed
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.array([[*words, ti, k] for ti in range(len(truths)) for k in range(trials)],
                       dtype=np.uint32)
    rows = []
    for t, row in enumerate(entropy):
        # default_rng(sequence).uniform(-pi, pi), and generate_state(1)[0] as the row's seed
        _, _, trial_seed, unit = _pcg64_seeding(row)
        rows.append((truths[t // trials], -math.pi + (math.pi - -math.pi) * unit, trial_seed))
    anchors = [AUTO_STARTS[0] if start_policy == "auto"
               else (float(truth.real_part), float(truth.imag_part)) for truth, _, _ in rows]
    fits = []
    c1 = step_phase_advance(carrier, step)
    per_pass = max(1, _STACK_SAMPLES // max(m_count, 1))
    for lo in range(0, len(rows), per_pass):
        # _noisy_sweeps checks the count, the step and the carrier; overflowing noise shows here
        gammas = _noisy_sweeps(rows[lo : lo + per_pass], m_count, step, carrier, noise)
        if not np.all(np.isfinite(gammas)):
            raise ValueError("reflection samples must be finite")
        fits += _fit_rows(gammas, c1, anchors[lo : lo + per_pass], bounds)
    records = []
    for row, fit in zip(rows, fits):
        if isinstance(fit, Exception):
            fitted, error = (None, None, None, None, False), f"{type(fit).__name__}: {fit}"
        else:
            fitted, error = (*fit, True), None
        records.append(TrialRecord(*row, *fitted, error=error))
    return BenchReport(noise, trials, records, _summarize(truths, records))


def _angle_difference(fitted: float, target: float) -> float:
    """Signed difference wrapped to [-pi, pi] (math.remainder gives -pi for both -pi and 3 pi)."""
    d = fitted - target
    return math.remainder(d, 2.0 * math.pi)


def _summarize(truths: list[ComplexPermittivity],
               records: list[TrialRecord]) -> list[TruthSummary]:
    """The TruthSummary of each truth, whose trials are the next equal share of ``records``.

    The truths with k successful trials are summarized as one C-contiguous
    (G, 6, k) stack, and each of its rows sums pairwise exactly as its own
    1-D reduction would.
    """
    trials, groups, summaries = len(records) // len(truths), {}, []
    for ti, truth in enumerate(truths):
        share = records[ti * trials : (ti + 1) * trials]
        ok = [r for r in share if r.error is None]
        groups.setdefault(len(ok), []).append((ti, truth, ok))
        summaries.append([truth, trials, sum(1 for r in share if r.converged)])
    for k, group in groups.items():
        stack = np.array([[[r.fitted_a for r in ok], [r.fitted_b for r in ok]] * 2
                          + [[abs(_angle_difference(r.fitted_c, r.phase_offset)) for r in ok],
                             [r.residual_norm for r in ok]] for _, _, ok in group], dtype=float)
        targets = [[[truth.real_part], [truth.imag_part]] for _, truth, _ in group]
        stack[:, 2:4] = np.abs(stack[:, 2:4] - targets)
        if k:
            with np.errstate(over="ignore"):  # an error sum that overflows reads inf
                means, stds = stack.mean(axis=2).tolist(), stack[:, :2].std(axis=2).tolist()
        else:  # every trial failed
            means, stds = [[math.nan] * 6] * len(group), [[math.nan] * 2] * len(group)
        for (ti, _, _), mean, std in zip(group, means, stds):
            # TruthSummary's field order: mean_a, mean_b, std_a, std_b, then the mean errors
            summaries[ti] += (*mean[:2], *std, *mean[2:])
    return [TruthSummary(*summary) for summary in summaries]
