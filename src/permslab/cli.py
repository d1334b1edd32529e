"""Command-line pipeline: simulate, extract, estimate, check-farfield, report.

Exit codes: 0 success, 2 invalid input (bad flags, malformed or
unreadable files, aliasing step sizes, sizes too large to allocate, a
trace whose spectrum overflows), 3 numerical failure (degenerate slab
geometry, a sweep fit with no feasible root or an overflow), 4
degenerate data (free-space sweeps, unusable calibration reference).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bench import run_sweep
from .em import ComplexPermittivity, METAL, SPEED_OF_LIGHT, SlabGeometry, fraunhofer_distance
from .errors import (
    AliasingError,
    AllZeroSpectrumError,
    CalibrationError,
    DatasetFormatError,
    DegenerateDataError,
    DegenerateGeometryError,
    DegenerateRegressionError,
    InfeasibleFitError,
)
from .estimator import (
    FitBounds,
    check_step,
    fit_permittivity,
    model_gamma,
    phase_slope_diagnostic,
    step_phase_advance,
)
from .fmcw import ChirpConfig, IfTrace
from .io import DatasetFile, ReportFile, write_records
from .synth import NoiseModel, extract_sweep, generate_dataset, generate_if_datasets

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3
EXIT_DEGENERATE = 4

_ERROR_CODES = [
    ((DatasetFormatError, AliasingError, ValueError, OSError, MemoryError), EXIT_INVALID),
    ((DegenerateGeometryError, InfeasibleFitError), EXIT_NUMERICAL),
    ((DegenerateDataError, CalibrationError, AllZeroSpectrumError,
      DegenerateRegressionError), EXIT_DEGENERATE),
]


def _exit_code(exc: Exception) -> int:
    for types, code in _ERROR_CODES:
        if isinstance(exc, types):
            return code
    raise exc


def _noise_from_args(args) -> NoiseModel:
    return NoiseModel(
        amplitude_rel_sigma=args.amp_sigma,
        phase_sigma=math.radians(args.phase_sigma_deg),
        amplitude_drift_rel=args.drift,
        seed=args.seed,
    )


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 're,im', got {text!r}")
    return float(parts[0]), float(parts[1])


def cmd_simulate(args) -> int:
    truth = ComplexPermittivity(args.eps_real, args.eps_imag)
    noise = _noise_from_args(args)
    provenance = (
        f"synthetic, eps={args.eps_real}-j{args.eps_imag}, "
        f"phase_offset={args.phase_offset}, seed={args.seed}"
    )
    if args.mode == "gamma":
        data = generate_dataset(
            truth, args.phase_offset, args.steps, args.step_m, args.carrier_hz, noise
        )
        records = dict(gammas=data.gammas)
    else:
        if args.phase_offset != 0.0:
            raise ValueError("raw-if synthesizes a zero phase offset; --phase-offset must be 0")
        if args.steps < 3 and args.steps != 0:  # 0 is reported as no metal reference
            raise ValueError("need at least 3 reflection samples")
        if args.backing == "metal":
            backing = METAL
        else:
            backing = ComplexPermittivity(*_parse_pair(args.backing))
        geom = SlabGeometry(args.thickness_m, args.standoff_m, backing)
        chirp = ChirpConfig(
            start_frequency=args.carrier_hz,
            bandwidth=args.bandwidth_hz,
            chirp_duration=args.chirp_duration_s,
            sample_count=args.samples,
            sample_interval=args.sample_interval_s,
            amplitude=args.amplitude,
        )
        check_step(args.step_m, args.carrier_hz)  # extract's SdiDataset would refuse the file
        mut, metal = generate_if_datasets(
            truth, geom, chirp, args.steps, args.step_m, noise,
            bounce_count=args.bounces,
            antenna_aperture=None if args.aperture_m == 0 else args.aperture_m,
        )
        records = dict(chirp=chirp, mut_samples=mut.samples,
                       metal_samples=np.vstack([t.samples for t in metal]))
    out = DatasetFile(mode=args.mode, carrier_hz=args.carrier_hz, step_m=args.step_m,
                      step_count=args.steps, provenance=provenance, **records)
    out.write(args.out)
    print(f"wrote {args.mode} dataset with {args.steps} steps to {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    src = DatasetFile.read(args.input)
    if src.mode != "raw-if":
        raise DatasetFormatError("extract needs a raw-if mode file")
    sweep = extract_sweep(
        IfTrace(src.mut_samples),
        [IfTrace(s) for s in src.metal_samples],
        src.step_m,
        src.carrier_hz,
    )
    out = DatasetFile(
        mode="gamma",
        carrier_hz=src.carrier_hz,
        step_m=src.step_m,
        step_count=src.step_count,
        direction=src.direction,
        provenance="; ".join(filter(None, (src.provenance, "extracted from raw IF"))),
        gammas=sweep.gammas,
    )
    out.write(args.out)
    print(f"extracted {src.step_count} reflection coefficients to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    src = DatasetFile.read(args.input)
    data = src.to_sweep()
    bounds = FitBounds(a_max=args.a_max, b_max=args.b_max)
    if len(args.start) > 1:
        raise ValueError("give at most one --start: only one anchor is used")
    starts = [tuple(map(float, args.start[0].split(",")))] if args.start else "auto"
    fit = fit_permittivity(data, bounds=bounds, starts=starts)
    slope, r2 = phase_slope_diagnostic(data)
    print(f"eps_real:        {fit.permittivity.real_part:.6f}")
    print(f"eps_imag:        {fit.permittivity.imag_part:.6f}")
    print(f"phase_offset:    {fit.phase_offset:.6f} rad")
    print(f"residual_norm:   {fit.residual_norm:.3e}")
    print(f"converged:       {fit.converged}")
    print(f"phase_slope:     {slope:.6g} deg/mm (R^2 = {r2:.9f})")
    if args.report_out:
        ReportFile.from_fit(fit, data).write(args.report_out)
        print(f"report written to {args.report_out}")
    return EXIT_OK


def cmd_check_farfield(args) -> int:
    wavelength = args.wavelength_m
    if wavelength is None:  # the parser requires exactly one of the two flags
        if not args.carrier_hz > 0.0:
            raise ValueError(f"carrier must be > 0, got {args.carrier_hz}")
        wavelength = SPEED_OF_LIGHT / args.carrier_hz
    if not (args.standoff_m > 0.0 and math.isfinite(args.standoff_m)):
        raise ValueError(f"standoff must be finite and > 0, got {args.standoff_m}")
    d_far = fraunhofer_distance(args.aperture_m, wavelength)
    if args.standoff_m >= 2.0 * d_far:
        verdict = "pass"
    elif args.standoff_m >= d_far:
        verdict = "warn"
    else:
        verdict = "fail"
    print(f"fraunhofer_distance: {d_far:.6f} m")
    print(f"standoff:            {args.standoff_m:.6f} m ({args.standoff_m / d_far:.2f} x)")
    print(f"verdict:             {verdict}")
    return EXIT_OK


def cmd_report(args) -> int:
    if not args.truth:
        raise ValueError("at least one --truth re,im is required")
    truths = [ComplexPermittivity(*_parse_pair(t)) for t in args.truth]
    noise = _noise_from_args(args)
    report = run_sweep(
        truths,
        noise,
        args.trials,
        m_count=args.steps,
        step=args.step_m,
        carrier=args.carrier_hz,
        start_policy=args.start_policy,
    )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    with open(outdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)

    lines = [
        f"{'eps_truth':>16} {'mean_a':>10} {'std_a':>10} {'mean_b':>10} "
        f"{'std_b':>10} {'converged':>10}"
    ]
    for s in report.summaries:
        label = f"{s.truth.real_part:g}-j{s.truth.imag_part:g}"
        lines.append(
            f"{label:>16} {s.mean_a:>10.4f} {s.std_a:>10.4f} "
            f"{s.mean_b:>10.4f} {s.std_b:>10.4f} {s.converged_count:>7}/{s.trials}"
        )
    table = "\n".join(lines)
    (outdir / "summary.txt").write_text(table + "\n", encoding="utf-8")
    print(table)

    c1 = step_phase_advance(args.carrier_hz, args.step_m)
    m = np.arange(args.steps)
    for i, truth in enumerate(truths):
        curve = model_gamma(truth.real_part, truth.imag_part, 0.0, m, c1)
        path = outdir / f"curve_{i}_eps{truth.real_part:g}-{truth.imag_part:g}.txt"
        # np.hypot equals abs() of each element bit for bit; np.abs does not
        values = np.column_stack((m * args.step_m * 1e3, curve.real, curve.imag,
                                  np.hypot(curve.real, curve.imag),
                                  np.degrees(np.angle(curve))))
        write_records(path, ["# x_mm re_gamma im_gamma abs_gamma phase_deg"],
                      [((), values)])
    print(f"report files written to {outdir}")
    return EXIT_OK


def _add_sweep_flags(parser) -> None:
    """The sweep and noise flags of ``simulate`` and ``report``."""
    parser.add_argument("--steps", type=int, default=40)
    parser.add_argument("--step-m", type=float, default=1e-4)
    parser.add_argument("--carrier-hz", type=float, default=79e9)
    parser.add_argument("--amp-sigma", type=float, default=0.0,
                        help="relative amplitude noise std")
    parser.add_argument("--phase-sigma-deg", type=float, default=0.0)
    parser.add_argument("--drift", type=float, default=0.0,
                        help="end-to-end relative amplitude drift")
    parser.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared.

    ``parse_args`` leaves the parser unchanged (it returns a fresh
    ``Namespace`` and copies list defaults before appending), so every
    ``main`` call reuses this one parser. Callers must not modify it.
    """
    parser = argparse.ArgumentParser(
        prog="permslab",
        description=(
            "Estimate the complex permittivity of a dielectric slab from "
            "stepped-distance monostatic radar reflection sweeps."
        ),
    )
    parser.add_argument("--version", action="version", version=f"permslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset file")
    sim.add_argument("--eps-real", type=float, default=2.60)
    sim.add_argument("--eps-imag", type=float, default=0.1)
    sim.add_argument("--phase-offset", type=float, default=0.0,
                     help="phase offset of the sweep, radians (gamma mode; raw-if takes only 0)")
    _add_sweep_flags(sim)
    sim.add_argument("--mode", choices=("gamma", "raw-if"), default="gamma")
    sim.add_argument("--standoff-m", type=float, default=0.25)
    sim.add_argument("--thickness-m", type=float, default=0.02)
    sim.add_argument("--backing", default="metal", help="'metal' or 're,im'")
    sim.add_argument("--bandwidth-hz", type=float, default=1e4)
    sim.add_argument("--chirp-duration-s", type=float, default=200e-6)
    sim.add_argument("--samples", type=int, default=64)
    sim.add_argument("--sample-interval-s", type=float, default=2e-6)
    sim.add_argument("--amplitude", type=float, default=1.0)
    sim.add_argument("--bounces", type=int, default=1,
                     help="raw-if slab bounce components, 1 to 1000; 1 is the front "
                          "face alone (README)")
    sim.add_argument("--aperture-m", type=float, default=0.015,
                     help="antenna size for the far-field warning; 0 disables")
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=cmd_simulate)

    ext = sub.add_parser("extract", help="raw-if file -> calibrated gamma file")
    ext.add_argument("--input", required=True)
    ext.add_argument("--out", required=True)
    ext.set_defaults(func=cmd_extract)

    est = sub.add_parser("estimate", help="fit permittivity to a gamma file")
    est.add_argument("--input", required=True)
    est.add_argument("--a-max", type=float, default=100.0)
    est.add_argument("--b-max", type=float, default=50.0)
    est.add_argument("--start", action="append", default=[],
                     help="explicit start 'a,b,c', at most once. The sweep "
                          "determines the parameters only up to a phase-offset "
                          "family; the start's a,b anchors the answer and its "
                          "c is ignored")
    est.add_argument("--report-out", default=None)
    est.set_defaults(func=cmd_estimate)

    far = sub.add_parser("check-farfield", help="far-field distance verdict")
    far.add_argument("--aperture-m", type=float, required=True)
    wave = far.add_mutually_exclusive_group(required=True)
    wave.add_argument("--wavelength-m", type=float)
    wave.add_argument("--carrier-hz", type=float)
    far.add_argument("--standoff-m", type=float, required=True)
    far.set_defaults(func=cmd_check_farfield)

    rep = sub.add_parser("report", help="Monte-Carlo sweep benchmark")
    rep.add_argument("--truth", action="append", default=[],
                     help="ground truth 're,im'; repeatable")
    rep.add_argument("--trials", type=int, default=1)
    _add_sweep_flags(rep)
    rep.add_argument("--start-policy", choices=("truth", "auto"), default="truth")
    rep.add_argument("--outdir", required=True)
    rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:  # map library errors to documented exit codes
        code = _exit_code(exc)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
