"""Acceptance suite: one test per release criterion, with pinned tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one pass line per
criterion including its runtime.
"""

import math
import time

import numpy as np
import pytest

from permslab import (
    AIR,
    METAL,
    ComplexPermittivity,
    NoiseModel,
    SdiDataset,
    SlabGeometry,
    benchmark_chirp,
    complex_sqrt_lossy,
    dft,
    effective_reflection,
    extract_sweep,
    fit_permittivity,
    fraunhofer_distance,
    fresnel_normal,
    generate_dataset,
    generate_if_datasets,
    jacobian,
    peak_bin,
    phase_slope_diagnostic,
    residuals,
    run_sweep,
    step_phase_advance,
)
from permslab.cli import main
from permslab.io import DatasetFile, ReportFile

from bounce_series import effective_reflection_truncated

REFERENCE_MATERIALS = [
    ComplexPermittivity(2.0, 0.1),
    ComplexPermittivity(3.0, 0.15),
    ComplexPermittivity(7.0, 0.3),
    ComplexPermittivity(2.60, 0.1),
]

ANALYTIC_SLOPE_DEG_PER_MM = -math.degrees(step_phase_advance(79e9, 1e-4)) / 0.1


def report(criterion: str, started: float) -> None:
    print(f"[PASS] {criterion} ({time.perf_counter() - started:.2f} s)")


def test_criterion_1_fraunhofer_anchor():
    t0 = time.perf_counter()
    d_far = fraunhofer_distance(0.015, 0.0038)
    assert abs(d_far - 0.1184) / 0.1184 <= 0.005
    report("criterion 1: far-field distance anchor 0.1184 m within 0.5%", t0)


def test_criterion_2_phase_step_anchor():
    t0 = time.perf_counter()
    geom = SlabGeometry(thickness=0.02, standoff=0.25, backing=METAL)
    mut, metal = generate_if_datasets(
        ComplexPermittivity(2.60, 0.1), geom, benchmark_chirp(), 40, 1e-4,
        NoiseModel.quiet(),
    )

    # raw metal peaks: the per-step carrier phase advance
    peaks = []
    for trace in metal:
        spec = dft(trace)
        peaks.append(spec[peak_bin(spec)])
    step_deg = np.degrees(np.diff(np.unwrap(np.angle(np.array(peaks)))))
    assert np.all(np.abs(np.abs(step_deg) - 18.97) <= 0.05)

    # calibrated sweep: unwrapped slope against stage travel
    sweep = extract_sweep(mut, metal, 1e-4, 79e9)
    slope, r_squared = phase_slope_diagnostic(sweep)
    assert abs(slope - ANALYTIC_SLOPE_DEG_PER_MM) <= 0.5
    assert r_squared >= 1 - 1e-9

    # the bench-measured value sits within 1% of the analytic slope
    assert abs(-187.9 - ANALYTIC_SLOPE_DEG_PER_MM) / abs(
        ANALYTIC_SLOPE_DEG_PER_MM
    ) <= 0.01

    assert time.perf_counter() - t0 < 1.0
    report(
        f"criterion 2: per-step phase 18.97 deg, slope "
        f"{slope:.1f} deg/mm, R^2 = {r_squared:.12f}", t0,
    )


def test_criterion_3_noiseless_round_trip():
    # The sweep constrains (eps', eps'', offset) only up to a
    # one-parameter family (see test_identifiability), so the round trip
    # is checked at the generating point, which must be a fixed point of
    # the fit: seeded there, the estimator must stay and converge.
    t0 = time.perf_counter()
    rng = np.random.default_rng(314159)
    for truth in REFERENCE_MATERIALS:
        offset = float(rng.uniform(-math.pi, math.pi))
        data = generate_dataset(truth, offset, 40, 1e-4, 79e9, NoiseModel.quiet())
        fit = fit_permittivity(
            data, starts=[(truth.real_part, truth.imag_part, offset)]
        )
        assert fit.converged
        assert abs(fit.permittivity.real_part - truth.real_part) <= 1e-6
        assert abs(fit.permittivity.imag_part - truth.imag_part) <= 1e-6
        assert abs(math.remainder(fit.phase_offset - offset, 2 * math.pi)) <= 1e-6
    assert time.perf_counter() - t0 < 5.0
    report("criterion 3: noiseless round trip of 4 reference materials at 1e-6", t0)


def test_criterion_4_noisy_monte_carlo():
    t0 = time.perf_counter()
    noise = NoiseModel(
        amplitude_rel_sigma=5e-4,
        phase_sigma=math.radians(0.8),
        amplitude_drift_rel=1.22e-2,
        seed=20240001,
    )
    summary = run_sweep([ComplexPermittivity(2.60, 0.1)], noise, trials=100).summaries[0]
    assert summary.converged_count == 100
    assert abs(summary.mean_a - 2.60) <= 0.05
    assert abs(summary.mean_b - 0.10) <= 0.05
    assert time.perf_counter() - t0 < 60.0
    report(
        f"criterion 4: 100-trial Monte Carlo mean eps = "
        f"{summary.mean_a:.3f} - j{summary.mean_b:.3f}, all converged", t0,
    )


def test_criterion_5_series_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(272727)
    worst = 0.0
    for i in range(200):
        eps = ComplexPermittivity(rng.uniform(1.1, 20.0), rng.uniform(0.01, 2.0))
        backing = METAL if i % 2 else ComplexPermittivity(
            rng.uniform(1.0, 20.0), rng.uniform(0.0, 2.0)
        )
        geom = SlabGeometry(rng.uniform(1e-3, 50e-3), 0.25, backing)
        closed = effective_reflection(eps, geom, 79e9)
        series = effective_reflection_truncated(eps, geom, 79e9, q=64)
        worst = max(worst, abs(closed - series))
    assert worst <= 1e-10
    assert time.perf_counter() - t0 < 1.0
    report(f"criterion 5: closed form vs 64-term series, worst {worst:.2e}", t0)


def test_criterion_6_pipeline_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606060)
    geom = SlabGeometry(thickness=0.02, standoff=0.25, backing=METAL)
    cfg = benchmark_chirp()
    worst = 0.0
    for _ in range(20):
        truth = ComplexPermittivity(rng.uniform(1.1, 20.0), rng.uniform(0.0, 2.0))
        mut, metal = generate_if_datasets(truth, geom, cfg, 40, 1e-4, NoiseModel.quiet())
        via_if = extract_sweep(mut, metal, 1e-4, cfg.start_frequency)
        direct = generate_dataset(truth, 0.0, 40, 1e-4, 79e9, NoiseModel.quiet())
        worst = max(worst, float(np.max(np.abs(via_if.gammas - direct.gammas))))
    assert worst <= 1e-6
    assert time.perf_counter() - t0 < 10.0
    report(f"criterion 6: raw-IF vs direct sweep identity, worst {worst:.2e}", t0)


def centre_frequency(cfg) -> float:
    """The chirp's centre f0 + S (N - 1) dt / 2, whose F a narrow chirp's peak bin reads."""
    return cfg.start_frequency + cfg.slope * (cfg.sample_count - 1) * cfg.sample_interval / 2


@pytest.mark.parametrize("q", [2, 3])
def test_multi_bounce_pipeline_identity(q):
    # criterion 6 with q slab components: the raw-IF route gives F_q e^{-j C1 m},
    # F_q the q-component truncated reflection; the slab's response varies
    # across the chirp, and the peak bin reads its band average, F_q at the centre
    geom = SlabGeometry(thickness=2e-3, standoff=0.25, backing=METAL)
    cfg = benchmark_chirp()
    ramp = np.exp(-1j * step_phase_advance(cfg.start_frequency, 1e-4) * np.arange(40))
    worst = 0.0
    for truth in (ComplexPermittivity(2.6, 0.0), ComplexPermittivity(3.0, 0.15)):
        mut, metal = generate_if_datasets(truth, geom, cfg, 40, 1e-4, NoiseModel.quiet(),
                                          bounce_count=q)
        via_if = extract_sweep(mut, metal, 1e-4, cfg.start_frequency)
        face = effective_reflection_truncated(truth, geom, centre_frequency(cfg), q)
        worst = max(worst, float(np.max(np.abs(via_if.gammas - face * ramp))))
    assert worst <= 1e-6


@pytest.mark.parametrize("thickness", ["2e-3", "5e-3"])
def test_paper_plate_sweep_reads_its_reflection(thickness, tmp_path):
    # the paper's air-backed 2.6 - j0.02 plate with 200 bounces, noiseless,
    # through raw IF on the command line: the sweep's z* = mean Gamma(m) e^{+j C1 m}
    # is the plate's F at the chirp's centre frequency
    traces, sweep = str(tmp_path / "traces"), str(tmp_path / "sweep")
    assert main(["simulate", "--mode", "raw-if", "--eps-real", "2.6", "--eps-imag", "0.02",
                 "--standoff-m", "0.27", "--thickness-m", thickness, "--backing", "1,0",
                 "--bounces", "200", "--amp-sigma", "0", "--phase-sigma-deg", "0",
                 "--drift", "0", "--out", traces]) == 0
    assert main(["extract", "--input", traces, "--out", sweep]) == 0
    data = DatasetFile.read(sweep).to_sweep()
    m = np.arange(data.gammas.size)
    z_star = np.mean(data.gammas * np.exp(1j * step_phase_advance(data.carrier, data.step) * m))
    geom = SlabGeometry(float(thickness), 0.27, AIR)
    plate = effective_reflection(ComplexPermittivity(2.6, 0.02), geom,
                                 centre_frequency(benchmark_chirp()))
    assert abs(z_star - plate) <= 1e-6


NO_PLATE_FIT = ("estimate takes no --thickness-m or --backing, so no CLI fit models the "
                "plate (ROADMAP item 23, step 2)")
WIDEBAND_RAMP = ("extraction at the integer bin ramps a wideband sweep "
                 "(synth.benchmark_chirp, ROADMAP item 2)")
NARROW_CHIRP = []  # benchmark_chirp: simulate's defaults
WIDE_CHIRP = ["--carrier-hz", "77e9", "--bandwidth-hz", "4e9", "--chirp-duration-s", "80e-6",
              "--samples", "256", "--sample-interval-s", "1e-7"]


def plate_case(chirp, thickness, *links):
    return pytest.param(chirp, thickness, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason="; ".join(links)))


@pytest.mark.parametrize("chirp, thickness", [
    plate_case(NARROW_CHIRP, "2e-3", NO_PLATE_FIT),
    plate_case(NARROW_CHIRP, "5e-3", NO_PLATE_FIT),
    plate_case(WIDE_CHIRP, "2e-3", NO_PLATE_FIT, WIDEBAND_RAMP),
    plate_case(WIDE_CHIRP, "5e-3", NO_PLATE_FIT, WIDEBAND_RAMP),
], ids=["benchmark-chirp-2mm", "benchmark-chirp-5mm", "77GHz-4GHz-N256-2mm",
        "77GHz-4GHz-N256-5mm"])
def test_paper_plate_end_to_end(chirp, thickness, tmp_path):
    # the paper's experiment: an air-backed 2.6 - j0.02 plate with all its echoes,
    # noiseless, through raw IF and a known-geometry estimate on the command line
    plate = ["--thickness-m", thickness, "--backing", "1,0"]
    traces, sweep, fit = (str(tmp_path / name) for name in ("traces", "sweep", "fit"))
    assert main(["simulate", "--mode", "raw-if", "--eps-real", "2.6", "--eps-imag", "0.02",
                 "--standoff-m", "0.27", "--bounces", "200", *plate, *chirp,
                 "--out", traces]) == 0
    assert main(["extract", "--input", traces, "--out", sweep]) == 0
    assert main(["estimate", "--input", sweep, *plate, "--report-out", fit]) == 0
    eps = ReportFile.read(fit)
    assert abs(eps.eps_real - 2.6) <= 1e-3
    assert abs(eps.eps_imag - 0.02) <= 1e-3


def test_criterion_7_solver_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(70707)
    data = generate_dataset(
        ComplexPermittivity(3.0, 0.15), 0.4, 10, 1e-4, 79e9, NoiseModel.quiet()
    )

    # analytic Jacobian against central finite differences
    worst_jac = 0.0
    for _ in range(50):
        params = np.array([
            rng.uniform(1.2, 20.0), rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0)
        ])
        J = jacobian(params, data)
        J_fd = np.empty_like(J)
        for col in range(3):
            h = 1e-6 * max(1.0, abs(params[col]))
            xp = params.copy()
            xp[col] += h
            xm = params.copy()
            xm[col] -= h
            J_fd[:, col] = (residuals(xp, data) - residuals(xm, data)) / (2 * h)
        worst_jac = max(worst_jac, float(np.max(np.abs(J - J_fd))))
    assert worst_jac <= 1e-5

    # rotation equivariance of the fit
    worst_ab = 0.0
    worst_c = 0.0
    for _ in range(20):
        truth = ComplexPermittivity(rng.uniform(1.2, 15.0), rng.uniform(0.0, 2.0))
        offset = float(rng.uniform(-math.pi, math.pi))
        theta = float(rng.uniform(-math.pi, math.pi))
        base = generate_dataset(truth, offset, 40, 1e-4, 79e9, NoiseModel.quiet())
        rotated = SdiDataset(base.gammas * np.exp(1j * theta), base.step, base.carrier)
        f1 = fit_permittivity(base)
        f2 = fit_permittivity(rotated)
        worst_ab = max(
            worst_ab,
            abs(f1.permittivity.real_part - f2.permittivity.real_part),
            abs(f1.permittivity.imag_part - f2.permittivity.imag_part),
        )
        worst_c = max(
            worst_c,
            abs(math.remainder(f2.phase_offset - f1.phase_offset - theta, 2 * math.pi)),
        )
    assert worst_ab <= 1e-8
    assert worst_c <= 1e-8
    assert time.perf_counter() - t0 < 10.0
    report(
        f"criterion 7: Jacobian vs FD {worst_jac:.2e}, rotation "
        f"equivariance {max(worst_ab, worst_c):.2e}", t0,
    )


def test_criterion_8_fresnel_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808080)

    for a in np.linspace(1.0, 100.0, 15):
        for b in np.linspace(0.0, 50.0, 11):
            s = complex_sqrt_lossy(ComplexPermittivity(a, b))
            assert abs(s * s - complex(a, -b)) <= 1e-12 * abs(complex(a, -b))

    for _ in range(100):
        eps = ComplexPermittivity(rng.uniform(1.0, 50.0), rng.uniform(0.0, 10.0))
        g_in, t_in = fresnel_normal(AIR, eps)
        g_out, t_out = fresnel_normal(eps, AIR)
        assert abs(t_in - (1 + g_in)) <= 1e-12
        assert abs(g_out + g_in) <= 1e-12
        assert abs(t_in * t_out - (1 - g_in**2)) <= 1e-12
    assert time.perf_counter() - t0 < 1.0
    report("criterion 8: Fresnel and branch square-root identities at 1e-12", t0)
