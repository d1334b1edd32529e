"""End-to-end CLI: simulate, extract, estimate, check-farfield, report."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from permslab import (ComplexPermittivity, NoiseModel, SlabGeometry, estimator,
                      fit_permittivity, generate_if_datasets)
from permslab import cli
from permslab.cli import main
from permslab.estimator import model_gamma, step_phase_advance
from permslab.io import DatasetFile


def run(args):
    return main(args)


class TestSimulate:
    def test_default_gamma_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(out)]) == 0
        f = DatasetFile.read(out)
        assert f.mode == "gamma"
        assert f.step_count == 40
        assert f.carrier_hz == 79e9
        assert f.step_m == 1e-4

    def test_seed_repeat_byte_identical(self, tmp_path):
        out1 = tmp_path / "a.txt"
        out2 = tmp_path / "b.txt"
        args = ["simulate", "--amp-sigma", "5e-4", "--phase-sigma-deg", "0.8",
                "--seed", "7"]
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_raw_if_file_shape(self, tmp_path):
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "6",
                    "--out", str(out)]) == 0
        f = DatasetFile.read(out)
        assert f.mode == "raw-if"
        assert f.mut_samples.shape == (64,)
        assert f.metal_samples.shape == (6, 64)

    def test_raw_if_zero_steps_invalid(self, tmp_path, capsys):
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "0", "--out", str(out)]) == 2
        assert "at least one metal position" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("offset", ["0.4", "inf"])
    def test_raw_if_phase_offset_invalid(self, offset, tmp_path, capsys):
        # the raw-IF synthesis has no phase offset, so the flag would change only provenance
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", f"--phase-offset={offset}", "--steps", "5",
                    "--out", str(out)]) == 2
        assert "synthesizes a zero phase offset" in capsys.readouterr().err
        assert not out.exists()
        assert run(["simulate", "--mode", "raw-if", "--steps", "5", "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("steps", ["1", "2"])
    def test_raw_if_below_three_steps_invalid(self, steps, tmp_path, capsys):
        # gamma mode refuses the same counts; extract would reject the file
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", steps, "--out", str(out)]) == 2
        assert "need at least 3 reflection samples" in capsys.readouterr().err
        assert not out.exists()
        assert run(["simulate", "--steps", steps, "--out", str(out)]) == 2
        assert "need at least 3 reflection samples" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["gamma", "raw-if"])
    def test_negative_steps_invalid(self, mode, tmp_path, capsys):
        out = tmp_path / "f.txt"
        assert run(["simulate", "--mode", mode, "--steps", "-1", "--out", str(out)]) == 2
        assert "need at least 3 reflection samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("step, message", [
        ("0.01", "per-step phase advance 33.114 rad >= pi"), ("0", "step must be > 0, got 0.0"),
        ("-1e-4", "step must be > 0, got -0.0001"),
    ])
    def test_raw_if_step_that_extract_rejects_is_invalid(self, step, message, tmp_path, capsys):
        # gamma mode refuses the same steps; extract's SdiDataset would reject the file
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", f"--step-m={step}", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()
        assert run(["simulate", f"--step-m={step}", "--out", str(out)]) == 2
        assert message in capsys.readouterr().err

    def test_raw_if_amplitude_whose_power_overflows_is_invalid(self, tmp_path, capsys):
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--amplitude", "1e200",
                    "--out", str(out)]) == 2
        assert "chirp amplitude 1e+200 overflows" in capsys.readouterr().err
        assert not out.exists()
        # the same amplitude from a raw-IF header
        assert run(["simulate", "--mode", "raw-if", "--out", str(out)]) == 0
        text = out.read_text()
        assert "\namplitude: 1\n" in text
        out.write_text(text.replace("\namplitude: 1\n", "\namplitude: 1e200\n"))
        assert run(["extract", "--input", str(out), "--out", str(tmp_path / "g.txt")]) == 2
        assert "chirp amplitude 1e+200 overflows" in capsys.readouterr().err

    def test_unwritable_path(self, tmp_path):
        assert run(["simulate", "--out", str(tmp_path / "no" / "dir.txt")]) == 2

    def test_raw_if_dielectric_backing(self, tmp_path):
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "5", "--bounces", "3",
                    "--backing", "2.5,0.01", "--out", str(out)]) == 0
        f = DatasetFile.read(out)
        geom = SlabGeometry(0.02, 0.25, ComplexPermittivity(2.5, 0.01))
        mut, metal = generate_if_datasets(ComplexPermittivity(2.6, 0.1), geom, f.chirp, 5,
                                          1e-4, NoiseModel.quiet(), bounce_count=3)
        assert np.array_equal(f.mut_samples, mut.samples)
        assert np.array_equal(f.metal_samples, np.vstack([t.samples for t in metal]))

    def test_raw_if_malformed_backing_invalid(self, tmp_path, capsys):
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--backing", "1,2,3",
                    "--out", str(out)]) == 2
        assert "expected 're,im'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("aperture", ["nan", "-1"])
    def test_aperture_other_than_zero_is_checked(self, aperture, tmp_path, capsys):
        # only 0 turns the far-field check off
        out = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", f"--aperture-m={aperture}",
                    "--standoff-m", "0.01", "--out", str(out)]) == 2
        assert "aperture and wavelength must be > 0" in capsys.readouterr().err
        assert not out.exists()


class TestExtractEstimate:
    def test_fit_without_feasible_root_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # every root at w = -1 lies at a < 1, outside the box, and so do the closed-form
        # ends moved to a = 0.25; each feasible arc holds one of the real ends
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(sweep)]) == 0
        monkeypatch.setattr(estimator, "_unit_circle_roots",
                            lambda quartics: -np.ones(4 * len(quartics), dtype=complex))
        monkeypatch.setattr(estimator, "_box_ends", lambda *circle: (0.25,) * 3)
        assert run(["estimate", "--input", str(sweep)]) == 3
        assert "error: no root of the family" in capsys.readouterr().err

    def test_raw_if_extract_matches_direct_simulation(self, tmp_path):
        raw = tmp_path / "raw.txt"
        gam = tmp_path / "gam.txt"
        direct = tmp_path / "direct.txt"
        assert run(["simulate", "--mode", "raw-if", "--out", str(raw)]) == 0
        assert run(["extract", "--input", str(raw), "--out", str(gam)]) == 0
        assert run(["simulate", "--out", str(direct)]) == 0
        extracted = DatasetFile.read(gam)
        reference = DatasetFile.read(direct)
        np.testing.assert_allclose(extracted.gammas, reference.gammas, atol=1e-6)

    def test_estimate_recovers_seeded_round_trip(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        report = tmp_path / "report.txt"
        assert run(["simulate", "--phase-offset", "0.4", "--out", str(sweep)]) == 0
        code = run([
            "estimate", "--input", str(sweep),
            "--start", "2.60,0.1,0.4",
            "--report-out", str(report),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "eps_real:        2.600000" in output
        assert "eps_imag:        0.100000" in output
        assert "converged:       True" in output
        assert report.exists()

    def test_fit_on_the_b_zero_edge_reports_positive_zero(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        report = tmp_path / "report.txt"
        assert run(["simulate", "--amp-sigma", "5e-4", "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep), "--start", "3,0",
                    "--report-out", str(report)]) == 0
        assert "eps_imag:        0.000000\n" in capsys.readouterr().out
        assert "eps_imag: 0" in report.read_text(encoding="utf-8").splitlines()

    def test_estimate_air_file_degenerate(self, tmp_path):
        sweep = tmp_path / "air.txt"
        assert run(["simulate", "--eps-real", "1.0", "--eps-imag", "0.0",
                    "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep)]) == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode, step", [("gamma", "1e-170"), ("raw-if", "1e-300")])
    def test_estimate_on_a_step_too_short_to_regress_is_degenerate(self, mode, step, tmp_path,
                                                                  capsys):
        # noise keeps the phases apart; the displacement variance underflows to 0
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--mode", mode, "--steps", "40", "--step-m", step,
                    "--amp-sigma", "0.01", "--phase-sigma-deg", "1", "--out", str(sweep)]) == 0
        if mode == "raw-if":
            traces, sweep = sweep, tmp_path / "extracted.txt"
            assert run(["extract", "--input", str(traces), "--out", str(sweep)]) == 0
        capsys.readouterr()
        assert run(["estimate", "--input", str(sweep)]) == 4
        assert capsys.readouterr() == (
            "", f"error: step {float(step)!r} m is too short to regress a slope\n")

    @pytest.mark.parametrize("provenance, extracted", [
        ("; batch 7 ;", "; batch 7 ;; extracted from raw IF"),
        ("", "extracted from raw IF"),
    ])
    def test_extract_keeps_the_source_provenance(self, tmp_path, provenance, extracted):
        raw = tmp_path / "raw.txt"
        gam = tmp_path / "gam.txt"
        assert run(["simulate", "--mode", "raw-if", "--out", str(raw)]) == 0
        replace(DatasetFile.read(raw), provenance=provenance).write(raw)
        assert run(["extract", "--input", str(raw), "--out", str(gam)]) == 0
        assert DatasetFile.read(gam).provenance == extracted

    def test_extract_rejects_gamma_file(self, tmp_path):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(sweep)]) == 0
        assert run(["extract", "--input", str(sweep), "--out",
                    str(tmp_path / "x.txt")]) == 2

    def test_extract_non_finite_chirp_header_invalid(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "3", "--out", str(raw)]) == 0
        lines = raw.read_text(encoding="utf-8").splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("chirp_duration_s:"))
        lines[i] = "chirp_duration_s: inf"
        raw.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run(["extract", "--input", str(raw), "--out", str(tmp_path / "x.txt")]) == 2
        assert "chirp chirp_duration must be finite" in capsys.readouterr().err

    def test_extract_nonpositive_sample_interval_invalid(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "3", "--out", str(raw)]) == 0
        text = raw.read_text(encoding="utf-8")
        assert text.count("\nsample_interval_s: 1.9999999999999999e-06\n") == 1
        raw.write_text(text.replace("\nsample_interval_s: 1.9999999999999999e-06\n",
                                    "\nsample_interval_s: -2e-06\n"), encoding="utf-8")
        assert run(["extract", "--input", str(raw), "--out", str(tmp_path / "x.txt")]) == 2
        assert "sample interval must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("\ndirection: backward\n", "\ndirection: sideways\n", "unknown direction"),
        ("\ncarrier_hz: 79000000000\n", "\ncarrier_hz: 0\n", "carrier must be > 0"),
    ])
    def test_estimate_bad_gamma_header_invalid(self, tmp_path, capsys, old, new, message):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--steps", "5", "--out", str(sweep)]) == 0
        text = sweep.read_text(encoding="utf-8")
        assert text.count(old) == 1
        sweep.write_text(text.replace(old, new), encoding="utf-8")
        assert run(["estimate", "--input", str(sweep)]) == 2
        assert message in capsys.readouterr().err

    def test_estimate_raw_if_file_invalid(self, tmp_path, capsys):
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "3", "--out", str(raw)]) == 0
        assert run(["estimate", "--input", str(raw)]) == 2
        assert "raw-if file: run extraction first" in capsys.readouterr().err

    def test_extract_zero_metal_is_calibration_error(self, tmp_path):
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "4",
                    "--out", str(raw)]) == 0
        f = DatasetFile.read(raw)
        f.metal_samples = np.zeros_like(f.metal_samples)
        f.write(raw)
        assert run(["extract", "--input", str(raw), "--out",
                    str(tmp_path / "x.txt")]) == 4

    def test_extract_vanishing_metal_is_calibration_error(self, tmp_path):
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "5",
                    "--out", str(raw)]) == 0
        f = DatasetFile.read(raw)
        f.metal_samples = f.metal_samples * 1e-300
        f.write(raw)
        assert run(["extract", "--input", str(raw), "--out",
                    str(tmp_path / "x.txt")]) == 4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extract_spectrum_overflow_is_invalid(self, tmp_path, capsys):
        # samples up to about 6.5e307 are finite, but their DFT is not
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "4", "--samples", "16",
                    "--sample-interval-s", "1e-6", "--chirp-duration-s", "2e-5",
                    "--amp-sigma", "1e308", "--out", str(raw)]) == 0
        capsys.readouterr()
        assert run(["extract", "--input", str(raw), "--out", str(tmp_path / "x.txt")]) == 2
        assert capsys.readouterr() == (
            "", "error: a trace's spectrum overflows: its DFT is not finite\n")

    @pytest.mark.parametrize("amplitude, code", [
        ("1e-155", 0), ("1e-158", 0), ("1e-160", 0), ("1e-162", 4)])
    def test_tiny_metal_peaks_calibrate_without_overflow(self, amplitude, code, tmp_path, capsys):
        # numpy's complex division took the reciprocal of a metal peak below
        # about 5.6e-309 and overflowed, though the ratio is about 0.2 (the
        # suite's warnings are errors); at 1e-162 the spectrum is all zeros
        reference, raw, sweep = (tmp_path / name for name in ("ref.txt", "raw.txt", "sweep.txt"))
        for amp, out in (("1", reference), (amplitude, raw)):
            assert run(["simulate", "--mode", "raw-if", "--steps", "3", "--amplitude", amp,
                        "--out", str(out)]) == 0
        assert run(["extract", "--input", str(reference), "--out", str(reference)]) == 0
        capsys.readouterr()
        assert run(["extract", "--input", str(raw), "--out", str(sweep)]) == code
        if code:
            assert capsys.readouterr().err == "error: spectrum has no nonzero bin\n"
            return
        assert run(["estimate", "--input", str(sweep)]) == 0
        # the samples lose digits to subnormals, not to the ratio
        np.testing.assert_allclose(DatasetFile.read(sweep).gammas,
                                   DatasetFile.read(reference).gammas, atol=1e-2)

    def test_phase_slope_line_has_a_bounded_width(self, tmp_path, capsys):
        # the slope regressed over a 1e-150 m step is noise of about 1e144
        # deg/mm, which the R^2 shows; it prints to 6 significant digits
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--steps", "40", "--step-m", "1e-150", "--amp-sigma", "0.01",
                    "--phase-sigma-deg", "1", "--out", str(sweep)]) == 0
        capsys.readouterr()
        assert run(["estimate", "--input", str(sweep)]) == 0
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("phase_slope:")]
        assert re.fullmatch(r"phase_slope: +-?\d\.\d{0,5}e\+\d{3} deg/mm \(R\^2 = 0\.\d{9}\)",
                            line), line
        assert len(line) <= 57

    def test_estimate_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a dataset\n")
        assert run(["estimate", "--input", str(bad)]) == 2

    def test_estimate_non_finite_file(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--steps", "5", "--out", str(sweep)]) == 0
        lines = sweep.read_text().splitlines()
        lines[-1] = "4 nan 0"
        sweep.write_text("\n".join(lines) + "\n")
        assert run(["estimate", "--input", str(sweep)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_second_start_invalid(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep), "--start", "2.6,0.1,0",
                    "--start", "3,0.2,0"]) == 2
        assert "at most one --start" in capsys.readouterr().err

    @pytest.mark.parametrize("start", ["2", "nan,0.1,0"])
    def test_malformed_start_invalid(self, tmp_path, capsys, start):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep), "--start", start]) == 2
        assert "2 or 3 finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("new", [
        b"\nmetal-x 2 ",  # bad trace id
        b"\nmetal-5 2 ",  # metal index out of range
        b"\nmetal-1 64 ",  # sample index out of range
        b"\nmetal-1 2 7 ",  # wrong field count
        b"\nmetal-1 1 ",  # duplicate that leaves a gap
        b"\nmetal-1 2 \xff ",  # not UTF-8
    ])
    def test_extract_bad_trace_record(self, tmp_path, new):
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "3",
                    "--out", str(raw)]) == 0
        data = raw.read_bytes()
        assert data.count(b"\nmetal-1 2 ") == 1
        raw.write_bytes(data.replace(b"\nmetal-1 2 ", new))
        assert run(["extract", "--input", str(raw), "--out",
                    str(tmp_path / "x.txt")]) == 2

    def test_extract_header_promising_more_records_than_the_file_holds(self, tmp_path, capsys,
                                                                        monkeypatch):
        # refused by the record count without allocating the promised stack of
        # 12.8 GB; a reader that tried would fail here rather than fill it
        full = np.full

        def bounded_full(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) < 1e8, f"np.full of shape {shape}"
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", bounded_full)
        raw = tmp_path / "raw.txt"
        assert run(["simulate", "--mode", "raw-if", "--steps", "3", "--samples", "8",
                    "--out", str(raw)]) == 0
        text = raw.read_text(encoding="utf-8")
        assert text.count("\nstep_count: 3\n") == 1
        raw.write_text(text.replace("\nstep_count: 3\n", "\nstep_count: 100000000\n"),
                       encoding="utf-8")
        tracemalloc.start()
        try:
            code = run(["extract", "--input", str(raw), "--out", str(tmp_path / "x.txt")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert capsys.readouterr().err == "error: trace record count 32 != 800000008\n"
        assert peak < 4e6

    @pytest.mark.parametrize("old, new", [("\n1 ", "\n1 0.5 "), ("\n1 ", "\n7 ")])
    def test_estimate_bad_gamma_record(self, tmp_path, old, new):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--steps", "5", "--out", str(sweep)]) == 0
        text = sweep.read_text(encoding="utf-8")
        assert text.count(old) == 1
        sweep.write_text(text.replace(old, new), encoding="utf-8")
        assert run(["estimate", "--input", str(sweep)]) == 2

    @pytest.mark.parametrize("flag, message", [
        ("--a-max=inf", "a_max must be finite"), ("--b-max=inf", "b_max must be finite"),
        ("--a-max=nan", "a_max must be > 1"), ("--a-max=0.5", "a_max must be > 1"),
        ("--b-max=-inf", "b_max must be > 0"),
    ])
    def test_estimate_bounds_invalid(self, flag, message, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep), flag]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_estimate_aliasing_step(self, tmp_path):
        # the generator refuses to build aliased sweeps, so write the
        # file directly the way a user with a too-coarse stage might
        sweep = tmp_path / "alias.txt"
        DatasetFile(
            mode="gamma",
            carrier_hz=79e9,
            step_m=1e-3,
            step_count=5,
            gammas=np.full(5, -0.2 + 0.05j),
        ).write(sweep)
        assert run(["estimate", "--input", str(sweep)]) == 2


class TestCheckFarfield:
    def test_bench_configuration_passes(self, capsys):
        code = run(["check-farfield", "--aperture-m", "0.015",
                    "--wavelength-m", "0.0038", "--standoff-m", "0.25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict:             pass" in out
        assert "0.118421" in out

    def test_between_one_and_two_distances_warns(self, capsys):
        run(["check-farfield", "--aperture-m", "0.015",
             "--wavelength-m", "0.0038", "--standoff-m", "0.15"])
        assert "verdict:             warn" in capsys.readouterr().out

    def test_inside_near_field_fails(self, capsys):
        run(["check-farfield", "--aperture-m", "0.015",
             "--wavelength-m", "0.0038", "--standoff-m", "0.05"])
        assert "verdict:             fail" in capsys.readouterr().out

    def test_carrier_instead_of_wavelength(self, capsys):
        code = run(["check-farfield", "--aperture-m", "0.015",
                    "--carrier-hz", "79e9", "--standoff-m", "0.25"])
        assert code == 0

    @pytest.mark.parametrize("carrier", ["0", "-79e9"])
    def test_nonpositive_carrier_invalid(self, carrier, capsys):
        assert run(["check-farfield", "--aperture-m", "0.015",
                    f"--carrier-hz={carrier}", "--standoff-m", "0.25"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("standoff", ["-1", "0", "nan", "inf"])
    def test_standoff_not_finite_positive_invalid(self, standoff, capsys):
        assert run(["check-farfield", "--aperture-m", "0.015", "--carrier-hz", "79e9",
                    f"--standoff-m={standoff}"]) == 2
        captured = capsys.readouterr()
        assert "standoff must be finite and > 0" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("aperture, wavelength", [("0.015", "inf"), ("1e-200", "0.0038")])
    def test_zero_far_field_distance_invalid(self, aperture, wavelength, capsys):
        # a distance of 0 (infinite wavelength, or underflow) used to end in a
        # ZeroDivisionError traceback
        assert run(["check-farfield", f"--aperture-m={aperture}", f"--wavelength-m={wavelength}",
                    "--standoff-m", "0.25"]) == 2
        assert "finite distance" in capsys.readouterr().err

    def test_missing_wavelength_and_carrier(self):
        assert run(["check-farfield", "--aperture-m", "0.015",
                    "--standoff-m", "0.25"]) == 2

    def test_wavelength_and_carrier_together_invalid(self, capsys):
        # a 1 GHz carrier means 0.30 m, not 3.8 mm; neither value may silently win
        assert run(["check-farfield", "--aperture-m", "0.015", "--wavelength-m", "0.0038",
                    "--carrier-hz", "1e9", "--standoff-m", "0.25"]) == 2
        captured = capsys.readouterr()
        assert "not allowed with argument" in captured.err
        assert captured.out == ""


class TestReport:
    def test_reference_sweep_curve_ordering(self, tmp_path):
        outdir = tmp_path / "rep"
        code = run([
            "report",
            "--truth", "2,0.1", "--truth", "3,0.15", "--truth", "7,0.3",
            "--trials", "1", "--outdir", str(outdir),
        ])
        assert code == 0
        peaks = {}
        for i, label in enumerate(["2-0.1", "3-0.15", "7-0.3"]):
            rows = np.loadtxt(sorted(outdir.glob(f"curve_{i}_*.txt"))[0])
            peaks[label] = np.max(np.abs(rows[:, 1]))  # real part column
        assert peaks["7-0.3"] > peaks["3-0.15"] > peaks["2-0.1"]
        summary = json.loads((outdir / "report.json").read_text())
        assert len(summary["summaries"]) == 3
        assert all(s["mean_abs_err_a"] < 1e-6 for s in summary["summaries"])

    def test_curve_records_match_per_value_rendering(self, tmp_path):
        outdir = tmp_path / "rep"
        assert run(["report", "--truth", "2.6,0.1", "--steps", "57", "--step-m", "3e-5",
                    "--outdir", str(outdir)]) == 0
        m = np.arange(57)
        curve = model_gamma(2.6, 0.1, 0.0, m, step_phase_advance(79e9, 3e-5))
        expected = ["# x_mm re_gamma im_gamma abs_gamma phase_deg"] + [
            f"{k * 3e-5 * 1e3:.17g} {c.real:.17g} {c.imag:.17g} "
            f"{abs(c):.17g} {math.degrees(np.angle(c)):.17g}"
            for k, c in enumerate(curve)
        ]
        text = (outdir / "curve_0_eps2.6-0.1.txt").read_text(encoding="utf-8")
        assert text.splitlines() == expected

    def test_negative_steps_invalid(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        assert run(["report", "--truth", "2,0.1", "--steps", "-1", "--outdir", str(outdir)]) == 2
        assert "need at least 3 reflection samples" in capsys.readouterr().err
        assert not outdir.exists()

    def test_empty_truth_list_invalid(self, tmp_path):
        assert run(["report", "--trials", "1",
                    "--outdir", str(tmp_path / "r")]) == 2

    def test_report_json_deterministic(self, tmp_path):
        args = ["report", "--truth", "2.6,0.1", "--trials", "3",
                "--phase-sigma-deg", "0.8", "--seed", "5"]
        assert run(args + ["--outdir", str(tmp_path / "r1")]) == 0
        assert run(args + ["--outdir", str(tmp_path / "r2")]) == 0
        assert (tmp_path / "r1" / "report.json").read_bytes() == (
            tmp_path / "r2" / "report.json"
        ).read_bytes()

    def test_noisy_statistics_populated(self, tmp_path):
        outdir = tmp_path / "noisy"
        code = run([
            "report", "--truth", "2.6,0.1", "--trials", "5",
            "--phase-sigma-deg", "0.8", "--amp-sigma", "5e-4",
            "--drift", "1.22e-2", "--seed", "3",
            "--outdir", str(outdir),
        ])
        assert code == 0
        summary = json.loads((outdir / "report.json").read_text())
        s = summary["summaries"][0]
        assert s["trials"] == 5
        assert s["converged"] == 5
        assert s["std_a"] > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, message", [
    (["simulate", "--amp-sigma", "inf"], "noise sigmas and drift must be finite"),
    (["simulate", "--phase-sigma-deg", "inf"], "noise sigmas and drift must be finite"),
    (["simulate", "--drift", "inf"], "noise sigmas and drift must be finite"),
    (["simulate", "--carrier-hz", "inf"], "step, carrier and phase offset must be finite"),
    (["simulate", "--step-m", "nan"], "step, carrier and phase offset must be finite"),
    (["simulate", "--phase-offset", "inf"], "step, carrier and phase offset must be finite"),
    (["report", "--amp-sigma", "inf"], "noise sigmas and drift must be finite"),
    (["report", "--carrier-hz", "inf"], "step, carrier and phase offset must be finite"),
    (["simulate", "--mode", "raw-if", "--standoff-m", "inf"], "standoff must be finite"),
    (["simulate", "--mode", "raw-if", "--thickness-m", "inf"], "thickness must be finite"),
    (["simulate", "--mode", "raw-if", "--chirp-duration-s", "inf"],
     "chirp chirp_duration must be finite"),
    (["simulate", "--mode", "raw-if", "--bandwidth-hz", "inf"], "chirp bandwidth must be finite"),
    (["simulate", "--mode", "raw-if", "--carrier-hz", "inf"],
     "chirp start_frequency must be finite"),
    (["simulate", "--seed", "-5"], "seed must be an integer >= 0, got -5"),
    (["report", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    (["simulate", "--eps-real", "inf"], "real part must be finite and >= 1, got inf"),
    (["simulate", "--eps-imag", "nan"], "loss part must be finite and >= 0, got nan"),
    (["simulate", "--mode", "raw-if", "--backing", "inf,0"], "real part must be finite"),
    (["simulate", "--mode", "raw-if", "--backing", "inf,0", "--bounces", "3"],
     "real part must be finite"),
    (["report", "--truth", "inf,0"], "real part must be finite"),
    (["simulate", "--mode", "raw-if", "--bandwidth-hz", "0"],
     "bandwidth and start frequency must be > 0"),
    (["simulate", "--mode", "raw-if", "--bandwidth-hz", "1e308", "--chirp-duration-s", "1e-300",
      "--samples", "2", "--sample-interval-s", "1e-301"],
     "chirp slope 1e+308 / 1e-300 overflows"),
    (["simulate", "--mode", "raw-if", "--bounces", "0"], "bounce count q must be >= 1, got 0"),
    (["simulate", "--mode", "raw-if", "--bounces", "9223372036854775808"],
     "bounce count q must be <= 1000, got 9223372036854775808"),
    # finite input whose per-step phase or noise products overflow
    (["simulate", "--step-m", "1e300"], "per-step phase advance inf rad >= pi"),
    (["report", "--trials", "2", "--amp-sigma", "1e308"], "reflection samples must be finite"),
    (["simulate", "--mode", "raw-if", "--drift", "1e308", "--steps", "5"],
     "IF samples must be finite"),
    (["simulate", "--mode", "raw-if", "--standoff-m", "1e308"], "IF samples must be finite"),
])
def test_non_finite_input_invalid(args, message, tmp_path, capsys):
    out = tmp_path / "out"
    dest = ["--out", str(out)] if args[0] == "simulate" else ["--truth", "2,0.1",
                                                              "--outdir", str(out)]
    assert run(args + dest) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("start, code, message", [
    # distances to such an anchor overflow to inf, which still ranks them
    ("1e300,0", 0, "eps_real:"), ("2,1e300", 0, "eps_real:"), ("1e160,0", 0, "eps_real:"),
    ("1e308,0", 3, "overflow for this anchor and box"),
])
def test_huge_finite_start(start, code, message, tmp_path, capsys):
    sweep = tmp_path / "sweep.txt"
    assert run(["simulate", "--out", str(sweep)]) == 0
    assert run(["estimate", "--input", str(sweep), "--start", start]) == code
    captured = capsys.readouterr()
    assert message in (captured.err if code else captured.out)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args", [
    ["simulate", "--eps-real", "1e308"],
    ["simulate", "--eps-real", "1e308", "--eps-imag", "1e308"],
    ["simulate", "--mode", "raw-if", "--eps-real", "1e308", "--bounces", "3"],
    ["report", "--truth", "1e308,0"],
    ["report", "--truth", "1e308,0", "--trials", "2"],  # the error mean overflows to inf
])
def test_huge_finite_permittivity(args, tmp_path):
    out = tmp_path / "out"
    dest = ["--out", str(out)] if args[0] == "simulate" else ["--outdir", str(out)]
    assert run(args + dest) == 0
    assert out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale, message", [(1e200, "the residual norm overflows"),
                                            (1e308, "the sweep mean overflows")])
def test_overflowing_samples_are_numerical_failure(scale, message, tmp_path, capsys):
    sweep = tmp_path / "sweep.txt"
    assert run(["simulate", "--out", str(sweep)]) == 0
    src = DatasetFile.read(sweep)
    src.gammas = src.gammas * scale
    src.write(sweep)
    capsys.readouterr()
    assert run(["estimate", "--input", str(sweep)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("args, target", [
    (["simulate", "--steps", "100000000000"], "generate_dataset"),
    (["simulate", "--mode", "raw-if", "--samples", "100000000000", "--chirp-duration-s", "1e6"],
     "generate_if_datasets"),
    (["report", "--truth", "2,0.1", "--steps", "100000000000"], "run_sweep"),
])
def test_allocation_failure_is_invalid_input(args, target, tmp_path, monkeypatch, capsys):
    # numpy raises MemoryError for such sizes; a real allocation that large
    # could get the process killed where memory is overcommitted, so fake it
    def refuse(*_, **__):
        raise MemoryError("Unable to allocate 1.42 TiB for an array")

    monkeypatch.setattr(cli, target, refuse)
    out = tmp_path / "out"
    dest = ["--out", str(out)] if args[0] == "simulate" else ["--outdir", str(out)]
    assert run(args + dest) == 2
    assert capsys.readouterr().err == "error: Unable to allocate 1.42 TiB for an array\n"
    assert not out.exists()


def test_error_without_a_message_names_its_class(tmp_path, monkeypatch, capsys):
    # a trial list that outgrows memory partway raises a bare MemoryError()
    def refuse(*_, **__):
        raise MemoryError()

    monkeypatch.setattr(cli, "run_sweep", refuse)
    assert run(["report", "--truth", "2,0.1", "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: MemoryError\n"


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "permslab" in capsys.readouterr().out


def test_unknown_command_is_invalid():
    assert run(["frobnicate"]) == 2


class TestRepeatedCalls:
    """Calls of ``main`` in one process share one parser and nothing else."""

    def test_start_does_not_leak_into_next_call(self, tmp_path, capsys):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--phase-offset", "0.4", "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep), "--start", "7,0.3,0"]) == 0
        anchored = capsys.readouterr().out.splitlines()[:3]
        assert run(["estimate", "--input", str(sweep)]) == 0
        auto = capsys.readouterr().out.splitlines()[:3]
        fit = fit_permittivity(DatasetFile.read(sweep).to_sweep(), starts="auto")
        assert auto == [f"eps_real:        {fit.permittivity.real_part:.6f}",
                        f"eps_imag:        {fit.permittivity.imag_part:.6f}",
                        f"phase_offset:    {fit.phase_offset:.6f} rad"]
        assert auto != anchored

    def test_truths_do_not_leak_into_next_call(self, tmp_path):
        for name, truths in [("r1", ["2,0.1", "3,0.15"]), ("r2", ["7,0.3"])]:
            argv = ["report", "--outdir", str(tmp_path / name)]
            for t in truths:
                argv += ["--truth", t]
            assert run(argv) == 0
        for name, labels in [("r1", ["2-0.1", "3-0.15"]), ("r2", ["7-0.3"])]:
            outdir = tmp_path / name
            summaries = json.loads((outdir / "report.json").read_text())["summaries"]
            assert len(summaries) == len(labels)
            assert sorted(p.name for p in outdir.glob("curve_*.txt")) == [
                f"curve_{i}_eps{label}.txt" for i, label in enumerate(labels)]

    def test_rejected_call_leaves_next_call_valid(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        assert run(["report", "--truth", "2,0.1", "--trials", "x",
                    "--outdir", str(outdir)]) == 2
        assert "invalid int value: 'x'" in capsys.readouterr().err
        assert run(["report", "--truth", "3,0.15", "--outdir", str(outdir)]) == 0
        summaries = json.loads((outdir / "report.json").read_text())["summaries"]
        assert [s["trials"] for s in summaries] == [1]

    def test_help_and_version_unchanged_after_calls(self, tmp_path, capsys):
        queries = (["--version"], ["--help"], ["estimate", "--help"], ["report", "--help"])

        def outputs():
            for argv in queries:
                assert run(argv) == 0
            return capsys.readouterr().out

        before = outputs()
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep), "--start", "3,0.1,0"]) == 0
        assert run(["report", "--truth", "2,0.1", "--outdir", str(tmp_path / "r")]) == 0
        assert run(["estimate", "--bogus"]) == 2
        capsys.readouterr()
        assert outputs() == before

    def test_parser_is_built_once(self, tmp_path, monkeypatch):
        sweep = tmp_path / "sweep.txt"
        assert run(["simulate", "--out", str(sweep)]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["simulate", "--out", str(sweep)]) == 0
        assert run(["estimate", "--input", str(sweep)]) == 0
        assert run(["check-farfield", "--bogus"]) == 2
        assert built == []

    def test_pipelines_leave_numpy_ma_unimported(self, tmp_path):
        # numpy.ma, which np.unique on numbers imports, is not needed and
        # raises the peak memory by 1.3 MB, or by about 10 MB where its
        # bytecode is compiled first
        script = textwrap.dedent(f"""
            import sys
            from permslab.cli import main
            d = {str(tmp_path)!r} + "/"
            for argv in (
                ["simulate", "--mode", "raw-if", "--steps", "3", "--samples", "300",
                 "--chirp-duration-s", "6e-4", "--out", d + "raw.txt", "--amp-sigma", "1e-3"],
                ["extract", "--input", d + "raw.txt", "--out", d + "sweep.txt"],
                ["estimate", "--input", d + "sweep.txt", "--report-out", d + "report.txt"],
                ["simulate", "--steps", "200", "--out", d + "gamma.txt", "--amp-sigma", "1e-3"],
                ["estimate", "--input", d + "gamma.txt", "--report-out", d + "report2.txt"],
            ):
                assert main(argv) == 0, argv
            assert "numpy.ma" not in sys.modules
        """)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
