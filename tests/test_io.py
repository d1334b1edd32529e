"""Dataset and report file round trips and format validation."""

import math

import numpy as np
import pytest

from permslab import (
    ComplexPermittivity,
    DatasetFile,
    NoiseModel,
    ReportFile,
    SlabGeometry,
    benchmark_chirp,
    fit_permittivity,
    generate_dataset,
    generate_if_datasets,
    model_gamma,
)
from permslab.errors import DatasetFormatError


def gamma_file(tmp_path, gammas=None, **overrides):
    if gammas is None:
        rng = np.random.default_rng(1)
        gammas = rng.standard_normal(8) * 0.1 + 1j * rng.standard_normal(8) * 0.1
    kwargs = dict(
        mode="gamma",
        carrier_hz=79e9,
        step_m=1e-4,
        step_count=len(gammas),
        provenance="unit test",
        gammas=np.asarray(gammas, dtype=complex),
    )
    kwargs.update(overrides)
    return DatasetFile(**kwargs)


class TestGammaRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        gammas = rng.standard_normal(12) * 0.3 + 1j * rng.standard_normal(12) * 0.3
        gammas[0] = 0.1 + 1e-300j  # awkward floats must survive
        src = gamma_file(tmp_path, gammas)
        path = tmp_path / "sweep.txt"
        src.write(path)
        back = DatasetFile.read(path)
        assert back.mode == "gamma"
        assert back.carrier_hz == src.carrier_hz
        assert back.step_m == src.step_m
        assert np.array_equal(back.gammas, src.gammas)
        assert back.provenance == "unit test"

    def test_to_sweep(self, tmp_path):
        data = generate_dataset(
            ComplexPermittivity(2.6, 0.1), 0.2, 10, 1e-4, 79e9, NoiseModel.quiet()
        )
        f = gamma_file(tmp_path, data.gammas)
        sweep = f.to_sweep()
        assert sweep.step == 1e-4
        assert sweep.carrier == 79e9
        np.testing.assert_array_equal(sweep.gammas, data.gammas)

    def test_forward_direction_normalized(self, tmp_path):
        # a sweep recorded with the stage moving toward the radar has a
        # rising phase; loading must map it onto the falling convention
        data = generate_dataset(
            ComplexPermittivity(2.6, 0.1), 0.2, 10, 1e-4, 79e9, NoiseModel.quiet()
        )
        rising = data.gammas * np.exp(
            2j * data.step_phase * np.arange(10)
        )
        f = gamma_file(tmp_path, rising, direction="forward")
        sweep = f.to_sweep()
        np.testing.assert_allclose(sweep.gammas, data.gammas, atol=1e-12)

    def test_record_count_mismatch(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            gamma_file(tmp_path, np.ones(4), step_count=5)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mode: gamma\nno columns here\n")
        with pytest.raises(DatasetFormatError):
            DatasetFile.read(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mode: gamma\ncolumns: m re im\n0 1.0 0.0\n")
        with pytest.raises(DatasetFormatError):
            DatasetFile.read(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            DatasetFile.read(tmp_path / "missing.txt")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_record_rejected(self, tmp_path, value):
        path = tmp_path / "bad.txt"
        path.write_text(
            "mode: gamma\ncarrier_hz: 7.9e10\nstep_m: 1e-4\nstep_count: 3\n"
            f"columns: m re_gamma im_gamma\n0 0.1 0.2\n1 {value} 0.2\n2 0.1 0.2\n"
        )
        with pytest.raises(DatasetFormatError, match="non-finite"):
            DatasetFile.read(path)


class TestRawIfRoundTrip:
    def test_bit_exact(self, tmp_path):
        cfg = benchmark_chirp()
        mut, metal = generate_if_datasets(
            ComplexPermittivity(2.6, 0.1),
            SlabGeometry(0.02, 0.25),
            cfg,
            4,
            1e-4,
            NoiseModel(seed=3),
        )
        src = DatasetFile(
            mode="raw-if",
            carrier_hz=cfg.start_frequency,
            step_m=1e-4,
            step_count=4,
            chirp=cfg,
            mut_samples=mut.samples,
            metal_samples=np.vstack([t.samples for t in metal]),
        )
        path = tmp_path / "raw.txt"
        src.write(path)
        back = DatasetFile.read(path)
        assert back.chirp == cfg
        assert np.array_equal(back.mut_samples, src.mut_samples)
        assert np.array_equal(back.metal_samples, src.metal_samples)

    def test_incomplete_traces_rejected(self, tmp_path):
        cfg = benchmark_chirp()
        src_lines = [
            "mode: raw-if",
            "carrier_hz: 7.9e+10",
            "step_m: 0.0001",
            "step_count: 1",
            f"bandwidth_hz: {cfg.bandwidth}",
            f"chirp_duration_s: {cfg.chirp_duration}",
            f"sample_count: {cfg.sample_count}",
            f"sample_interval_s: {cfg.sample_interval}",
            "amplitude: 1",
            "columns: trace_id sample_index re im",
            "mut 0 1.0 0.0",
        ]
        path = tmp_path / "short.txt"
        path.write_text("\n".join(src_lines) + "\n")
        with pytest.raises(DatasetFormatError):
            DatasetFile.read(path)

    def test_non_finite_record_rejected(self, tmp_path):
        cfg = benchmark_chirp()
        n = cfg.sample_count
        path = tmp_path / "raw.txt"
        DatasetFile(
            mode="raw-if", carrier_hz=cfg.start_frequency, step_m=1e-4, step_count=1,
            chirp=cfg, mut_samples=np.ones(n), metal_samples=np.ones((1, n)),
        ).write(path)
        text = path.read_text().replace("\nmetal-0 3 1 0\n", "\nmetal-0 3 inf 0\n")
        assert "metal-0 3 inf 0" in text
        path.write_text(text)
        with pytest.raises(DatasetFormatError, match="non-finite"):
            DatasetFile.read(path)

    def test_gamma_file_cannot_feed_extraction(self, tmp_path):
        f = gamma_file(tmp_path)
        with pytest.raises(DatasetFormatError):
            f.mode = "raw-if"
            f.__post_init__()


class TestReportFile:
    def test_round_trip_and_curve_consistency(self, tmp_path):
        data = generate_dataset(
            ComplexPermittivity(2.6, 0.1), 0.3, 15, 1e-4, 79e9, NoiseModel(seed=5)
        )
        fit = fit_permittivity(data, starts=[(2.6, 0.1, 0.3)])
        report = ReportFile.from_fit(fit, data)
        path = tmp_path / "report.txt"
        report.write(path)
        back = ReportFile.read(path)

        assert back.eps_real == report.eps_real
        assert back.eps_imag == report.eps_imag
        assert back.phase_offset_rad == report.phase_offset_rad
        assert back.converged == report.converged
        assert np.array_equal(back.measured, report.measured)
        assert np.array_equal(back.fitted, report.fitted)

        # the stored curve must be reproducible from the stored parameters
        m = np.arange(back.step_count)
        c1 = 2 * math.pi * back.carrier_hz * 2 * back.step_m / 299792458.0
        regenerated = model_gamma(
            back.eps_real, back.eps_imag, back.phase_offset_rad, m, c1
        )
        np.testing.assert_allclose(back.fitted, regenerated, atol=1e-12)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            ReportFile.read(tmp_path / "missing.txt")

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("step_count: 1\ncolumns: m x_mm re im re im\n0 0 x 1 2 3\n")
        with pytest.raises(DatasetFormatError, match="bad report record"):
            ReportFile.read(path)
