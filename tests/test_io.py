"""Dataset and report file round trips and format validation."""

import math

import numpy as np
import pytest

from permslab import (
    ChirpConfig,
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
from permslab.io import GAMMA_COLUMNS, RAW_COLUMNS, REPORT_COLUMNS

EDGE = np.array([-0.0, 5e-324, 1e308, 0.1, -1 / 3])


def g17(x):
    """Independent 17-digit rendering of one value."""
    return format(float(x), ".17g")


def bits_equal(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def record_lines(path, columns):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[lines.index(f"columns: {columns}") + 1:]


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

    def test_empty_sweep_reads_without_warning(self, tmp_path, recwarn):
        path = tmp_path / "empty.txt"
        gamma_file(tmp_path, np.empty(0)).write(path)
        assert DatasetFile.read(path).gammas.shape == (0,)
        assert not recwarn.list

    def test_record_count_mismatch(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            gamma_file(tmp_path, np.ones(4), step_count=5)

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mode: gamma\nno columns here\n")
        with pytest.raises(DatasetFormatError):
            DatasetFile.read(path)

    def test_header_without_columns_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mode: gamma\ncarrier_hz: 7.9e10\nstep_m: 1e-4\nstep_count: 3\n")
        with pytest.raises(DatasetFormatError, match="missing columns line"):
            DatasetFile.read(path)

    def test_missing_metadata_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("mode: gamma\ncolumns: m re im\n0 1.0 0.0\n")
        with pytest.raises(DatasetFormatError):
            DatasetFile.read(path)

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            DatasetFile.read(tmp_path / "missing.txt")

    @pytest.mark.parametrize("mode", ["report", "sweep"])
    def test_unknown_mode_rejected(self, tmp_path, mode):
        path = tmp_path / "bad.txt"
        path.write_text(f"mode: {mode}\nstep_count: 1\ncolumns: m\n0 1 2 3 4 5\n")
        with pytest.raises(DatasetFormatError, match=f"unknown mode '{mode}'"):
            DatasetFile.read(path)

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

    def test_no_metal_traces_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        raw_file(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        head = lines[:lines.index(f"columns: {RAW_COLUMNS}") + 1]
        mut = [line for line in lines if line.startswith("mut ")]
        for step_count, records in ((0, mut), (-1, [])):
            text = "\n".join(head + records).replace("step_count: 2", f"step_count: {step_count}")
            path.write_text(text + "\n", encoding="utf-8")
            with pytest.raises(DatasetFormatError, match=f"raw-if step_count {step_count} < 1"):
                DatasetFile.read(path)
        with pytest.raises(DatasetFormatError, match="raw-if step_count 0 < 1"):
            DatasetFile(mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=0,
                        chirp=SMALL_CHIRP, mut_samples=np.ones(5), metal_samples=np.ones((0, 5)))

    def test_gamma_file_cannot_feed_extraction(self, tmp_path):
        f = gamma_file(tmp_path)
        with pytest.raises(DatasetFormatError):
            f.mode = "raw-if"
            f.__post_init__()


class TestReportFile:
    def test_fewer_records_than_step_count_rejected(self, tmp_path):
        data = generate_dataset(
            ComplexPermittivity(2.6, 0.1), 0.3, 5, 1e-4, 79e9, NoiseModel(seed=5)
        )
        path = tmp_path / "report.txt"
        ReportFile.from_fit(fit_permittivity(data), data).write(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[-1].startswith("4 ")
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="report record count mismatch"):
            ReportFile.read(path)

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


SMALL_CHIRP = ChirpConfig(79e9, 1e4, 200e-6, 5, 2e-6)


def raw_file(path):
    """A raw-if file with edge values: mut plus 2 metal traces of 5 samples."""
    src = DatasetFile(
        mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=2, chirp=SMALL_CHIRP,
        mut_samples=EDGE + 1j * EDGE[::-1],
        metal_samples=np.vstack([EDGE[::-1] - 1j * EDGE, -EDGE + 0.5j]),
    )
    src.write(path)
    return src


class TestWriterGolden:
    """Each record line equals a per-value ``format(x, ".17g")`` rendering."""

    def test_gamma(self, tmp_path):
        gammas = EDGE + 1j * EDGE[::-1]
        path = tmp_path / "sweep.txt"
        gamma_file(tmp_path, gammas).write(path)
        assert record_lines(path, GAMMA_COLUMNS) == [
            f"{m} {g17(z.real)} {g17(z.imag)}" for m, z in enumerate(gammas)
        ]
        assert bits_equal(DatasetFile.read(path).gammas, gammas)

    def test_raw_if(self, tmp_path):
        path = tmp_path / "raw.txt"
        src = raw_file(path)
        traces = [("mut", src.mut_samples)] + [
            (f"metal-{m}", s) for m, s in enumerate(src.metal_samples)
        ]
        assert record_lines(path, RAW_COLUMNS) == [
            f"{name} {n} {g17(z.real)} {g17(z.imag)}"
            for name, samples in traces
            for n, z in enumerate(samples)
        ]
        back = DatasetFile.read(path)
        assert bits_equal(back.mut_samples, src.mut_samples)
        assert bits_equal(back.metal_samples, src.metal_samples)

    def test_report(self, tmp_path):
        measured = EDGE + 1j * EDGE[::-1]
        fitted = -EDGE[::-1] + 1j * EDGE
        report = ReportFile(
            eps_real=0.1, eps_imag=-0.0, phase_offset_rad=-1 / 3, residual_norm=5e-324,
            iterations=0, converged=True, carrier_hz=79e9, step_m=3e-5,
            step_count=len(EDGE), measured=measured, fitted=fitted,
        )
        path = tmp_path / "report.txt"
        report.write(path)
        text = path.read_text(encoding="utf-8")
        assert f"\neps_imag: {g17(-0.0)}\nphase_offset_rad: {g17(-1 / 3)}\n" in text
        assert record_lines(path, REPORT_COLUMNS) == [
            f"{m} {g17(m * 3e-5 * 1e3)} {g17(a.real)} {g17(a.imag)} {g17(b.real)} {g17(b.imag)}"
            for m, (a, b) in enumerate(zip(measured, fitted))
        ]
        back = ReportFile.read(path)
        assert bits_equal(back.measured, measured)
        assert bits_equal(back.fitted, fitted)
        assert bits_equal(back.eps_imag, -0.0)
        assert back.residual_norm == 5e-324


class TestReader:
    def test_shuffled_traces_with_comments_accepted(self, tmp_path):
        path = tmp_path / "raw.txt"
        src = raw_file(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        head = lines.index(f"columns: {RAW_COLUMNS}") + 1
        records = [lines[head + i] for i in np.random.default_rng(7).permutation(15)]
        body = []
        for i, line in enumerate(records):
            body += [line + "  # trailing note" if i == 3 else line, "", "# between records"]
        path.write_text("\n".join(lines[:head] + body) + "\n", encoding="utf-8")
        back = DatasetFile.read(path)
        assert bits_equal(back.mut_samples, src.mut_samples)
        assert bits_equal(back.metal_samples, src.metal_samples)

    @pytest.mark.parametrize("old, new, message", [
        ("\nmetal-1 2 ", "\nmetal-x 2 ", "bad trace id 'metal-x'"),
        ("\nmetal-1 2 ", "\nprobe 2 ", "bad trace id 'probe'"),
        ("\nmetal-1 2 ", "\nmetal-0000000001 2 ", "bad trace id"),
        ("\nmetal-1 2 ", "\nmetal-2 2 ", "metal index 2 out of range"),
        ("\nmetal-1 2 ", "\nmetal--1 2 ", "bad trace id 'metal--1'"),
        ("\nmetal-1 2 ", "\nmetal-1 5 ", "sample index 5 out of range"),
        ("\nmetal-1 2 ", "\nmetal-1 2 7 ", "bad trace record"),
        ("\nmetal-1 2 ", "\nmetal-1 x ", "bad trace record"),
        ("\nmetal-1 2 ", "\nmetal-1 1 ", "incomplete or non-finite"),
        ("\nmetal-1 2 ", "\n# metal-1 2 ", "trace record count 14 != 15"),
    ])
    def test_bad_trace_record(self, tmp_path, old, new, message):
        path = tmp_path / "raw.txt"
        raw_file(path)
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=message):
            DatasetFile.read(path)

    @pytest.mark.parametrize("old, new, message", [
        ("\n1 ", "\n1 0.5 ", "bad gamma record"),
        ("\n1 ", "\n1.0 ", "bad gamma record"),
        ("\n1 ", "\n7 ", "record index 7 out of order"),
        ("\n1 ", "\n# 1 ", "record count 7 != step_count 8"),
    ])
    def test_bad_gamma_record(self, tmp_path, old, new, message):
        path = tmp_path / "sweep.txt"
        gamma_file(tmp_path).write(path)
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=message):
            DatasetFile.read(path)

    def test_bad_path_loss_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        raw_file(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\npath_loss_im: 0\n", "\npath_loss_im: x\n"))
        with pytest.raises(DatasetFormatError, match="bad float for 'path_loss_im'"):
            DatasetFile.read(path)

    @pytest.mark.parametrize("line", ["", "converged: True\n", "converged: 1\n",
                                      "converged:\n", "convergd: true\n"])
    def test_report_converged_must_be_true_or_false(self, tmp_path, line):
        path = tmp_path / "report.txt"
        ReportFile(
            eps_real=2.0, eps_imag=0.1, phase_offset_rad=0.0, residual_norm=0.0,
            iterations=1, converged=True, carrier_hz=79e9, step_m=1e-4, step_count=1,
            measured=np.ones(1), fitted=np.ones(1),
        ).write(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("converged: true\n", line))
        with pytest.raises(DatasetFormatError, match="converged"):
            ReportFile.read(path)

    def test_bad_report_record(self, tmp_path):
        data = generate_dataset(
            ComplexPermittivity(2.6, 0.1), 0.3, 5, 1e-4, 79e9, NoiseModel(seed=5)
        )
        path = tmp_path / "report.txt"
        ReportFile.from_fit(fit_permittivity(data), data).write(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\n3 ", "\n3 0.5 "), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="bad report record"):
            ReportFile.read(path)

    @pytest.mark.parametrize("where", ["header", "records"])
    def test_non_utf8_rejected(self, tmp_path, where):
        # a bad byte in the records lies beyond the first decoded chunk,
        # so it is met while the records stream
        path = tmp_path / "raw.txt"
        cfg = benchmark_chirp()
        rng = np.random.default_rng(3)
        DatasetFile(
            mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=8, chirp=cfg,
            mut_samples=rng.standard_normal(cfg.sample_count) * (1 + 1j),
            metal_samples=rng.standard_normal((8, cfg.sample_count)) * (1 - 1j),
        ).write(path)
        data = path.read_bytes()
        assert len(data) > 3 * 8192
        if where == "header":
            data = data.replace(b"mode: raw-if", b"mode: raw-if\nprovenance: \xff")
        else:
            data = data[:-4] + b"\xff" + data[-3:]
        path.write_bytes(data)
        with pytest.raises(DatasetFormatError, match="cannot read"):
            DatasetFile.read(path)

    def test_non_utf8_report_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"# permslab report v1\neps_real: 2.6\xff\ncolumns: m\n")
        with pytest.raises(DatasetFormatError, match="cannot read"):
            ReportFile.read(path)
