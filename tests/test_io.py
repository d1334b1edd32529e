"""Dataset and report file round trips and format validation."""

import math
import os
import re
import threading
import tracemalloc

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
from permslab import io
from permslab.errors import AliasingError, DatasetFormatError
from permslab.io import GAMMA_COLUMNS, RAW_COLUMNS, REPORT_COLUMNS

EDGE = np.array([-0.0, 5e-324, 1e308, 0.1, -1 / 3])


def g17(x):
    """Independent 17-digit rendering of one value."""
    return format(float(x), ".17g")


def bits_equal(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def read_in_chunks(read, path):
    """``read(path)``, after checking that blocks of one byte (a line
    each) and of 120 bytes (two or three raw-IF records) read the same
    values bit for bit, or raise the same error: the blocks of records
    that the vectorized parser takes and those that go to np.loadtxt
    alternate, and a refusal's row is counted across them."""
    def outcome():
        try:
            back = read(path)
        except DatasetFormatError as exc:
            return exc, (type(exc), str(exc))
        values = {key: (value.shape, value.tobytes()) if isinstance(value, np.ndarray) else value
                  for key, value in vars(back).items()}
        return back, values

    result, expected = outcome()
    for size in (1, 120):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io, "_BLOCK_BYTES", size)
            assert outcome()[1] == expected
    if isinstance(result, DatasetFormatError):
        raise result
    return result


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

    @pytest.mark.parametrize("key, value, error, message", [
        ("step_m", "inf", AliasingError, "per-step phase advance inf rad >= pi"),
        ("carrier_hz", "inf", AliasingError, "per-step phase advance inf rad >= pi"),
        ("step_m", "nan", ValueError, "step must be > 0, got nan"),
    ])
    def test_forward_file_with_a_bad_step_or_carrier(self, tmp_path, recwarn, key, value,
                                                     error, message):
        # the step and carrier are checked before the rotation that uses them
        path = tmp_path / "sweep.txt"
        gamma_file(tmp_path, direction="forward").write(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(re.sub(f"\n{key}: .*\n", f"\n{key}: {value}\n", text))
        with pytest.raises(error, match=message):
            DatasetFile.read(path).to_sweep()
        assert not recwarn.list

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

    def test_non_finite_sample_refused_at_construction(self, tmp_path):
        # written, such a file could not be read back
        with pytest.raises(DatasetFormatError, match="non-finite gamma record"):
            gamma_file(tmp_path, gammas=[1.0, math.nan, 1.0])

    @pytest.mark.parametrize("provenance", [
        "a\nb", "a\rb", "trailing\r\n", "a\ncolumns: m re_gamma im_gamma\n0 1 2"])
    def test_provenance_spanning_lines_refused_at_construction(self, tmp_path, provenance):
        # written, it would end the header line early: a second header, or
        # a line that reads as a metadata line without colon
        with pytest.raises(DatasetFormatError, match="provenance spans lines"):
            gamma_file(tmp_path, provenance=provenance)

    def test_provenance_loses_surrounding_whitespace(self, tmp_path):
        path = tmp_path / "sweep.txt"
        gamma_file(tmp_path, provenance="  padded  ").write(path)
        assert DatasetFile.read(path).provenance == "padded"


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

    @pytest.mark.parametrize("trace", ["mut", "metal"])
    def test_non_finite_sample_refused_at_construction(self, trace):
        mut, metal = np.ones(5, dtype=complex), np.ones((2, 5), dtype=complex)
        (mut if trace == "mut" else metal[1])[3] = math.nan
        with pytest.raises(DatasetFormatError, match="incomplete or non-finite trace records"):
            DatasetFile(mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=2,
                        chirp=SMALL_CHIRP, mut_samples=mut, metal_samples=metal)

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

    def test_older_report_with_an_iterations_line_reads(self, tmp_path):
        data = generate_dataset(
            ComplexPermittivity(2.6, 0.1), 0.3, 5, 1e-4, 79e9, NoiseModel(seed=5)
        )
        path = tmp_path / "report.txt"
        ReportFile.from_fit(fit_permittivity(data), data).write(path)
        text = path.read_text(encoding="utf-8")
        assert "iterations" not in text
        path.write_text(text.replace("converged: true\n", "iterations: 0\nconverged: true\n"))
        back = ReportFile.read(path)
        assert back.converged and back.step_count == 5

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            ReportFile.read(tmp_path / "missing.txt")

    def test_malformed_record_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("step_count: 1\ncolumns: m x_mm re im re im\n0 0 x 1 2 3\n")
        with pytest.raises(DatasetFormatError, match="bad report record"):
            ReportFile.read(path)


SMALL_CHIRP = ChirpConfig(79e9, 1e4, 200e-6, 5, 2e-6)


def records(edit):
    """An edit of a file's text that applies ``edit`` to each record line."""
    def edited(text):
        head, columns, body = text.partition(f"columns: {RAW_COLUMNS}\n")
        return head + columns + "".join(edit(line) + "\n" for line in body.splitlines())
    return edited


def values(edit):
    """An edit of a file's text that applies ``edit`` to each value token
    of its raw-IF records, in order."""
    def line_edit(line):
        fields = line.split(" ")
        return " ".join(fields[:2] + [edit(token) for token in fields[2:]])
    return records(line_edit)


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
            converged=True, carrier_hz=79e9, step_m=3e-5,
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


def template_write_records(path, header, blocks):
    """The writer before the numpy kernel, kept as the oracle: one ``%``
    operation per block of ``str`` labels and float rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(header) + "\n")
        for labels, values in blocks:
            fields = " ".join(["%.17g"] * values.shape[1]) + "\n"
            template = "".join([label + fields for label in labels])
            fh.write(template % tuple(values.ravel().tolist()))


def mixed_values(rng, count):
    """Values of every scale, with some the kernel leaves to ``%`` mixed in."""
    values = rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 18, count)
    at = rng.integers(0, count, count // 8 + 1)
    values[at] = rng.choice([0.0, -0.0, 5e-324, -1e-310, 1e-6, -1e-7, 1e16, -3e300], at.size)
    return values


def mixed_complex(rng, *shape):
    count = math.prod(shape)
    return (mixed_values(rng, count) + 1j * mixed_values(rng, count)).reshape(shape)


class TestWriterMatchesTemplate:
    """Files equal, byte for byte, what the template writer makes of the
    same header and records, on blocks below, at and above the size
    where the numpy kernel takes over, with values out of its range mixed
    in."""

    LIMIT = io._KERNEL_MIN_VALUES

    @staticmethod
    def assert_same_bytes(write, path):
        write(path)
        written = path.read_bytes()

        def oracle(path, header, blocks):
            template_write_records(path, header, [
                ([b"".join(row.tobytes() for row in rows).replace(b"\0", b"").decode()
                  for rows in zip(*labels)], values)
                for labels, values in blocks])

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io, "write_records", oracle)
            write(path)
        assert written == path.read_bytes()

    @pytest.mark.parametrize("steps", [LIMIT // 2 - 1, LIMIT // 2, LIMIT // 2 + 1])
    def test_gamma(self, tmp_path, steps):
        gammas = mixed_complex(np.random.default_rng(steps), steps)
        self.assert_same_bytes(gamma_file(tmp_path, gammas).write, tmp_path / "sweep.txt")

    def test_gamma_with_no_value_in_the_kernels_range(self, tmp_path):
        gammas = np.zeros(self.LIMIT, dtype=complex)
        gammas[::3] = -0.0 + 5e-324j
        self.assert_same_bytes(gamma_file(tmp_path, gammas).write, tmp_path / "sweep.txt")

    @pytest.mark.parametrize("steps", [LIMIT // 5, LIMIT // 5 + 1])
    def test_report(self, tmp_path, steps):
        rng = np.random.default_rng(steps)
        report = ReportFile(
            eps_real=2.5, eps_imag=0.1, phase_offset_rad=-1 / 3, residual_norm=1e-3,
            converged=True, carrier_hz=79e9, step_m=1e-4, step_count=steps,
            measured=mixed_complex(rng, steps), fitted=mixed_complex(rng, steps),
        )
        self.assert_same_bytes(report.write, tmp_path / "report.txt")

    @pytest.mark.parametrize("samples", [LIMIT // 2 - 1, LIMIT // 2, LIMIT // 2 + 1])
    @pytest.mark.parametrize("block_records", [io._BLOCK_RECORDS, LIMIT // 2 + 3])
    def test_raw_if(self, tmp_path, monkeypatch, samples, block_records):
        # a small block size splits the metal stack across traces, with a
        # last block below the kernel's size
        monkeypatch.setattr(io, "_BLOCK_RECORDS", block_records)
        rng = np.random.default_rng(samples)
        src = DatasetFile(
            mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=3,
            chirp=ChirpConfig(79e9, 1e4, samples * 2e-6, samples, 2e-6),
            mut_samples=mixed_complex(rng, samples), metal_samples=mixed_complex(rng, 3, samples),
        )
        path = tmp_path / "raw.txt"
        self.assert_same_bytes(src.write, path)
        back = DatasetFile.read(path)
        assert bits_equal(back.mut_samples, src.mut_samples)
        assert bits_equal(back.metal_samples, src.metal_samples)


    @staticmethod
    def boundary_values(rng, count):
        """Values of 10 and above, whole and with a fraction, and
        e-notation values, all outside the kernel's range and so written
        by `%`; the range ends and the doubles next to them; zeros,
        subnormals, huge and non-finite values; and ordinary ones with 17
        digits and with 3."""
        magnitude = 10.0 ** rng.uniform(1, 15.9, count)
        ends = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 10.0, np.nextafter(10.0, 0)]
        kinds = [np.round(magnitude), magnitude, 10.0 ** rng.uniform(-5.99, -4.01, count),
                 rng.choice(ends, count),
                 rng.choice([0.0, -0.0, 5e-324, 1e-7, 1e16, -2e300, np.inf, np.nan], count),
                 rng.standard_normal(count), np.round(rng.standard_normal(count), 3)]
        values = np.choose(rng.integers(0, len(kinds), count), kinds)
        return np.where(rng.random(count) < 0.5, -values, values)

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 15, 16, 17])
    @pytest.mark.parametrize("shape", [(LIMIT - 1, 1), (LIMIT, 1), (LIMIT + 1, 1), (85, 3),
                                       (LIMIT // 2, 2), (86, 3)])
    def test_labels_across_word_boundaries(self, tmp_path, width, shape):
        # labels up to `width` bytes, padded to whole words, before blocks of
        # values below, at and above the size where the kernel takes over
        rng = np.random.default_rng(width * 1000 + shape[0])
        letters = np.frombuffer(b"abcdefghijklmnopqrstuvwxyz0123456789.-_", np.uint8)
        texts = [bytes(rng.choice(letters, length - 1)) + b" "
                 for length in rng.integers(1, width + 1, shape[0])]
        texts[0] = texts[0].rjust(width, b"x")
        labels = (io._word_rows(texts),)
        assert labels[0].shape[1] == -(-width // 8)
        values = self.boundary_values(rng, math.prod(shape)).reshape(shape)
        blocks = [(labels, values), (labels, values[::-1])]
        io.write_records(tmp_path / "words.txt", ["# header"], blocks)
        template_write_records(tmp_path / "template.txt", ["# header"],
                               [([text.decode() for text in texts], v) for _, v in blocks])
        assert (tmp_path / "words.txt").read_bytes() == (tmp_path / "template.txt").read_bytes()


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
        back = read_in_chunks(DatasetFile.read, path)
        assert bits_equal(back.mut_samples, src.mut_samples)
        assert bits_equal(back.metal_samples, src.metal_samples)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("\n", "\r\n"),
        lambda text: text.replace("\n", "\r"),
        lambda text: text.rstrip("\n"),
        records(lambda line: line.replace(" ", "\t")),
        records(lambda line: line.replace(" ", "   ")),
        records(lambda line: " " + line),
        records(lambda line: line + "  # note"),
        records(lambda line: line + "\n\n"),
        records(lambda line: line.replace(" ", "\x0c", 2).replace("\x0c", " ", 1)),
        records(lambda line: re.sub(r"(?<=\d)e(?=[+-])", "E", line)),
        values(lambda token: token if token.startswith("-") else "+" + token),
        values(lambda token: repr(float(token))),
    ], ids=["crlf", "cr", "no-final-newline", "tabs", "space-runs", "leading-blank",
            "trailing-comment", "blank-lines", "form-feed", "upper-e", "plus-sign", "repr"])
    def test_layouts_read_as_text_mode_reads_them(self, tmp_path, edit):
        path = tmp_path / "raw.txt"
        src = raw_file(path)
        path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
        back = read_in_chunks(DatasetFile.read, path)
        assert bits_equal(back.mut_samples, src.mut_samples)
        assert bits_equal(back.metal_samples, src.metal_samples)

    @pytest.mark.parametrize("edit, message", [
        (lambda text: text.replace("\nmut 0 -0 ", "\nmut 0 -0\x00"),
         "bad trace record: the dtype passed requires 4 columns but 3 were found at row 1"),
        (lambda text: text.replace("\nmut 0 -0 ", "\nmut 0 1_1 "),
         "bad trace record: could not convert string '1_1' to float64 at row 0, column 3"),
    ], ids=["nul", "underscore"])
    def test_refusals_keep_their_messages(self, tmp_path, edit, message):
        path = tmp_path / "raw.txt"
        raw_file(path)
        path.write_bytes(edit(path.read_text(encoding="utf-8")).encode("utf-8"))
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            read_in_chunks(DatasetFile.read, path)

    def test_odd_layout_past_the_first_block(self, tmp_path, monkeypatch):
        # an M=200, N=1024 file: the parser reads the first blocks, np.loadtxt
        # the first it refuses and all that follow, and a refusal counts its
        # row across both
        m, n = 200, 1024
        rng = np.random.default_rng(6)
        path = tmp_path / "raw.txt"
        src = DatasetFile(
            mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=m,
            chirp=ChirpConfig(79e9, 1e4, n * 2e-6, n, 2e-6),
            mut_samples=rng.uniform(1e-3, 1, n) + 1j * rng.uniform(-1e3, -1, n),
            metal_samples=rng.uniform(-1, -1e-5, (m, n)) - 1j * rng.uniform(1, 1e5, (m, n)),
        )
        src.write(path)
        data = path.read_bytes()
        head = data.index(b"\nmetal-100 0 ") + 1
        assert head > 4 * io._BLOCK_BYTES
        odd = data[:head] + b"# halfway\n" + data[head:].replace(b" ", b"\t")
        path.write_bytes(odd)
        parses, raw_records = [], io._raw_records

        def counted(*args):
            parses.append(raw_records(*args))
            return parses[-1]

        monkeypatch.setattr(io, "_raw_records", counted)
        back = DatasetFile.read(path)
        assert len(parses) > 4 and parses[-1] is None
        assert all(records is not None for records in parses[:-1])
        assert bits_equal(back.mut_samples, src.mut_samples)
        assert bits_equal(back.metal_samples, src.metal_samples)
        lines = odd.split(b"\n")
        row = 101 * n + 300  # a record of metal-100
        line = lines.index(b"columns: " + RAW_COLUMNS.encode()) + 2 + row
        lines[line] = lines[line].replace(b"\t", b"\tx", 2).replace(b"\tx", b"\t", 1)
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DatasetFormatError, match="could not convert string 'x[^']*' "
                                                     f"to float64 at row {row}, column 3"):
            DatasetFile.read(path)

    def test_ids_equal_in_their_first_word_alternate(self, tmp_path):
        # metal-100 and metal-101 share their first 8 bytes: record by record
        # they alternate, a run of one record each, and still read apart
        m, n = 102, 8
        rng = np.random.default_rng(9)
        path = tmp_path / "raw.txt"
        src = DatasetFile(
            mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=m,
            chirp=ChirpConfig(79e9, 1e4, n * 2e-6, n, 2e-6),
            mut_samples=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            metal_samples=rng.standard_normal((m, n)) - 1j * rng.standard_normal((m, n)),
        )
        src.write(path)
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines(keepends=True)
        pair = [[line for line in lines if line.startswith(f"metal-{i} ")] for i in (100, 101)]
        assert len(pair[0]) == len(pair[1]) == n
        rest = [line for line in lines if line not in pair[0] + pair[1]]
        path.write_text("".join(rest + [line for two in zip(*pair) for line in two]),
                        encoding="utf-8")
        back = read_in_chunks(DatasetFile.read, path)
        assert bits_equal(back.mut_samples, src.mut_samples)
        assert bits_equal(back.metal_samples, src.metal_samples)
        # a 16-byte id may have been cut short, and is refused
        path.write_text(path.read_text(encoding="utf-8").replace("\nmetal-101 3 ",
                                                                 "\nmetal-0000000101 3 "))
        with pytest.raises(DatasetFormatError, match="^bad trace id 'metal-0000000101'$"):
            read_in_chunks(DatasetFile.read, path)

    def test_parser_reads_what_loadtxt_reads(self, tmp_path):
        # written records of every magnitude the rules take, and zeros; and
        # ids of 16 bytes and with points, digits or "e", indexes with
        # leading zeros, and values the writer does not write
        rng = np.random.default_rng(12)
        m, n = 6, 512
        parts = rng.choice([-1.0, 1.0], (2, m + 1, n)) * 10.0 ** rng.uniform(-6, 16, (2, m + 1, n))
        z = parts[0] + 1j * parts[1]
        z[:, :4] = [0, -0.0, 1.0000000000000002e-6, 9999999999999998.0]
        path = tmp_path / "raw.txt"
        DatasetFile(mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=m,
                    chirp=ChirpConfig(79e9, 1e4, n * 2e-6, n, 2e-6),
                    mut_samples=z[0], metal_samples=z[1:]).write(path)
        data = path.read_bytes()
        odd = (b"abcdefghijklmnop 0007 5. .5\n"
               b"a.b 1 -0 1e+22\n"
               b"e1.5 00000000 9007199254740992 -.5e-05\n"
               b"metal-7 99999999 0.1234567890123456 1.7976931348623157\n")
        dtype = io._RECORDS["raw-if"][1]
        for block in (data[data.index(b"\nmut 0 ") + 1:], odd):
            parsed = io._raw_records(block, dtype)
            assert parsed.tobytes() == io._loaded(block, "trace", dtype, 0).tobytes()

    @pytest.mark.parametrize("value", [
        b"9007199254740993", b"0.12345678901234567890123", b"1.7976931348623157e+308",
        b"-4.9406564584124654e-324", b"9.9999999999999995e-08", b"1.5e-005", b"1E5", b"+1"])
    def test_a_value_no_rule_takes_sends_its_block_to_loadtxt(self, value):
        block = b"mut 0 1.5 -2\nmetal-0 0 1.5 %b\n" % value
        assert io._raw_records(block, io._RECORDS["raw-if"][1]) is None

    @pytest.mark.parametrize("old, new, message", [
        ("\nmetal-1 2 ", "\nmetal-x 2 ", "bad trace id 'metal-x'"),
        ("\nmetal-1 2 ", "\nprobe 2 ", "bad trace id 'probe'"),
        ("\nmetal-1 2 ", "\nmetal-0000000001 2 ", "bad trace id"),
        ("\nmetal-1 2 ", "\nmetal-2 2 ", "metal index 2 out of range"),
        ("\nmetal-1 2 ", "\nmetal--1 2 ", "bad trace id 'metal--1'"),
        ("\nmetal-1 2 ", "\nmetal-1 5 ", "sample index 5 out of range"),
        ("\nmetal-1 2 ", "\nmetal-1 2 7 ", "bad trace record: .* at row 13;"),
        ("\nmetal-1 2 ", "\nmetal-1 x ", "bad trace record: .* at row 12, column 2"),
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
            read_in_chunks(DatasetFile.read, path)

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
            read_in_chunks(DatasetFile.read, path)

    @pytest.mark.parametrize("edits, message", [
        # a bad id in an early chunk, a missing record in a late one
        ({"\nmut 1 ": "\nprobe 1 ", "\nmetal-1 4 ": "\n# metal-1 4 "},
         "trace record count 14 != 15"),
        ({"\nmut 1 ": "\nprobe 1 ", "\nmetal-1 4 ": "\nmetal-1 9 "},
         "sample index 9 out of range"),
        ({"\nmut 1 ": "\nmut -1 ", "\nmetal-1 4 ": "\nmetal-1 9 "},
         "sample index -1 out of range"),
        ({"\nmut 1 ": "\nprobe 1 ", "\nmetal-1 4 ": "\nmetal-x 4 "},
         "bad trace id 'metal-x'"),
        ({"\nmut 1 ": "\nmetal-7 1 ", "\nmetal-1 4 ": "\nmetal-x 4 "},
         "metal index 7 out of range"),
        ({"\nmut 1 ": "\nprobe 1 ", "\nmetal-1 4 ": "\nmetal-1 4 7 "},
         "bad trace record: .* at row 15;"),
        # a malformed record wins over a bad header value
        ({"\nsample_count: 5\n": "\nsample_count: x\n", "\nmetal-1 4 ": "\nmetal-1 x "},
         "bad trace record: could not convert string 'x' to int64 at row 14, column 2"),
        ({"\nstep_count: 2\n": "\nstep_count: 0\n", "\nmetal-1 4 ": "\nmetal-1 x "},
         "bad trace record: .* at row 14"),
    ])
    def test_first_failing_check_wins_across_chunks(self, tmp_path, edits, message):
        path = tmp_path / "raw.txt"
        raw_file(path)
        text = path.read_text(encoding="utf-8")
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=message):
            read_in_chunks(DatasetFile.read, path)

    def test_comment_after_a_header_value_is_part_of_it(self, tmp_path):
        path = tmp_path / "raw.txt"
        raw_file(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\nsample_interval_s: 1.9999999999999999e-06\n",
                                     "\nsample_interval_s: 1.9999999999999999e-06 # note\n"))
        with pytest.raises(DatasetFormatError, match="bad float for 'sample_interval_s'"):
            DatasetFile.read(path)

    @pytest.mark.parametrize("step_count", [2, 1000000])
    def test_pipe_reads(self, tmp_path, step_count):
        # a pipe has no size to bound its record count by, so the stack waits
        # for the count; a false one allocates nothing (16 * 5000005 bytes)
        path = tmp_path / "raw.txt"
        src = raw_file(path)
        text = path.read_text(encoding="utf-8")
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(
            text.replace("\nstep_count: 2\n", f"\nstep_count: {step_count}\n"),))
        writer.start()
        tracemalloc.start()
        try:
            if step_count == 2:
                back = DatasetFile.read(pipe)
            else:
                with pytest.raises(DatasetFormatError, match="trace record count 15 != 5000005"):
                    DatasetFile.read(pipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.join()
        assert peak < 1e6
        if step_count == 2:
            assert bits_equal(back.mut_samples, src.mut_samples)
            assert bits_equal(back.metal_samples, src.metal_samples)

    def test_read_holds_about_its_output(self, tmp_path):
        # the (1 + M, N) stack plus one chunk of records, not the whole file's records
        m, n = 200, 1024
        rng = np.random.default_rng(4)
        path = tmp_path / "raw.txt"
        src = DatasetFile(
            mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=m,
            chirp=ChirpConfig(79e9, 1e4, n * 2e-6, n, 2e-6),
            mut_samples=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            metal_samples=rng.standard_normal((m, n)) - 1j * rng.standard_normal((m, n)),
        )
        src.write(path)
        tracemalloc.start()
        try:
            back = DatasetFile.read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 16 * (1 + m) * n
        assert bits_equal(back.metal_samples, src.metal_samples)

    def test_false_header_holds_nothing(self, tmp_path):
        # a header promising more records than the file can hold is refused by
        # the count, without the stack or the file's records
        m, n = 200, 1024
        rng = np.random.default_rng(5)
        path = tmp_path / "raw.txt"
        DatasetFile(
            mode="raw-if", carrier_hz=79e9, step_m=1e-4, step_count=m,
            chirp=ChirpConfig(79e9, 1e4, n * 2e-6, n, 2e-6),
            mut_samples=rng.standard_normal(n) + 1j * rng.standard_normal(n),
            metal_samples=rng.standard_normal((m, n)) - 1j * rng.standard_normal((m, n)),
        ).write(path)
        data = path.read_bytes()
        assert data.count(b"\nstep_count: 200\n") == 1
        path.write_bytes(data.replace(b"\nstep_count: 200\n", b"\nstep_count: 1000000\n"))
        tracemalloc.start()
        try:
            with pytest.raises(DatasetFormatError,
                               match="trace record count 205824 != 1024001024"):
                DatasetFile.read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (1 + m) * n

    @pytest.mark.parametrize("edits", [
        {"\nmut 1 ": "\nprobe 1 ", "\nmetal-1 4 ": "\n# metal-1 4 "},
        {"\nmut 1 ": "\nmut -1 ", "\nmetal-1 4 ": "\nmetal-1 9 "},
        {"\nmut 1 ": "\nprobe 1 ", "\nmetal-1 4 ": "\nmetal-x 4 "},
        {"\nsample_count: 5\n": "\nsample_count: x\n", "\nmetal-1 4 ": "\nmetal-1 x "},
    ], ids=["count", "index", "ids", "record-over-header"])
    def test_pipe_refuses_as_the_file_does(self, tmp_path, edits):
        # two defects each: a pipe, read into memory first, keeps the order of
        # the checks that decides which one is reported
        path = tmp_path / "raw.txt"
        raw_file(path)
        text = path.read_text(encoding="utf-8")
        for old, new in edits.items():
            assert text.count(old) == 1
            text = text.replace(old, new)
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DatasetFormatError) as from_file:
            DatasetFile.read(path)
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_text, args=(text,))
        writer.start()
        try:
            with pytest.raises(DatasetFormatError) as from_pipe:
                DatasetFile.read(pipe)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert (type(from_pipe.value), str(from_pipe.value)) == \
            (type(from_file.value), str(from_file.value))

    def test_bad_path_loss_rejected(self, tmp_path):
        path = tmp_path / "raw.txt"
        raw_file(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("\npath_loss_im: 0\n", "\npath_loss_im: x\n"))
        with pytest.raises(DatasetFormatError, match="bad float for 'path_loss_im'"):
            DatasetFile.read(path)

    @pytest.mark.parametrize("old, new, message", [
        ("\nsample_count: 5\n", "\nsample_count: 1\n", "need at least 2 samples, got 1"),
        ("\nbandwidth_hz: 10000\n", "\nbandwidth_hz: -5\n",
         "bandwidth and start frequency must be > 0"),
        ("\ncarrier_hz: 79000000000\n", "\ncarrier_hz: nan\n",
         "chirp start_frequency must be finite"),
    ])
    def test_chirp_header_that_parses_but_is_invalid(self, tmp_path, old, new, message):
        # ChirpConfig's ValueError used to escape the reader
        path = tmp_path / "raw.txt"
        raw_file(path)
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1
        path.write_text(text.replace(old, new), encoding="utf-8")
        with pytest.raises(DatasetFormatError, match=f"bad chirp header: {message}"):
            read_in_chunks(DatasetFile.read, path)
        # a malformed record later in the file still wins
        path.write_text(text.replace(old, new).replace("\nmetal-1 4 ", "\nmetal-1 x "),
                        encoding="utf-8")
        with pytest.raises(DatasetFormatError, match="bad trace record"):
            DatasetFile.read(path)

    @pytest.mark.parametrize("line", ["", "converged: True\n", "converged: 1\n",
                                      "converged:\n", "convergd: true\n"])
    def test_report_converged_must_be_true_or_false(self, tmp_path, line):
        path = tmp_path / "report.txt"
        ReportFile(
            eps_real=2.0, eps_imag=0.1, phase_offset_rad=0.0, residual_norm=0.0,
            converged=True, carrier_hz=79e9, step_m=1e-4, step_count=1,
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
        with pytest.raises(DatasetFormatError, match="bad report record: .* at row 4;"):
            read_in_chunks(ReportFile.read, path)

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
