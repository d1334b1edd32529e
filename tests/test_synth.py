"""Synthetic sweep generators: direct gamma route and raw-IF route."""

import cmath
import math

import numpy as np
import pytest

from permslab import (
    METAL,
    SPEED_OF_LIGHT,
    ChirpConfig,
    ComplexPermittivity,
    IfTrace,
    NoiseModel,
    SlabGeometry,
    benchmark_chirp,
    calibrate_ratio,
    dft,
    extract_sweep,
    fit_permittivity,
    fresnel_normal,
    generate_dataset,
    generate_if_datasets,
    model_gamma,
    peak_bin,
    phase_slope_diagnostic,
    residuals,
    step_phase_advance,
    synth_if_trace,
)
from permslab.em import AIR, slab_bounce_terms
from permslab.errors import AliasingError, AllZeroSpectrumError, CalibrationError
from permslab.synth import _pcg64_seeding

from bounce_series import effective_reflection_truncated

TRUTH = ComplexPermittivity(2.60, 0.1)
# seeds of one, two, three and seven 32-bit words, and a numpy integer
BIG_SEEDS = (0, 2**32 - 1, 2**32, 2**64 + 1, 2**200 + 3, np.uint64(2**63))
GEOM = SlabGeometry(thickness=0.02, standoff=0.25, backing=METAL)


class TestGenerateDataset:
    def test_zero_noise_residuals_vanish_at_truth(self):
        data = generate_dataset(TRUTH, 0.4, 40, 1e-4, 79e9, NoiseModel.quiet())
        res = residuals((2.60, 0.1, 0.4), data)
        assert np.max(np.abs(res)) <= 1e-14

    def test_same_seed_identical(self):
        noise = NoiseModel(seed=9)
        d1 = generate_dataset(TRUTH, 0.4, 40, 1e-4, 79e9, noise)
        d2 = generate_dataset(TRUTH, 0.4, 40, 1e-4, 79e9, noise)
        assert np.array_equal(d1.gammas, d2.gammas)

    def test_different_seed_differs(self):
        d1 = generate_dataset(TRUTH, 0.4, 40, 1e-4, 79e9, NoiseModel(seed=1))
        d2 = generate_dataset(TRUTH, 0.4, 40, 1e-4, 79e9, NoiseModel(seed=2))
        assert not np.array_equal(d1.gammas, d2.gammas)

    def test_default_noise_keeps_phase_slope(self):
        data = generate_dataset(TRUTH, 0.0, 40, 1e-4, 79e9, NoiseModel(seed=4))
        slope, r2 = phase_slope_diagnostic(data)
        assert slope == pytest.approx(-189.73, abs=2.0)
        assert r2 > 0.999

    def test_drift_ramps_amplitude(self):
        noise = NoiseModel(0.0, 0.0, 1.22e-2, seed=0)
        data = generate_dataset(TRUTH, 0.0, 40, 1e-4, 79e9, noise)
        ratio = abs(data.gammas[-1]) / abs(data.gammas[0])
        assert ratio == pytest.approx(1.0122, abs=1e-4)

    @pytest.mark.parametrize("m_count", [3, 40, 201])
    def test_matches_per_sweep_formula(self, m_count):
        # generate_dataset is one row of the stacked generator run_sweep uses;
        # that row must equal the sweep formula evaluated for one sweep alone
        for i, noise in enumerate([NoiseModel(seed=5), NoiseModel(2e-2, 0.3, 0.05, 6),
                                   NoiseModel.quiet(7), *(NoiseModel(seed=s) for s in BIG_SEEDS)]):
            c = -2.5 + i
            rng = np.random.default_rng(noise.seed)
            m = np.arange(m_count)
            clean = model_gamma(2.6, 0.1, c, m, step_phase_advance(79e9, 1e-4))
            amp = (1.0 + noise.amplitude_drift_rel * m / (m_count - 1)
                   + noise.amplitude_rel_sigma * rng.standard_normal(m_count))
            phase = noise.phase_sigma * rng.standard_normal(m_count)
            expected = clean * amp * np.exp(1j * phase)
            got = generate_dataset(TRUTH, c, m_count, 1e-4, 79e9, noise).gammas
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_noise_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(amplitude_rel_sigma=-1.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_noise_model_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            NoiseModel(seed=seed)

    @pytest.mark.parametrize("seed", [np.uint32(7), np.int64(7)])
    def test_noise_model_accepts_numpy_seed(self, seed):
        got = generate_dataset(TRUTH, 0.4, 40, 1e-4, 79e9, NoiseModel(seed=seed))
        expected = generate_dataset(TRUTH, 0.4, 40, 1e-4, 79e9, NoiseModel(seed=7))
        assert np.array_equal(got.gammas, expected.gammas)

    @pytest.mark.parametrize("step, noise, error, message", [
        (1e300, NoiseModel(seed=1), AliasingError, "per-step phase advance"),
        (1e-4, NoiseModel(0.0, 0.0, 1e308, 1), ValueError, "reflection samples must be finite"),
        (1e-4, NoiseModel(1e308, 0.0, 0.0, 1), ValueError, "reflection samples must be finite"),
    ])
    def test_overflow_raises_documented_error(self, step, noise, error, message):
        # the step is checked before any numpy, and noise products that overflow
        # reach the finiteness check without a numpy warning
        with pytest.raises(error, match=message):
            generate_dataset(TRUTH, 0.3, 40, step, 79e9, noise)

    @pytest.mark.parametrize("field", ["amplitude_rel_sigma", "phase_sigma",
                                       "amplitude_drift_rel"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_noise_model_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="must be finite"):
            NoiseModel(**{field: value})


class TestGenerateIfDatasets:
    def test_equal_delay_pipeline_identity(self):
        mut, metal = generate_if_datasets(
            TRUTH, GEOM, benchmark_chirp(), 5, 1e-4, NoiseModel.quiet()
        )
        sweep = extract_sweep(mut, metal, 1e-4, 79e9)
        gamma, _ = fresnel_normal(AIR, TRUTH)
        assert sweep.gammas[0] == pytest.approx(gamma, abs=1e-9)

    def test_extracted_phase_steps_by_carrier_advance(self):
        mut, metal = generate_if_datasets(
            TRUTH, GEOM, benchmark_chirp(), 40, 1e-4, NoiseModel.quiet()
        )
        sweep = extract_sweep(mut, metal, 1e-4, 79e9)
        steps = np.diff(np.unwrap(np.angle(sweep.gammas)))
        np.testing.assert_allclose(np.degrees(steps), -18.97, atol=0.01)

    def test_matches_direct_gamma_construction(self):
        mut, metal = generate_if_datasets(
            TRUTH, GEOM, benchmark_chirp(), 40, 1e-4, NoiseModel.quiet()
        )
        via_if = extract_sweep(mut, metal, 1e-4, 79e9)
        direct = generate_dataset(TRUTH, 0.0, 40, 1e-4, 79e9, NoiseModel.quiet())
        np.testing.assert_allclose(via_if.gammas, direct.gammas, atol=1e-6)

    def test_seeded_reproducibility(self):
        noise = NoiseModel(seed=13)
        mut1, metal1 = generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 6, 1e-4, noise)
        mut2, metal2 = generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 6, 1e-4, noise)
        assert np.array_equal(mut1.samples, mut2.samples)
        for t1, t2 in zip(metal1, metal2):
            assert np.array_equal(t1.samples, t2.samples)

    @pytest.mark.parametrize("m_count", [1, 3, 40])
    @pytest.mark.parametrize("bounces", [1, 3])
    @pytest.mark.parametrize("noise", [NoiseModel.quiet(seed=2),
                                       NoiseModel(5e-3, 0.02, 0.05, seed=11)])
    @pytest.mark.parametrize("backing", [METAL, ComplexPermittivity(2.5, 0.01)])
    @pytest.mark.parametrize("cfg", [
        benchmark_chirp(),
        ChirpConfig(79e9, 2e8, 200e-6, 64, 2e-6, amplitude=1.3, path_loss=0.3 - 0.7j),
    ])
    def test_stack_equals_per_trace_synthesis(self, m_count, bounces, noise, backing, cfg):
        # each trace on its own, noise drawn one scalar at a time: amplitude, then phase
        geom = SlabGeometry(thickness=0.02, standoff=0.25, backing=backing)
        rng = np.random.default_rng(noise.seed)

        def gain():
            amp = 1.0 + noise.amplitude_rel_sigma * rng.standard_normal()
            return amp * np.exp(1j * noise.phase_sigma * rng.standard_normal())

        # the material: one front-face tone, and with bounces the series
        # summed term by term at each sample's frequency (see test_fmcw)
        tau = 2.0 * geom.standoff / SPEED_OF_LIGHT
        face = slab_bounce_terms(TRUTH, geom, cfg.start_frequency)[0]
        (material,) = synth_if_trace(cfg, [face], [tau]).samples
        if bounces > 1:
            n = np.arange(cfg.sample_count)
            freqs = cfg.start_frequency + cfg.slope * n * cfg.sample_interval
            series = [effective_reflection_truncated(TRUTH, geom, f, bounces) for f in freqs]
            (unit,) = synth_if_trace(cfg, [1.0], [tau]).samples
            material = unit * np.array(series)
        expected = [material * gain()]
        for m in range(m_count):
            tau = 2.0 * (geom.standoff + m * 1e-4) / SPEED_OF_LIGHT
            drift = noise.amplitude_drift_rel * m / (m_count - 1) if m_count > 1 else 0.0
            (trace,) = synth_if_trace(cfg, [-1.0 + 0.0j], [tau]).samples
            expected.append(trace * (1.0 - drift) * gain())
        mut, metal = generate_if_datasets(TRUTH, geom, cfg, m_count, 1e-4, noise,
                                          bounce_count=bounces)
        assert len(metal) == m_count
        got = np.array([mut.samples, *(t.samples for t in metal)])
        if bounces == 1:
            assert got.tobytes() == np.array(expected).tobytes()
        else:
            assert got[1:].tobytes() == np.array(expected[1:]).tobytes()
            scale = 0.5 * cfg.amplitude**2 * abs(cfg.path_loss)
            assert np.max(np.abs(got[0] - expected[0])) <= 1e-13 * scale

    def test_one_metal_position_has_no_drift(self):
        # a one-point sweep has no span to drift across
        noise = NoiseModel(0.0, 0.0, 0.5, seed=3)
        _, metal = generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 1, 1e-4, noise)
        assert len(metal) == 1
        tau = 2.0 * GEOM.standoff / SPEED_OF_LIGHT
        (undrifted,) = synth_if_trace(benchmark_chirp(), [-1.0 + 0.0j], [tau]).samples
        assert np.array_equal(metal[0].samples, undrifted)

    def test_overflowing_drift_raises_documented_error(self):
        with pytest.raises(ValueError, match="IF samples must be finite"):
            generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 5, 1e-4,
                                 NoiseModel(0.0, 0.0, 1e308, 1))

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="at least one metal position"):
            generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 0, 1e-4, NoiseModel.quiet())

    def test_near_field_warning(self):
        close = SlabGeometry(thickness=0.02, standoff=0.05, backing=METAL)
        with pytest.warns(UserWarning, match="far-field"):
            generate_if_datasets(
                TRUTH, close, benchmark_chirp(), 4, 1e-4, NoiseModel.quiet(),
                antenna_aperture=0.015,
            )

    def test_far_field_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generate_if_datasets(
                TRUTH, GEOM, benchmark_chirp(), 4, 1e-4, NoiseModel.quiet(),
                antenna_aperture=0.015,
            )

    def test_reference_position_offset_absorbed_by_phase_offset(self):
        # material face sits 30 um behind the reference zero: the
        # extracted sweep gains a constant ~5.7 deg phase error that the
        # fitted offset absorbs, leaving (a, b) untouched
        offset = 30e-6
        geom_offset = SlabGeometry(
            thickness=GEOM.thickness, standoff=GEOM.standoff + offset, backing=METAL
        )
        cfg = benchmark_chirp()
        mut_off, _ = generate_if_datasets(
            TRUTH, geom_offset, cfg, 40, 1e-4, NoiseModel.quiet()
        )
        _, metal = generate_if_datasets(TRUTH, GEOM, cfg, 40, 1e-4, NoiseModel.quiet())
        sweep = extract_sweep(mut_off, metal, 1e-4, 79e9)
        clean = extract_sweep(
            *generate_if_datasets(TRUTH, GEOM, cfg, 40, 1e-4, NoiseModel.quiet()),
            1e-4,
            79e9,
        )
        phase_err = math.degrees(
            cmath.phase(sweep.gammas[0] / clean.gammas[0])
        )
        assert phase_err == pytest.approx(5.69, abs=0.02)

        expected_c = 2 * math.pi * 79e9 * 2 * offset / SPEED_OF_LIGHT
        fit = fit_permittivity(sweep, starts=[(2.60, 0.1, expected_c)])
        assert fit.permittivity.real_part == pytest.approx(2.60, abs=1e-6)
        assert fit.permittivity.imag_part == pytest.approx(0.1, abs=1e-6)
        assert fit.phase_offset == pytest.approx(expected_c, abs=1e-4)

    def test_extraction_matches_trace_by_trace_reference(self):
        cfg = ChirpConfig(79e9, 2e8, 100e-6, 100, 1e-6)
        mut, metal = generate_if_datasets(
            TRUTH, GEOM, cfg, 17, 1e-4, NoiseModel(seed=6), bounce_count=3
        )
        mut_spec = dft(mut)
        mut_peak = mut_spec[peak_bin(mut_spec)]
        reference = []
        for trace in metal:
            spec = dft(trace)
            reference.append(calibrate_ratio(mut_peak, spec[peak_bin(spec)]))
        got = extract_sweep(mut, metal, 1e-4, 79e9).gammas
        assert np.array_equal(got.view(np.uint64), np.array(reference).view(np.uint64))

    def test_extraction_zero_metal_trace_raises(self):
        mut, metal = generate_if_datasets(
            TRUTH, GEOM, benchmark_chirp(), 4, 1e-4, NoiseModel.quiet()
        )
        metal[2] = IfTrace(np.zeros(benchmark_chirp().sample_count))
        with pytest.raises(AllZeroSpectrumError):
            extract_sweep(mut, metal, 1e-4, 79e9)

    def test_extraction_vanishing_metal_reference_raises(self):
        # the peak bin holds at least 1/sqrt(N) of the spectrum norm, so only
        # the peak's size against the material peak can flag this reference
        mut, metal = generate_if_datasets(
            TRUTH, GEOM, benchmark_chirp(), 5, 1e-4, NoiseModel.quiet()
        )
        metal = [IfTrace(t.samples * 1e-300) for t in metal]
        with pytest.raises(CalibrationError):
            extract_sweep(mut, metal, 1e-4, 79e9)

    def test_extraction_rejects_unequal_material_length(self):
        # the unnormalized DFT gains would differ by 64/128, halving |Gamma|
        mut, _ = generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 3, 1e-4,
                                      NoiseModel.quiet())
        cfg = ChirpConfig(79e9, 1e4, 400e-6, 128, 2e-6)
        _, metal = generate_if_datasets(TRUTH, GEOM, cfg, 3, 1e-4, NoiseModel.quiet())
        with pytest.raises(ValueError, match="128 samples and the material trace 64"):
            extract_sweep(mut, metal, 1e-4, 79e9)

    def test_extraction_rejects_mixed_metal_lengths(self):
        mut, metal = generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 4, 1e-4,
                                          NoiseModel.quiet())
        metal[1] = IfTrace(metal[1].samples[:32])
        with pytest.raises(ValueError, match="32 samples and the material trace 64"):
            extract_sweep(mut, metal, 1e-4, 79e9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("overflowing", ["material", "metal"])
    def test_extraction_spectrum_overflow_is_named(self, overflowing):
        # finite samples up to 1e308 whose DFT overflows: no reference is
        # weak, so the overflow, not the metal peak, is named
        mut, metal = generate_if_datasets(TRUTH, GEOM, benchmark_chirp(), 4, 1e-4,
                                          NoiseModel.quiet())
        if overflowing == "material":
            mut = IfTrace(mut.samples / np.abs(mut.samples).max() * 1e308)
        else:
            metal[2] = IfTrace(metal[2].samples / np.abs(metal[2].samples).max() * 1e308)
        with pytest.raises(ValueError, match="spectrum overflows"):
            extract_sweep(mut, metal, 1e-4, 79e9)

    def test_metal_trace_is_single_tone(self):
        _, metal = generate_if_datasets(
            TRUTH, GEOM, benchmark_chirp(), 3, 1e-4, NoiseModel.quiet()
        )
        spec = dft(metal[0])
        assert peak_bin(spec) == 0  # narrowband chirp beats near DC


class TestPcg64Seeding:
    """_pcg64_seeding against numpy's own SeedSequence, PCG64 and Generator."""

    @staticmethod
    def entropies():
        rng = np.random.default_rng(2024)
        for i in range(200):  # seeds of 1 to 4 words, with a truth and a trial index
            seed = sum(int(w) << 32 * j for j, w in enumerate(rng.integers(2**32, size=1 + i % 4)))
            yield seed, int(rng.integers(3)), int(rng.integers(300))
        for seed in BIG_SEEDS:
            yield seed, 0, 1
            yield seed

    def test_matches_numpy(self):
        for entropy in self.entropies():
            seq = np.random.SeedSequence(entropy)
            if isinstance(entropy, tuple):  # as run_sweep builds it: the 32-bit words, low first
                seed, ti, k = int(entropy[0]), *entropy[1:]
                words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]
                row = np.array([*words, ti, k], dtype=np.uint32)
                assert np.array_equal(np.random.SeedSequence(row).pool, seq.pool)
            else:
                row = entropy
            state, inc, word, unit = _pcg64_seeding(row)
            assert np.random.PCG64(seq).state["state"] == {"state": state, "inc": inc}
            assert word == seq.generate_state(1)[0]
            offset = -math.pi + (math.pi - -math.pi) * unit
            assert offset == np.random.default_rng(seq).uniform(-math.pi, math.pi)
