"""IF-trace synthesis, DFT, peak picking, metal calibration."""

import cmath
import math

import numpy as np
import pytest

from permslab import (
    AIR,
    METAL,
    SPEED_OF_LIGHT,
    ChirpConfig,
    ComplexPermittivity,
    EchoComponent,
    IfTrace,
    SlabGeometry,
    calibrate_ratio,
    complex_sqrt_lossy,
    dft,
    fresnel_normal,
    peak_bin,
    synth_if_trace,
    synth_slab_echoes,
)
from permslab.errors import AllZeroSpectrumError, CalibrationError

from bounce_series import effective_reflection_truncated

CFG = ChirpConfig(
    start_frequency=79e9,
    bandwidth=3.6e9,
    chirp_duration=60e-6,
    sample_count=256,
    sample_interval=60e-6 / 256,
    amplitude=2.0,
    path_loss=0.8 - 0.1j,
)


def on_bin_delay(cfg: ChirpConfig, k0: int) -> float:
    """Delay whose beat lands exactly on integer bin k0."""
    return k0 / (cfg.slope * cfg.sample_count * cfg.sample_interval)


def brute_force_dft(samples):
    n = len(samples)
    out = np.empty(n, dtype=complex)
    for k in range(n):
        acc = 0.0 + 0.0j
        for i in range(n):
            acc += samples[i] * cmath.exp(-2j * math.pi * i * k / n)
        out[k] = acc
    return out


class TestSynthIfTrace:
    def test_zero_reflection_gives_zero_trace(self):
        trace = synth_if_trace(CFG, [EchoComponent(0.0, 1e-9)])
        assert np.all(trace.samples == 0)

    def test_zero_delay_constant_trace(self):
        trace = synth_if_trace(CFG, [EchoComponent(-1.0, 0.0)])
        expected = -0.5 * CFG.amplitude**2 * CFG.path_loss
        np.testing.assert_allclose(trace.samples, expected, rtol=1e-15)

    def test_linear_in_echoes(self):
        e1 = EchoComponent(0.3 - 0.2j, 1.1e-9)
        e2 = EchoComponent(-0.5 + 0.1j, 2.7e-9)
        combined = synth_if_trace(CFG, [e1, e2])
        separate = synth_if_trace(CFG, [e1]).samples + synth_if_trace(CFG, [e2]).samples
        np.testing.assert_allclose(combined.samples, separate, atol=1e-12)

    def test_bits_of_the_closed_form(self):
        # Python-scalar weight times the tone, added onto zeros one echo at a time
        echoes = [EchoComponent(0.3 - 0.2j, 1.1e-9), EchoComponent(-0.5 + 0.1j, 2.7e-9),
                  EchoComponent(-1.0 + 0.0j, 1.7e-9)]
        n = np.arange(CFG.sample_count)
        expected = np.zeros(CFG.sample_count, dtype=complex)
        for e in echoes:
            phase = 2.0 * math.pi * (CFG.slope * e.delay * n * CFG.sample_interval
                                     + CFG.start_frequency * e.delay)
            expected += 0.5 * CFG.amplitude**2 * CFG.path_loss * e.reflection * np.exp(1j * phase)
        assert synth_if_trace(CFG, echoes).samples.tobytes() == expected.tobytes()

    def test_on_bin_tone_concentrates(self):
        k0 = 12
        trace = synth_if_trace(CFG, [EchoComponent(0.4, on_bin_delay(CFG, k0))])
        spec = np.abs(dft(trace))
        assert int(np.argmax(spec)) == k0
        others = np.delete(spec, k0)
        assert others.max() <= 1e-9 * spec[k0]

    def test_requires_echoes(self):
        with pytest.raises(ValueError):
            synth_if_trace(CFG, [])


class TestIfTrace:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_rejects_non_finite(self, bad):
        samples = np.ones(8, dtype=complex)
        samples[5] = bad
        with pytest.raises(ValueError, match="finite"):
            IfTrace(samples)


class TestDft:
    def test_constant_trace(self):
        v = 0.7 - 0.2j
        spec = dft(IfTrace(np.full(32, v)))
        assert spec[0] == pytest.approx(32 * v, rel=1e-12)
        assert np.max(np.abs(spec[1:])) <= 1e-9 * abs(spec[0])

    def test_pure_tone(self):
        n = np.arange(64)
        k0 = 5
        spec = dft(IfTrace(np.exp(2j * math.pi * n * k0 / 64)))
        assert spec[k0] == pytest.approx(64, rel=1e-12)
        others = np.delete(np.abs(spec), k0)
        assert others.max() <= 1e-9 * 64

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        samples = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        got = dft(IfTrace(samples))
        np.testing.assert_allclose(got, brute_force_dft(samples), atol=1e-10)

    def test_parseval(self):
        rng = np.random.default_rng(22)
        samples = rng.standard_normal(128) + 1j * rng.standard_normal(128)
        spec = dft(IfTrace(samples))
        lhs = np.sum(np.abs(spec) ** 2)
        rhs = 128 * np.sum(np.abs(samples) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestDftSynthClosedForm:
    def test_single_echo_spectrum_matches_geometric_sum(self):
        # one echo's spectrum has the closed form
        #   scale * Gamma * e^{j 2 pi f0 tau} * sum_n e^{j (2 pi n / N)(k_b - k)}
        # with k_b = slope * tau * N * dt; the sum is geometric
        gamma = 0.37 - 0.21j
        tau = 1.55e-9
        trace = synth_if_trace(CFG, [EchoComponent(gamma, tau)])
        spec = dft(trace)

        n_samp = CFG.sample_count
        k_b = CFG.slope * tau * n_samp * CFG.sample_interval
        scale = 0.5 * CFG.amplitude**2 * CFG.path_loss * gamma
        carrier = cmath.exp(2j * math.pi * CFG.start_frequency * tau)
        expected = np.empty(n_samp, dtype=complex)
        for k in range(n_samp):
            z = cmath.exp(2j * math.pi * (k_b - k) / n_samp)
            if abs(z - 1.0) < 1e-12:
                geo = n_samp
            else:
                geo = (1.0 - z**n_samp) / (1.0 - z)
            expected[k] = scale * carrier * geo
        np.testing.assert_allclose(
            spec, expected, atol=1e-9 * np.max(np.abs(expected))
        )


class TestPeakBin:
    def test_pure_tone_peak(self):
        n = np.arange(64)
        spec = dft(IfTrace(np.exp(2j * math.pi * n * 9 / 64)))
        assert peak_bin(spec) == 9

    def test_stronger_echo_wins(self):
        e_strong = EchoComponent(0.8, on_bin_delay(CFG, 10))
        e_weak = EchoComponent(0.2, on_bin_delay(CFG, 40))
        spec = dft(synth_if_trace(CFG, [e_strong, e_weak]))
        strong_alone = dft(synth_if_trace(CFG, [e_strong]))
        assert peak_bin(spec) == peak_bin(strong_alone) == 10

    def test_tie_goes_to_lower_index(self):
        assert peak_bin(np.array([0.0, 3.0, 3.0, 1.0])) == 1

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroSpectrumError):
            peak_bin(np.zeros(8))

    def test_stack_gives_one_bin_per_row(self):
        rows = np.array([[0.0, 3.0, 3.0, 1.0], [5.0, 1.0, 0.0, -6.0]])
        assert peak_bin(rows).tolist() == [1, 3]

    def test_stack_with_one_zero_row_raises(self):
        with pytest.raises(AllZeroSpectrumError):
            peak_bin(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestCalibrateRatio:
    def test_metal_like_mut(self):
        assert calibrate_ratio(4 + 2j, 4 + 2j) == -1

    def test_equal_delay_identity(self):
        gamma, _ = fresnel_normal(AIR, ComplexPermittivity(4.0))
        tau = on_bin_delay(CFG, 7)
        mut = dft(synth_if_trace(CFG, [EchoComponent(gamma, tau)]))
        metal = dft(synth_if_trace(CFG, [EchoComponent(-1.0, tau)]))
        k = peak_bin(metal)
        got = calibrate_ratio(mut[k], metal[k])
        assert got == pytest.approx(gamma, abs=1e-12)

    def test_acrylic_pipeline_value(self):
        gamma, _ = fresnel_normal(AIR, ComplexPermittivity(2.60, 0.1))
        tau = on_bin_delay(CFG, 7)
        mut = dft(synth_if_trace(CFG, [EchoComponent(gamma, tau)]))
        metal = dft(synth_if_trace(CFG, [EchoComponent(-1.0, tau)]))
        k = peak_bin(metal)
        got = calibrate_ratio(mut[k], metal[k])
        assert got == pytest.approx(-0.2347 + 0.0091j, abs=1e-4)

    def test_pipeline_identity_property(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            mag = rng.uniform(0, 1)
            ang = rng.uniform(-math.pi, math.pi)
            gamma = mag * cmath.exp(1j * ang)
            tau = on_bin_delay(CFG, int(rng.integers(1, 100)))
            mut = dft(synth_if_trace(CFG, [EchoComponent(gamma, tau)]))
            metal = dft(synth_if_trace(CFG, [EchoComponent(-1.0, tau)]))
            k = peak_bin(metal)
            got = calibrate_ratio(mut[k], metal[k])
            assert got == pytest.approx(gamma, abs=1e-9)

    def test_zero_reference_raises(self):
        with pytest.raises(CalibrationError):
            calibrate_ratio(1.0, 1e-18)

    def test_arrays_match_elementwise(self):
        metal = np.array([1 + 2j, -0.3 + 0.1j, 4e-3j])
        got = calibrate_ratio(0.2 - 0.1j, metal)
        assert got.tolist() == [calibrate_ratio(0.2 - 0.1j, p) for p in metal]

    @pytest.mark.parametrize("metal", [0.0, 1e-16, math.inf, complex(1.0, math.nan)])
    def test_unusable_reference_raises(self, metal):
        with pytest.raises(CalibrationError):
            calibrate_ratio(0.5 + 0.5j, metal)

    def test_array_with_one_small_peak_raises(self):
        with pytest.raises(CalibrationError, match="1e-18"):
            calibrate_ratio(1.0, np.array([1.0, 1e-18]))


class TestSynthSlabEchoes:
    EPS = ComplexPermittivity(3.0, 0.15)
    GEOM = SlabGeometry(thickness=0.02, standoff=0.25, backing=METAL)

    def test_single_bounce_is_front_face(self):
        echoes = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=1)
        gamma, _ = fresnel_normal(AIR, self.EPS)
        assert len(echoes) == 1
        assert echoes[0].reflection == gamma
        assert echoes[0].delay == pytest.approx(2 * 0.25 / SPEED_OF_LIGHT, rel=1e-15)

    def test_matched_backing_single_nonzero_echo(self):
        geom = SlabGeometry(0.02, 0.25, backing=self.EPS)
        echoes = synth_slab_echoes(self.EPS, geom, CFG, q=5)
        assert len(echoes) == 5
        assert all(e.reflection == 0 for e in echoes[1:])

    def test_bounce_amplitudes_match_series_terms(self):
        echoes = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=4)
        # independent reconstruction of the bounce terms
        g1r, t1r = fresnel_normal(AIR, self.EPS)
        gr1, tr1 = fresnel_normal(self.EPS, AIR)
        k0 = 2 * math.pi * CFG.start_frequency / SPEED_OF_LIGHT
        k_r = k0 * complex_sqrt_lossy(self.EPS)
        rt = cmath.exp(-2j * k_r * self.GEOM.thickness)
        term = tr1 * (-1.0) * t1r * rt
        for i, echo in enumerate(echoes[1:]):
            expected = term * (gr1 * (-1.0) * rt) ** i
            assert echo.reflection == pytest.approx(expected, rel=1e-12)

    def test_metal_backed_magnitudes_decay(self):
        echoes = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=3)
        mags = [abs(e.reflection) for e in echoes[1:]]
        assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))

    @pytest.mark.parametrize("eps", [ComplexPermittivity(3.0, 0.15), ComplexPermittivity(7.5, 0.0)])
    @pytest.mark.parametrize("backing", [METAL, AIR, ComplexPermittivity(12.0, 2.0)])
    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_echo_sum_is_truncated_series(self, eps, backing, q):
        # both series are built from the same bounce terms, in the same order;
        # this sums the echo amplitudes, not their IF tones, whose delay phase
        # undoes the round trip each amplitude holds (see synth_slab_echoes)
        geom = SlabGeometry(0.004, 0.25, backing)
        echoes = synth_slab_echoes(eps, geom, CFG, q)
        total = echoes[0].reflection
        for echo in echoes[1:]:
            total += echo.reflection
        expected = effective_reflection_truncated(eps, geom, CFG.start_frequency, q)
        assert np.array([total]).view(np.uint64).tolist() == (
            np.array([expected]).view(np.uint64).tolist()
        )

    def test_delays_spaced_by_slab_round_trip(self):
        echoes = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=3)
        expected_gap = 2 * 0.02 * complex_sqrt_lossy(self.EPS).real / SPEED_OF_LIGHT
        gaps = np.diff([e.delay for e in echoes])
        np.testing.assert_allclose(gaps, expected_gap, rtol=1e-12)


class TestCarrierPhaseStep:
    def test_peak_phase_advance_per_step(self):
        # a 0.1 mm delay increase advances the peak phase by the carrier
        # term ~18.97 deg; the range-window term adds O(B/2f0) on top
        tau = on_bin_delay(CFG, 12)
        dtau = 2 * 1e-4 / SPEED_OF_LIGHT
        s0 = dft(synth_if_trace(CFG, [EchoComponent(-1.0, tau)]))
        s1 = dft(synth_if_trace(CFG, [EchoComponent(-1.0, tau + dtau)]))
        k = peak_bin(s0)
        dphi = math.degrees(cmath.phase(s1[k] / s0[k]))
        assert dphi == pytest.approx(18.97, abs=0.5)


class TestChirpConfig:
    def test_samples_must_fit_in_chirp(self):
        with pytest.raises(ValueError):
            ChirpConfig(79e9, 1e9, 10e-6, 256, 1e-7)

    def test_sample_count_floor(self):
        with pytest.raises(ValueError):
            ChirpConfig(79e9, 1e9, 60e-6, 1, 1e-7)

    @pytest.mark.parametrize("field, value", [
        *((f, v) for f in ("start_frequency", "bandwidth", "chirp_duration", "sample_interval",
                           "amplitude", "path_loss") for v in (math.inf, math.nan)),
        ("path_loss", complex(1.0, -math.inf)),
    ])
    def test_rejects_non_finite(self, field, value):
        fields = dict(start_frequency=79e9, bandwidth=1e4, chirp_duration=200e-6,
                      sample_count=64, sample_interval=2e-6)
        fields[field] = value
        with pytest.raises(ValueError, match=f"chirp {field} must be finite"):
            ChirpConfig(**fields)

    @pytest.mark.parametrize("amplitude", [1e200, -1e155, 2.0**512])
    def test_rejects_amplitude_whose_power_overflows(self, amplitude):
        # 0.5 * amplitude**2 as a Python float power would raise OverflowError
        with pytest.raises(ValueError, match="overflows 0.5 \\* amplitude\\^2"):
            ChirpConfig(79e9, 1e4, 200e-6, 64, 2e-6, amplitude=amplitude)
        assert ChirpConfig(79e9, 1e4, 200e-6, 64, 2e-6, amplitude=1e150).amplitude == 1e150

    @pytest.mark.parametrize("bandwidth, duration", [(1e308, 1e-300), (1e10, 1e-310)])
    def test_rejects_slope_that_overflows(self, bandwidth, duration):
        with pytest.raises(ValueError, match="chirp slope .* overflows"):
            ChirpConfig(79e9, bandwidth, duration, 2, duration / 10)
        assert ChirpConfig(79e9, 1e300, 1e-8, 2, 1e-9).slope == 1e308

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EchoComponent(0.5, -1e-9)
