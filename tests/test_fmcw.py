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
        trace = synth_if_trace(CFG, [0.0], [1e-9])
        assert trace.samples.shape == (1, CFG.sample_count)
        assert np.all(trace.samples == 0)

    def test_zero_delay_constant_trace(self):
        trace = synth_if_trace(CFG, [-1.0], [0.0])
        expected = -0.5 * CFG.amplitude**2 * CFG.path_loss
        np.testing.assert_allclose(trace.samples, [[expected] * CFG.sample_count], rtol=1e-15)

    def test_each_row_is_its_one_echo_call(self):
        reflections = [0.3 - 0.2j, -0.5 + 0.1j, -1.0 + 0.0j, 0.0]
        delays = [1.1e-9, 2.7e-9, 1.7e-9, 0.4e-9]
        stack = synth_if_trace(CFG, reflections, delays).samples
        assert stack.shape == (4, CFG.sample_count)
        for row, r, tau in zip(stack, reflections, delays):
            assert row.tobytes() == synth_if_trace(CFG, [r], [tau]).samples[0].tobytes()

    def test_bits_of_the_closed_form(self):
        # Python-scalar weight times the tone, one row per echo
        reflections = [0.3 - 0.2j, -0.5 + 0.1j, -1.0 + 0.0j]
        delays = [1.1e-9, 2.7e-9, 1.7e-9]
        n = np.arange(CFG.sample_count)
        expected = []
        for r, tau in zip(reflections, delays):
            phase = 2.0 * math.pi * (CFG.slope * tau * n * CFG.sample_interval
                                     + CFG.start_frequency * tau)
            expected.append(0.5 * CFG.amplitude**2 * CFG.path_loss * r * np.exp(1j * phase))
        got = synth_if_trace(CFG, reflections, delays).samples
        assert got.tobytes() == np.array(expected).tobytes()

    def test_on_bin_tone_concentrates(self):
        k0 = 12
        (spec,) = np.abs(dft(synth_if_trace(CFG, [0.4], [on_bin_delay(CFG, k0)])))
        assert int(np.argmax(spec)) == k0
        others = np.delete(spec, k0)
        assert others.max() <= 1e-9 * spec[k0]

    @pytest.mark.parametrize("reflections, delays", [([], []), ([0.5], []), ([0.5], [1e-9, 2e-9])])
    def test_requires_one_delay_per_echo(self, reflections, delays):
        with pytest.raises(ValueError, match="need one delay per echo and at least one echo"):
            synth_if_trace(CFG, reflections, delays)

    @pytest.mark.parametrize("bad", [-1e-9, -5e-324, math.nan])
    def test_rejects_negative_or_nan_delay(self, bad):
        with pytest.raises(ValueError, match=f"delay must be >= 0, got {bad}"):
            synth_if_trace(CFG, [0.5, 0.5], [1e-9, bad])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delay", [1e300, math.inf])
    def test_overflowing_tone_is_refused_without_warning(self, delay):
        with pytest.raises(ValueError, match="IF samples must be finite"):
            synth_if_trace(CFG, [0.5, 0.5], [1e-9, delay])


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
        (spec,) = dft(synth_if_trace(CFG, [gamma], [tau]))

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
        strong_alone, weak_alone = synth_if_trace(
            CFG, [0.8, 0.2], [on_bin_delay(CFG, 10), on_bin_delay(CFG, 40)]).samples
        spec = dft(IfTrace(strong_alone + weak_alone))
        assert peak_bin(spec) == peak_bin(dft(IfTrace(strong_alone))) == 10

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
        mut, metal = dft(synth_if_trace(CFG, [gamma, -1.0], [tau, tau]))
        k = peak_bin(metal)
        got = calibrate_ratio(mut[k], metal[k])
        assert got == pytest.approx(gamma, abs=1e-12)

    def test_acrylic_pipeline_value(self):
        gamma, _ = fresnel_normal(AIR, ComplexPermittivity(2.60, 0.1))
        tau = on_bin_delay(CFG, 7)
        mut, metal = dft(synth_if_trace(CFG, [gamma, -1.0], [tau, tau]))
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
            mut, metal = dft(synth_if_trace(CFG, [gamma, -1.0], [tau, tau]))
            k = peak_bin(metal)
            got = calibrate_ratio(mut[k], metal[k])
            assert got == pytest.approx(gamma, abs=1e-9)

    def test_subnormal_peaks_divide_exactly(self):
        # numpy's complex division overflows in the reciprocal of a divisor
        # below about 5.6e-309; these peaks and their ratio are exact
        mut, metal = math.ldexp(0.75, -1030) * (1 + 1j), math.ldexp(1.0, -1028)
        assert calibrate_ratio(mut, metal) == -(0.1875 + 0.1875j)
        got = calibrate_ratio(mut, np.array([metal, -1j * metal, 1.0]))
        assert got.tolist() == [-(0.1875 + 0.1875j), 0.1875 - 0.1875j, -mut]

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
        reflections, delays = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=1)
        gamma, _ = fresnel_normal(AIR, self.EPS)
        assert reflections == [gamma]
        assert len(delays) == 1
        assert delays[0] == pytest.approx(2 * 0.25 / SPEED_OF_LIGHT, rel=1e-15)

    def test_matched_backing_single_nonzero_echo(self):
        geom = SlabGeometry(0.02, 0.25, backing=self.EPS)
        reflections, delays = synth_slab_echoes(self.EPS, geom, CFG, q=5)
        assert len(reflections) == len(delays) == 5
        assert all(r == 0 for r in reflections[1:])

    def test_bounce_amplitudes_match_series_terms(self):
        reflections, _ = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=4)
        # independent reconstruction of the bounce terms
        g1r, t1r = fresnel_normal(AIR, self.EPS)
        gr1, tr1 = fresnel_normal(self.EPS, AIR)
        k0 = 2 * math.pi * CFG.start_frequency / SPEED_OF_LIGHT
        k_r = k0 * complex_sqrt_lossy(self.EPS)
        rt = cmath.exp(-2j * k_r * self.GEOM.thickness)
        term = tr1 * (-1.0) * t1r * rt
        for i, reflection in enumerate(reflections[1:]):
            expected = term * (gr1 * (-1.0) * rt) ** i
            assert reflection == pytest.approx(expected, rel=1e-12)

    def test_metal_backed_magnitudes_decay(self):
        reflections, _ = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=3)
        mags = [abs(r) for r in reflections[1:]]
        assert all(m1 > m2 for m1, m2 in zip(mags, mags[1:]))

    @pytest.mark.parametrize("eps", [ComplexPermittivity(3.0, 0.15), ComplexPermittivity(7.5, 0.0)])
    @pytest.mark.parametrize("backing", [METAL, AIR, ComplexPermittivity(12.0, 2.0)])
    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_echo_sum_is_truncated_series(self, eps, backing, q):
        # both series are built from the same bounce terms, in the same order;
        # this sums the echo amplitudes, not their IF tones, whose delay phase
        # undoes the round trip each amplitude holds (see synth_slab_echoes)
        geom = SlabGeometry(0.004, 0.25, backing)
        reflections, _ = synth_slab_echoes(eps, geom, CFG, q)
        total = reflections[0]
        for reflection in reflections[1:]:
            total += reflection
        expected = effective_reflection_truncated(eps, geom, CFG.start_frequency, q)
        assert np.array([total]).view(np.uint64).tolist() == (
            np.array([expected]).view(np.uint64).tolist()
        )

    def test_delays_spaced_by_slab_round_trip(self):
        _, delays = synth_slab_echoes(self.EPS, self.GEOM, CFG, q=3)
        expected_gap = 2 * 0.02 * complex_sqrt_lossy(self.EPS).real / SPEED_OF_LIGHT
        np.testing.assert_allclose(np.diff(delays), expected_gap, rtol=1e-12)

    @pytest.mark.parametrize("q", [1001, 2**63])
    def test_bounce_count_above_1000_is_refused(self, q):
        with pytest.raises(ValueError, match=f"bounce count q must be <= 1000, got {q}"):
            synth_slab_echoes(self.EPS, self.GEOM, CFG, q)
        assert len(synth_slab_echoes(self.EPS, self.GEOM, CFG, 1000)[0]) == 1000


class TestCarrierPhaseStep:
    def test_peak_phase_advance_per_step(self):
        # a 0.1 mm delay increase advances the peak phase by the carrier
        # term ~18.97 deg; the range-window term adds O(B/2f0) on top
        tau = on_bin_delay(CFG, 12)
        dtau = 2 * 1e-4 / SPEED_OF_LIGHT
        s0, s1 = dft(synth_if_trace(CFG, [-1.0, -1.0], [tau, tau + dtau]))
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
