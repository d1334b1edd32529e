"""Synthetic reflection sweeps with a measured-noise model.

Two generation routes are provided on purpose: ``generate_dataset``
builds the calibrated reflection sequence directly from the sweep
model, while ``generate_if_datasets`` synthesizes raw IF traces for the
material and for a stepped metal reference so the whole extraction
chain (DFT, peak pick, calibration ratio) can be exercised. At zero
noise the two routes agree to float precision when the chirp keeps the
range-window term constant over the sweep (see ``benchmark_chirp``).
The raw-IF material trace is a slab's response in em's e^{+jwt} form
at each sample's instantaneous frequency, on the front-face delay's
tone, so a narrow chirp's sweep extracts to F_q e^{-j C1 m}, the form
the sweep model and ``fit_ideal``'s F use (``generate_if_datasets``).

Randomness comes from numpy's PCG64 generator, seeded per sweep as
``default_rng(seed)`` would seed it, so identical seeds reproduce
identical datasets. The stacked generator behind ``run_sweep`` re-seeds
one PCG64 for each row with a state that ``_pcg64_seeding`` computes
on Python ints from numpy's ``SeedSequence`` pool; a test pins it to
numpy's API. Seeds are integer-defined; see README "Reproducibility"
for what is not shown to be bit-identical across platforms.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .em import (
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    SlabGeometry,
    complex_sqrt_lossy,
    fraunhofer_distance,
    slab_bounce_terms,
)
from .estimator import SdiDataset, check_step, front_face_reflection, step_phase_advance
from .fmcw import ChirpConfig, IfTrace, calibrate_ratio, dft, peak_bin, synth_if_trace


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian amplitude/phase noise plus a linear amplitude drift.

    Defaults reproduce bench measurements of a 79 GHz module: relative
    amplitude scatter of 0.05%, phase scatter of 0.8 degrees, and a
    slow end-to-end amplitude drift of 1.22% across the sweep.

    Attributes:
        amplitude_rel_sigma: std of the multiplicative amplitude noise.
        phase_sigma: std of the additive phase noise, radians.
        amplitude_drift_rel: total linear drift across the sweep
            (positive values drift the calibrated amplitude upward,
            mirroring a reference whose return slowly weakens).
        seed: PCG64 seed, an integer >= 0 (numpy integers too);
            generation is reproducible from it.
    """

    amplitude_rel_sigma: float = 5e-4
    phase_sigma: float = math.radians(0.8)
    amplitude_drift_rel: float = 1.22e-2
    seed: int = 0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude_rel_sigma, self.phase_sigma,
                                       self.amplitude_drift_rel))):
            raise ValueError("noise sigmas and drift must be finite")
        if self.amplitude_rel_sigma < 0 or self.phase_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed}")
        object.__setattr__(self, "seed", int(self.seed))  # to_dict writes it as JSON

    @classmethod
    def quiet(cls, seed: int = 0) -> "NoiseModel":
        """All noise terms zero; only the seed is kept."""
        return cls(0.0, 0.0, 0.0, seed)


def _drift_profile(drift_rel: float, count: int) -> np.ndarray:
    """Linear ramp 0 .. drift_rel over count points."""
    return drift_rel * np.arange(count) / max(count - 1, 1)


def generate_dataset(
    truth: ComplexPermittivity,
    phase_offset: float,
    m_count: int,
    step: float,
    carrier: float,
    noise: NoiseModel,
) -> SdiDataset:
    """Noisy calibrated reflection sweep for a known permittivity.

    Gamma(m) = model(truth, phase_offset, m)
               * (1 + drift(m) + amp_noise(m)) * e^{j phase_noise(m)}
    """
    rows = _noisy_sweeps([(truth, phase_offset, noise.seed)], m_count, step, carrier, noise)
    return SdiDataset(rows[0], step, carrier)


def _noisy_sweeps(rows, m_count: int, step: float, carrier: float, noise: NoiseModel):
    """(T, M) stack of generate_dataset sweeps, one per (truth, phase_offset, seed) row.

    Row t draws its amplitude, then its phase noise from a PCG64 generator
    seeded with its own seed; ``noise`` gives the sigmas and the drift.
    Noise products that overflow come out non-finite, for the callers' checks.
    """
    if m_count < 3:  # SdiDataset's minimum, before a negative count reaches numpy
        raise ValueError("need at least 3 reflection samples")
    if not all(map(math.isfinite, (step, carrier, *(c for _, c, _ in rows)))):  # before numpy
        raise ValueError("step, carrier and phase offset must be finite")
    check_step(step, carrier)
    amp_noise, phase_noise = np.empty((2, len(rows), m_count))
    # one generator per call, seeded as default_rng(seed) and re-seeded for each later row
    bit_gen = np.random.PCG64(rows[0][2])
    rng = np.random.Generator(bit_gen)
    for t, (_, _, seed) in enumerate(rows):
        if t:
            state, inc, _, _ = _pcg64_seeding(seed)
            bit_gen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                             "has_uint32": 0, "uinteger": 0}
        rng.standard_normal(out=amp_noise[t])
        rng.standard_normal(out=phase_noise[t])
    c1 = step_phase_advance(carrier, step)
    faces, last = [], None
    for tr, _, _ in rows:  # run_sweep's rows repeat each truth object in one run
        if tr is not last:
            last, face = tr, front_face_reflection(tr.real_part, tr.imag_part)
        faces.append(face)
    faces = np.array(faces)
    theta = np.array([c for _, c, _ in rows]).reshape(-1, 1) - c1 * np.arange(m_count)
    clean = faces.reshape(-1, 1) * np.exp(1j * theta)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = _drift_profile(noise.amplitude_drift_rel, m_count)
        amp = 1.0 + drift + noise.amplitude_rel_sigma * amp_noise
        return clean * amp * np.exp(1j * (noise.phase_sigma * phase_noise))


_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


def _pcg64_seeding(entropy) -> tuple[int, int, int, float]:
    """``PCG64(SeedSequence(entropy))`` computed on Python ints after numpy's pool mixing.

    Returns the seeded PCG64 ``(state, inc)``, the sequence's
    ``generate_state(1)[0]`` and the generator's first double in [0, 1), the
    one ``Generator.uniform`` scales. ``generate_state``'s hash, PCG64's
    seeding and its XSL-RR output are fixed integer algorithms (NumPy NEP 19;
    O'Neill, HMC-CS-2014-0905); the tests pin this helper to numpy's own API.
    """
    pool = np.random.SeedSequence(entropy).pool.tolist()
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):  # generate_state(4, np.uint64) as uint32 words
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & 0xFFFFFFFF
        value = value * hash_const & 0xFFFFFFFF
        words.append(value ^ value >> 16)
    w0, w1, w2, w3, w4, w5, w6, w7 = words
    # its uint64s are little-endian word pairs; PCG64 seeds from (u64[0]:u64[1], u64[2]:u64[3])
    init = w1 << 96 | w0 << 64 | w3 << 32 | w2
    inc = ((w5 << 96 | w4 << 64 | w7 << 32 | w6) << 1 | 1) & _MASK128
    state = ((inc + init) * _PCG64_MULT + inc) & _MASK128
    after = (state * _PCG64_MULT + inc) & _MASK128
    rot, xored = after >> 122, (after >> 64 ^ after) & _MASK64
    output = (xored >> rot | xored << (64 - rot)) & _MASK64
    return state, inc, w0, (output >> 11) * 2.0**-53


def benchmark_chirp() -> ChirpConfig:
    """Default chirp for synthetic sweep benchmarks, starting at 79 GHz.

    The bandwidth is deliberately narrow (10 kHz) so that the DFT
    range-window factor is the same for every stepped position to well
    below 1e-6; the stepped-calibration identity between the raw-IF
    route and the direct sweep model then holds to float precision for a
    single front-face echo (``bounce_count=1``). A slab with internal
    bounces varies across even this band: its sweep reads the slab's
    response at the chirp's centre frequency, to about 1e-6.
    With a wideband chirp the metal tone moves within its peak bin as
    the plate steps, so extraction at the integer bin ramps the
    calibrated amplitude and phase and biases ``|z*|`` by a few percent;
    moving the carrier to the chirp's phase centre does not remove
    this (README "Synthetic raw-IF benchmarks").
    """
    return ChirpConfig(
        start_frequency=79e9,
        bandwidth=1e4,
        chirp_duration=200e-6,
        sample_count=64,
        sample_interval=2e-6,
    )


def generate_if_datasets(
    truth: ComplexPermittivity,
    geom: SlabGeometry,
    cfg: ChirpConfig,
    m_count: int,
    step: float,
    noise: NoiseModel,
    bounce_count: int = 1,
    antenna_aperture: float | None = None,
) -> tuple[IfTrace, list[IfTrace]]:
    """Raw IF traces of the fixed material and the stepped metal reference.

    The material is synthesized once at the geometry's standoff; the
    metal reference (reflection exactly -1) is synthesized at standoff,
    standoff + step, ..., standoff + (m_count-1)*step. Per-trace noise
    multiplies each trace by (1 + amp_noise) e^{j phase_noise}; the
    metal traces additionally lose amplitude linearly along the sweep
    (drift), mimicking a slowly weakening reference return. One
    ``synth_if_trace`` call makes the front face's tone row and one per
    metal position, and the returned traces are views of that one stack.

    The material trace is the slab's response at the front-face delay
    tau1 = 2*l/c, in em's e^{+jwt} form, sampled at each sample's
    frequency f_n = f0 + S*n*dt (see ``fmcw``): the series truncated
    after ``bounce_count`` components,

        F_q(f_n) = Gamma_1r + first_n (1 - ratio_n^(q-1)) / (1 - ratio_n),

    where first_n and ratio_n are ``slab_bounce_terms``'s values at f0
    times e^{-2j (k0(f_n) - k0(f0)) sqrt(eps) d}, as each holds one
    in-slab round trip. A narrow chirp's sweep extracts to
    F_q e^{-j C1 m}, F_q at the chirp's centre frequency; a wide chirp's
    peak bin reads a band-weighted average of F_q instead.

    Args:
        bounce_count: components q of the slab's bounce series, 1 to
            1000; 1 keeps only the front-face echo (thick-slab
            condition), which does not vary with frequency.
        antenna_aperture: when given, warn if the standoff is inside the
            far-field distance for the chirp start frequency.

    Raises:
        ValueError: ``m_count`` below 1 (no metal reference trace), a
            ``bounce_count`` outside 1 to 1000, or a trace that overflows
            ("IF samples must be finite").
    """
    if m_count < 1:
        raise ValueError(f"need at least one metal position, got m_count={m_count}")
    if antenna_aperture is not None:
        wavelength = SPEED_OF_LIGHT / cfg.start_frequency
        d_far = fraunhofer_distance(antenna_aperture, wavelength)
        if geom.standoff < d_far:
            warnings.warn(
                f"standoff {geom.standoff:.3f} m is inside the far-field "
                f"distance {d_far:.3f} m; plane-wave treatment is doubtful",
                stacklevel=2,
            )
    if bounce_count < 1:
        raise ValueError(f"bounce count q must be >= 1, got {bounce_count}")
    if bounce_count > 1000:  # the documented range; the closed form costs the same at any q
        raise ValueError(f"bounce count q must be <= 1000, got {bounce_count}")
    g1r, first, ratio = slab_bounce_terms(truth, geom, cfg.start_frequency)
    # per trace, material then metal 0..M-1: an amplitude, then a phase draw
    amp, phase = np.random.default_rng(noise.seed).standard_normal((1 + m_count, 2)).T
    with np.errstate(over="ignore", invalid="ignore"):  # IfTrace refuses what overflows
        tau1 = 2.0 * geom.standoff / SPEED_OF_LIGHT
        delays = 2.0 * (geom.standoff + np.arange(m_count) * step) / SPEED_OF_LIGHT
        stack = synth_if_trace(cfg, [g1r] + [-1.0 + 0.0j] * m_count,
                               np.concatenate([[tau1], delays])).samples
        if bounce_count > 1:
            # one in-slab round trip at f_n is f0's times this shift; dk = k0(f_1) - k0(f0)
            dk = 2.0 * math.pi * cfg.slope * cfg.sample_interval / SPEED_OF_LIGHT
            shift = np.exp(np.arange(cfg.sample_count) * dk
                           * (-2j * complex_sqrt_lossy(truth) * geom.thickness))
            ratio_n = ratio * shift
            rest = (first * shift) * (1.0 - ratio_n ** (bounce_count - 1)) / (1.0 - ratio_n)
            (unit,) = synth_if_trace(cfg, [1.0], [tau1]).samples
            stack[0] += unit * rest
        stack[1:] *= (1.0 - _drift_profile(noise.amplitude_drift_rel, m_count))[:, None]
        stack *= ((1.0 + noise.amplitude_rel_sigma * amp)
                  * np.exp(1j * noise.phase_sigma * phase))[:, None]
    return IfTrace(stack[0]), [IfTrace(row) for row in stack[1:]]


def extract_sweep(
    mut_trace: IfTrace,
    metal_traces: list[IfTrace],
    step: float,
    carrier: float,
) -> SdiDataset:
    """Run the extraction chain on raw traces and assemble a sweep.

    The material trace and the metal traces are stacked, one row each,
    and run through one DFT and one peak pick; each metal row's peak is
    then ratioed against the material's peak (see ``calibrate_ratio``).

    Raises:
        ValueError: traces of unequal length, as the unnormalized DFT
            gains would differ by the ratio of the lengths; or a spectrum
            that overflows, as samples near 1e308 make it.
        AllZeroSpectrumError: a trace whose spectrum is all zero.
        CalibrationError: a metal peak that is zero, non-finite, or at
            most 1e-15 of the material peak (see ``calibrate_ratio``).
    """
    n = mut_trace.samples.size
    for trace in metal_traces:
        if trace.samples.size != n:
            raise ValueError(f"a metal trace has {trace.samples.size} samples and the "
                             f"material trace {n}; all traces need the same length")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        bins = dft(IfTrace(np.array([mut_trace.samples, *(t.samples for t in metal_traces)])))
    if not np.isfinite(bins).all():
        raise ValueError("a trace's spectrum overflows: its DFT is not finite")
    peaks = bins[np.arange(len(bins)), peak_bin(bins)]
    return SdiDataset(calibrate_ratio(peaks[0], peaks[1:]), step, carrier)
