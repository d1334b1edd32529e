"""Synthetic FMCW intermediate-frequency traces and their range spectra.

Models the post-mixer complex IF signal of a linear chirp radar for a
set of point echoes, transforms it with the plain unnormalized forward
DFT, picks the dominant range bin, and forms calibrated reflection
coefficients by ratioing against a metal-plate reference whose
reflection is exactly -1.

The IF samples follow the closed-form complex model

    S[n] = (A0^2 / 2) * Gamma * L_path * e^{j 2 pi ((B/Tc) tau n dt + f0 tau)}

so waveform-level chirp mixing is never simulated.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .em import (
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    SlabGeometry,
    complex_sqrt_lossy,
    slab_bounce_terms,
)
from .errors import AllZeroSpectrumError, CalibrationError


@dataclass(frozen=True)
class ChirpConfig:
    """Linear-chirp parameters of one transmitted ramp.

    Attributes:
        start_frequency: chirp start frequency f0 in Hz.
        bandwidth: swept bandwidth B in Hz.
        chirp_duration: ramp length Tc in s.
        sample_count: number of IF samples N per ramp.
        sample_interval: ADC sampling interval dt in s.
        amplitude: transmit amplitude A0, arbitrary linear units.
        path_loss: complex one-way path factor L_path (both directions
            folded in), assumed constant over a stepped sweep.
    """

    start_frequency: float
    bandwidth: float
    chirp_duration: float
    sample_count: int
    sample_interval: float
    amplitude: float = 1.0
    path_loss: complex = 1.0 + 0.0j

    def __post_init__(self):
        for name in ("start_frequency", "bandwidth", "chirp_duration", "sample_interval",
                     "amplitude", "path_loss"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError(f"chirp {name} must be finite, got {getattr(self, name)}")
        if not math.isfinite(0.5 * (self.amplitude * self.amplitude)):  # a product cannot raise
            raise ValueError(f"chirp amplitude {self.amplitude} overflows 0.5 * amplitude^2")
        if self.sample_count < 2:
            raise ValueError(f"need at least 2 samples, got {self.sample_count}")
        if not self.sample_interval > 0.0:
            raise ValueError("sample interval must be > 0")
        if self.sample_count * self.sample_interval > self.chirp_duration * (1 + 1e-12):
            raise ValueError("samples do not fit inside one chirp (N*dt > Tc)")
        if not (self.bandwidth > 0.0 and self.start_frequency > 0.0):
            raise ValueError("bandwidth and start frequency must be > 0")
        if not math.isfinite(self.slope):
            raise ValueError(f"chirp slope {self.bandwidth} / {self.chirp_duration} overflows")

    @property
    def slope(self) -> float:
        """Chirp rate B / Tc in Hz/s."""
        return self.bandwidth / self.chirp_duration


@dataclass(frozen=True)
class IfTrace:
    """Complex IF samples of one ramp, or a stack of ramps one per row."""

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=complex)
        if not np.isfinite(samples).all():
            raise ValueError("IF samples must be finite")
        object.__setattr__(self, "samples", samples)


def synth_if_trace(cfg: ChirpConfig, reflections, delays) -> IfTrace:
    """(K, N) stack of closed-form IF tones, row k for reflections[k] at delays[k].

    Each row is bit-identical to the one-echo call on its reflection and
    delay; the trace of several echoes is the sum of their rows.

    Raises:
        ValueError: no echo, unequal list lengths, a delay that is
            negative or NaN, or a tone that overflows ("IF samples must
            be finite").
    """
    delays = np.reshape(np.asarray(delays, dtype=float), (-1, 1))
    if not delays.size or len(reflections) != delays.size:
        raise ValueError(f"need one delay per echo and at least one echo, got "
                         f"{len(reflections)} reflections and {delays.size} delays")
    if not (delays >= 0.0).all():
        raise ValueError(f"delay must be >= 0, got {delays.min()}")
    # Python products, then weight times tone: numpy rounds complex products its own way
    weights = np.array([0.5 * cfg.amplitude**2 * cfg.path_loss * r for r in reflections])
    with np.errstate(over="ignore", invalid="ignore"):  # IfTrace refuses what overflows
        phase = cfg.slope * delays * np.arange(cfg.sample_count) * cfg.sample_interval
        phase += cfg.start_frequency * delays
        tones = 2j * math.pi * phase
        np.exp(tones, out=tones)  # in place: a raw-if metal stack is large
        return IfTrace(np.multiply(weights[:, None], tones, out=tones))


_MAX_BOUNCES = 1000  # a refusal limit: each bounce is one echo, so one (N,) tone row


def synth_slab_echoes(
    eps_r: ComplexPermittivity,
    geom: SlabGeometry,
    cfg: ChirpConfig,
    q: int,
) -> tuple[list[complex], list[float]]:
    """Reflections and delays of a backed slab's echoes: front face plus q-1 internal ones.

    Echo 1 is the air-to-slab Fresnel reflection at delay 2*l/c. Echo
    i >= 2 carries the i-th transmitted bounce amplitude

        T_r1*Gamma_r2*T_1r*e^{-j2k_r d} * (Gamma_r1*Gamma_r2*e^{-j2k_r d})^{i-2}

    evaluated at the chirp start frequency, delayed by one extra in-slab
    round trip 2*d*Re(sqrt(eps_r))/c per bounce.

    Only the front-face echo (q = 1) reproduces the slab model through
    the IF route. A bounce's amplitude already holds its in-slab round
    trips e^{-j2k_r d}, in em's e^{+jwt} convention, and ``synth_if_trace``
    adds the carrier phase +2*pi*f0*tau of the longer delay, so the two
    phases of each round trip cancel: for q >= 2 the extracted sweep is
    neither the truncated series F_q nor its conjugate (an xfail test in
    tests/test_acceptance.py pins this).

    Raises:
        ValueError: q below 1 or above 1000, before any echo is built.
    """
    if q < 1:
        raise ValueError(f"bounce count q must be >= 1, got {q}")
    if q > _MAX_BOUNCES:
        raise ValueError(f"bounce count q must be <= {_MAX_BOUNCES}, got {q}")
    g1r, amp, ratio = slab_bounce_terms(eps_r, geom, cfg.start_frequency)
    tau1 = 2.0 * geom.standoff / SPEED_OF_LIGHT
    slab_round_trip = (
        2.0 * geom.thickness * complex_sqrt_lossy(eps_r).real / SPEED_OF_LIGHT
    )
    reflections, delays = [g1r], [tau1]
    for i in range(2, q + 1):
        reflections.append(amp)
        delays.append(tau1 + (i - 1) * slab_round_trip)
        amp *= ratio
    return reflections, delays


def dft(trace: IfTrace) -> np.ndarray:
    """Plain forward DFT, bins[k] = sum_n samples[n] e^{-j 2 pi n k / N}, per row of a stack."""
    return np.fft.fft(trace.samples)


def peak_bin(bins: np.ndarray) -> int | np.ndarray:
    """Index of the maximum-magnitude bin (per row of a stack); ties go to the lower index.

    Raises:
        AllZeroSpectrumError: if every bin of a spectrum is exactly zero.
    """
    mags = np.abs(bins)
    if not (mags > 0.0).any(axis=-1).all():
        raise AllZeroSpectrumError("spectrum has no nonzero bin")
    return mags.argmax(axis=-1) if mags.ndim > 1 else int(mags.argmax())


def calibrate_ratio(mut_peak: complex, metal_peak: complex) -> complex:
    """Measured reflection coefficient from MUT and metal peak values.

    Returns -(mut_peak / metal_peak): the metal's known reflection of -1
    is folded in, so the output is the calibrated reflection coefficient
    with amplitude and path-loss factors removed. Arrays of metal peaks
    are calibrated element by element.

    Raises:
        CalibrationError: a metal peak that is zero, non-finite, or at
            most 1e-15 of |mut_peak|, so the ratio would be meaningless
            or overflow.
    """
    mag = np.abs(metal_peak)
    bad = ~np.isfinite(metal_peak) | (mag == 0.0) | (mag <= 1e-15 * abs(mut_peak))
    if bad.any():
        peak = np.ravel(metal_peak)[bad.argmax()]
        raise CalibrationError(f"unusable metal reference peak: {peak!r}")
    # numpy divides by a complex number through its reciprocal, which
    # overflows once |metal_peak| is below about 5.6e-309: both peaks are
    # first scaled by the power of two that brings the metal peak to [0.5, 1),
    # which is exact and leaves the quotient's bits as they were
    exponent = -np.frexp(mag)[1]
    return -(_scaled(mut_peak, exponent) / _scaled(metal_peak, exponent))


def _scaled(z, exponent) -> np.ndarray:
    """``z · 2**exponent`` of complex ``z``, part by part."""
    z = np.asarray(z, dtype=complex)
    out = np.empty(np.broadcast(z, exponent).shape, dtype=complex)
    out.real = np.ldexp(z.real, exponent)
    out.imag = np.ldexp(z.imag, exponent)
    return out
