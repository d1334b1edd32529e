"""Plane-wave electromagnetics of a dielectric slab at normal incidence.

Covers the loss-branch complex square root, Fresnel coefficients, the
multi-bounce effective reflection coefficient of a backed slab (closed
form with its slope in eps), the slab bounce terms any series of it is
built from, and the Fraunhofer far-field distance.

The slab algebra is written once, in the evaluators that ``_slab_bounces``
and ``_slab_at`` build for one geometry and carrier: they check the
carrier and settle k0 = 2 pi f / c, k0 d and the backing once, and then
take eps = a - jb as two floats per point, unchecked. A solver that
tries many points of one slab, ``estimator.fit_ideal``, builds one;
``slab_bounce_terms``, ``effective_reflection`` and
``effective_reflection_and_slope`` build one per call.

Conventions: relative permittivity eps = eps' - j*eps'' with eps' >= 1
and eps'' >= 0 (passive, non-magnetic media), time factor e^{+jwt}, so
waves propagate as e^{-jkx} with Im(k) <= 0 and decay in lossy media.
All quantities are SI (Hz, m, s).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateGeometryError

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact


@dataclass(frozen=True)
class ComplexPermittivity:
    """Relative permittivity eps' - j*eps'' of a passive dielectric.

    ``imag_part`` stores the positive loss magnitude eps'', i.e. the
    physical value is ``real_part - 1j * imag_part``.
    """

    real_part: float
    imag_part: float = 0.0

    def __post_init__(self):
        if not 1.0 <= self.real_part < math.inf:
            raise ValueError(f"real part must be finite and >= 1, got {self.real_part}")
        if not 0.0 <= self.imag_part < math.inf:
            raise ValueError(f"loss part must be finite and >= 0, got {self.imag_part}")


AIR = ComplexPermittivity(1.0, 0.0)


class MetalBacking:
    """Marker for an ideal conductor behind the slab (reflection -1)."""

    def __repr__(self):
        return "METAL"


METAL = MetalBacking()


@dataclass(frozen=True)
class SlabGeometry:
    """Slab thickness, radar standoff to the front face, and backing medium.

    ``backing`` is either a ComplexPermittivity or the METAL marker,
    which forces the rear-interface reflection to exactly -1.
    """

    thickness: float
    standoff: float
    backing: ComplexPermittivity | MetalBacking = METAL

    def __post_init__(self):
        if not 0.0 < self.thickness < math.inf:
            raise ValueError(f"thickness must be finite and > 0, got {self.thickness}")
        if not 0.0 < self.standoff < math.inf:
            raise ValueError(f"standoff must be finite and > 0, got {self.standoff}")


def complex_sqrt_lossy(eps: ComplexPermittivity) -> complex:
    """Square root of a - jb on the decaying-wave branch.

    Returns (sqrt(2)/2) * (sqrt(sqrt(a^2+b^2) + a) - j*sqrt(sqrt(a^2+b^2) - a)),
    the root with non-negative real part and non-positive imaginary part.
    The imaginary part is evaluated through mag - a = b^2 / (mag + a),
    which avoids the cancellation the literal form suffers for b << a.
    Halving before the sum keeps (mag + a) / 2 finite whenever mag is.
    """
    return _sqrt_lossy(eps.real_part, eps.imag_part)


def _sqrt_lossy(a: float, b: float) -> complex:
    """``complex_sqrt_lossy`` of a - jb on floats."""
    p = math.sqrt(math.hypot(a, b) / 2.0 + a / 2.0)
    return complex(p, -b / (2.0 * p))


def fresnel_normal(
    eps_from: ComplexPermittivity, eps_to: ComplexPermittivity
) -> tuple[complex, complex]:
    """Normal-incidence Fresnel coefficients for a single interface.

    Gamma = (sqrt(eps_from) - sqrt(eps_to)) / (sqrt(eps_from) + sqrt(eps_to))
    T     = 2*sqrt(eps_from) / (sqrt(eps_from) + sqrt(eps_to))

    Returns:
        (reflection, transmission); T = 1 + Gamma holds identically.
    """
    return _fresnel(complex_sqrt_lossy(eps_from), complex_sqrt_lossy(eps_to))


def _fresnel(n_from: complex, n_to: complex) -> tuple[complex, complex]:
    """``fresnel_normal`` from the two media's indexes sqrt(eps)."""
    denom = n_from + n_to
    return (n_from - n_to) / denom, 2.0 * n_from / denom


def air_face_reflection(n: complex) -> complex:
    """Air-to-slab reflection (1 - n) / (1 + n) for the slab index n = sqrt(eps)."""
    return (1.0 - n) / (1.0 + n)


def _slab_bounces(geom: SlabGeometry, freq: float):
    """(a, b) -> (Gamma_1r, first, ratio, n, Gamma_r2, rt) of the slab at eps = a - jb.

    The first three are ``slab_bounce_terms``'s, n = sqrt(eps) and
    rt = e^{-j 2 k_r d}. The carrier check, k0 = 2 pi f / c and the
    backing are settled once here, not at every (a, b); a carrier whose
    k0 overflows (f above about 2.9e307 Hz) is refused, not turned into nan.
    So is a slab whose round-trip phase 2 k_r d overflows: here when it
    does at eps = 1, where it is least, and else at the point where it does.
    """
    if not 0.0 < freq < math.inf:
        raise ValueError(f"frequency must be finite and > 0, got {freq}")
    k0, d = 2.0 * math.pi * freq / SPEED_OF_LIGHT, geom.thickness
    if k0 == math.inf:
        raise ValueError(f"carrier {freq} Hz overflows its wavenumber 2 pi f / c")
    if 2.0 * k0 * d == math.inf:
        raise _phase_overflow(d, freq)
    metal = isinstance(geom.backing, MetalBacking)
    n2 = None if metal else complex_sqrt_lossy(geom.backing)

    def bounces(a, b):
        n = _sqrt_lossy(a, b)
        gr2 = -1.0 + 0.0j if metal else _fresnel(n, n2)[0]
        try:
            rt = cmath.exp(-2j * (k0 * n) * d)  # k_r = k0 n on the decaying branch, Im(k_r) <= 0
        except ValueError:  # cmath's "math domain error" for an infinite phase
            raise _phase_overflow(d, freq) from None
        g1r = air_face_reflection(n)
        gr1 = -g1r
        return g1r, (1.0 + gr1) * gr2 * (1.0 + g1r) * rt, gr1 * gr2 * rt, n, gr2, rt

    return bounces


def _phase_overflow(thickness: float, freq: float) -> ValueError:
    return ValueError(f"slab thickness {thickness} m at carrier {freq} Hz overflows "
                      "the in-slab phase 2 k d")


def _slab_at(geom: SlabGeometry, freq: float):
    """(a, b) -> (F, dF/d eps) of ``effective_reflection_and_slope`` at eps = a - jb.

    Builds the slab's evaluator once, for a solver that asks many points
    of one geometry and carrier; ``a`` and ``b`` are not checked.
    """
    bounces = _slab_bounces(geom, freq)
    k0d = (2.0 * math.pi * freq / SPEED_OF_LIGHT) * geom.thickness

    def at(a, b):
        g, first, ratio, n, gr2, rt = bounces(a, b)
        denom = 1.0 - ratio
        if abs(denom) < 1e-12:
            raise DegenerateGeometryError(
                "internal bounce series does not converge (|1 - ratio| < 1e-12)"
            )
        u = gr2 * rt
        du_dn = u * (-2j * k0d) + (1.0 - gr2 * gr2) / (2.0 * n) * rt
        dg_dn = -2.0 / (1.0 + n) ** 2
        slope = ((1.0 - u * u) * dg_dn + (1.0 - g * g) * du_dn) / ((1.0 + g * u) ** 2 * (2.0 * n))
        return g + first / denom, slope

    return at


def slab_bounce_terms(
    eps_r: ComplexPermittivity, geom: SlabGeometry, freq: float
) -> tuple[complex, complex, complex]:
    """Front-face reflection, first transmitted bounce and bounce ratio.

    With Gamma_1r the air-to-slab reflection, Gamma_r1 = -Gamma_1r,
    T_1r = 1 + Gamma_1r, T_r1 = 1 + Gamma_r1, Gamma_r2 the rear-interface
    reflection and rt = e^{-j 2 k_r d} one in-slab round trip, returns
    (Gamma_1r, first, ratio) with

        first = T_r1*Gamma_r2*T_1r*rt,   ratio = Gamma_r1*Gamma_r2*rt,

    so bounce i >= 2 carries first * ratio^{i-2}. Every slab series
    starts from these same three numbers and so rounds alike.
    """
    return _slab_bounces(geom, freq)(eps_r.real_part, eps_r.imag_part)[:3]


def effective_reflection(
    eps_r: ComplexPermittivity, geom: SlabGeometry, freq: float
) -> complex:
    """Total front-face reflection of a backed slab: F of ``effective_reflection_and_slope``."""
    return _slab_at(geom, freq)(eps_r.real_part, eps_r.imag_part)[0]


def effective_reflection_and_slope(
    eps_r: ComplexPermittivity, geom: SlabGeometry, freq: float
) -> tuple[complex, complex]:
    """F, the front-face reflection of a backed slab with all bounces summed, and dF/d eps.

    F is the closed form of the internal-bounce geometric series:

        Gamma_1r + T_r1*Gamma_r2*T_1r*e^{-j2k_r d}
                   / (1 - Gamma_r1*Gamma_r2*e^{-j2k_r d})

    F is holomorphic in eps = a - jb. With g = Gamma_1r and
    u = Gamma_r2*rt, F = (g + u) / (1 + g u), so
    dF = ((1 - u^2) dg + (1 - g^2) du) / (1 + g u)^2, chained through
    dn/deps = 1/(2n), dg/dn = -2/(1 + n)^2, d rt/dn = -2j k0 d rt and
    dGamma_r2/dn = (1 - Gamma_r2^2)/(2n), which is 0 behind metal.

    Raises:
        DegenerateGeometryError: if the series denominator is within
            1e-12 of zero (lossless mirror resonance, nonphysical).
    """
    return _slab_at(geom, freq)(eps_r.real_part, eps_r.imag_part)


def fraunhofer_distance(aperture: float, wavelength: float) -> float:
    """Far-field boundary 2*D^2/lambda for an aperture of size D; finite and > 0, or ValueError."""
    d_far = 2.0 * aperture * aperture / wavelength if aperture > 0.0 and wavelength > 0.0 else 0.0
    if not 0.0 < d_far < math.inf:
        raise ValueError("aperture and wavelength must be > 0 and give a finite distance > 0")
    return d_far
