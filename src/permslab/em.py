"""Plane-wave electromagnetics of a dielectric slab at normal incidence.

Covers the loss-branch complex square root, Fresnel coefficients, the
multi-bounce effective reflection coefficient of a backed slab (closed
form and truncated series), and the Fraunhofer far-field distance.

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
    a = eps.real_part
    b = eps.imag_part
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
    n_from = complex_sqrt_lossy(eps_from)
    n_to = complex_sqrt_lossy(eps_to)
    denom = n_from + n_to
    return (n_from - n_to) / denom, 2.0 * n_from / denom


def air_face_reflection(n: complex) -> complex:
    """Air-to-slab reflection (1 - n) / (1 + n) for the slab index n = sqrt(eps)."""
    return (1.0 - n) / (1.0 + n)


def _slab_interfaces(eps_r: ComplexPermittivity, geom: SlabGeometry, freq: float):
    """Slab index n = sqrt(eps_r), Gamma_1r, Gamma_r2 and rt = e^{-j 2 k_r d}."""
    if not freq > 0.0:
        raise ValueError(f"frequency must be > 0, got {freq}")
    n = complex_sqrt_lossy(eps_r)
    if isinstance(geom.backing, MetalBacking):
        gr2 = -1.0 + 0.0j
    else:
        gr2, _ = fresnel_normal(eps_r, geom.backing)
    k_r = (2.0 * math.pi * freq / SPEED_OF_LIGHT) * n  # decaying branch, Im(k_r) <= 0
    return n, air_face_reflection(n), gr2, cmath.exp(-2j * k_r * geom.thickness)


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
    _, g1r, gr2, rt = _slab_interfaces(eps_r, geom, freq)
    gr1 = -g1r
    return g1r, (1.0 + gr1) * gr2 * (1.0 + g1r) * rt, gr1 * gr2 * rt


def effective_reflection_slope(
    eps_r: ComplexPermittivity, geom: SlabGeometry, freq: float
) -> complex:
    """dF/d eps of F = effective_reflection, holomorphic in eps = a - jb.

    With g = Gamma_1r and u = Gamma_r2*rt, F = (g + u) / (1 + g u), so
    dF = ((1 - u^2) dg + (1 - g^2) du) / (1 + g u)^2, chained through
    dn/deps = 1/(2n), dg/dn = -2/(1 + n)^2, d rt/dn = -2j k0 d rt and
    dGamma_r2/dn = (1 - Gamma_r2^2)/(2n), which is 0 behind metal.
    """
    n, g, gr2, rt = _slab_interfaces(eps_r, geom, freq)
    u = gr2 * rt
    k0d = (2.0 * math.pi * freq / SPEED_OF_LIGHT) * geom.thickness
    du_dn = u * (-2j * k0d) + (1.0 - gr2 * gr2) / (2.0 * n) * rt
    dg_dn = -2.0 / (1.0 + n) ** 2
    return ((1.0 - u * u) * dg_dn + (1.0 - g * g) * du_dn) / ((1.0 + g * u) ** 2 * (2.0 * n))


def effective_reflection(
    eps_r: ComplexPermittivity, geom: SlabGeometry, freq: float
) -> complex:
    """Total front-face reflection of a backed slab, all bounces summed.

    Closed form of the internal-bounce geometric series:

        Gamma_1r + T_r1*Gamma_r2*T_1r*e^{-j2k_r d}
                   / (1 - Gamma_r1*Gamma_r2*e^{-j2k_r d})

    Raises:
        DegenerateGeometryError: if the series denominator is within
            1e-12 of zero (lossless mirror resonance, nonphysical).
    """
    g1r, first, ratio = slab_bounce_terms(eps_r, geom, freq)
    denom = 1.0 - ratio
    if abs(denom) < 1e-12:
        raise DegenerateGeometryError(
            "internal bounce series does not converge (|1 - ratio| < 1e-12)"
        )
    return g1r + first / denom


def effective_reflection_truncated(
    eps_r: ComplexPermittivity, geom: SlabGeometry, freq: float, q: int
) -> complex:
    """Front-face reflection keeping only the first q wave components.

    Component 1 is the direct front-face reflection; components
    2..q are the successive transmitted bounces, summed term by term.
    Serves as the independent oracle for effective_reflection.
    """
    if q < 2:
        raise ValueError(f"bounce count q must be >= 2, got {q}")
    total, term, ratio = slab_bounce_terms(eps_r, geom, freq)
    for _ in range(q - 1):
        total += term
        term *= ratio
    return total


def fraunhofer_distance(aperture: float, wavelength: float) -> float:
    """Far-field boundary 2*D^2/lambda for an aperture of size D; finite and > 0, or ValueError."""
    d_far = 2.0 * aperture * aperture / wavelength if aperture > 0.0 and wavelength > 0.0 else 0.0
    if not 0.0 < d_far < math.inf:
        raise ValueError("aperture and wavelength must be > 0 and give a finite distance > 0")
    return d_far
