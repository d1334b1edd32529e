"""Oracles for the slab algebra of ``permslab.em``.

``effective_reflection_truncated`` sums the first terms of the bounce
series one by one, from the same ``slab_bounce_terms`` that em sums in
closed form. ``interfaces``, ``bounces`` and ``reflection_and_slope`` are
em's slab algebra computed per call, every constant of the geometry and
carrier found again for each eps, with the same double operations in the
same order as em's per-geometry evaluator, so that evaluator can be
asserted bit for bit against them.
"""

import cmath
import math

from permslab.em import (
    SPEED_OF_LIGHT,
    MetalBacking,
    air_face_reflection,
    complex_sqrt_lossy,
    fresnel_normal,
    slab_bounce_terms,
)
from permslab.errors import DegenerateGeometryError


def effective_reflection_truncated(eps_r, geom, freq: float, q: int) -> complex:
    """Front-face reflection keeping only the first q wave components.

    Component 1 is the direct front-face reflection; components
    2..q are the successive transmitted bounces, summed term by term.
    """
    if q < 2:
        raise ValueError(f"bounce count q must be >= 2, got {q}")
    total, term, ratio = slab_bounce_terms(eps_r, geom, freq)
    for _ in range(q - 1):
        total += term
        term *= ratio
    return total


def interfaces(eps_r, geom, freq: float):
    """Slab index n = sqrt(eps_r), Gamma_1r, Gamma_r2 and rt = e^{-j 2 k_r d}."""
    if not 0.0 < freq < math.inf:
        raise ValueError(f"frequency must be finite and > 0, got {freq}")
    n = complex_sqrt_lossy(eps_r)
    if isinstance(geom.backing, MetalBacking):
        gr2 = -1.0 + 0.0j
    else:
        gr2, _ = fresnel_normal(eps_r, geom.backing)
    k_r = (2.0 * math.pi * freq / SPEED_OF_LIGHT) * n  # decaying branch, Im(k_r) <= 0
    return n, air_face_reflection(n), gr2, cmath.exp(-2j * k_r * geom.thickness)


def bounces(g1r: complex, gr2: complex, rt: complex) -> tuple[complex, complex, complex]:
    """(Gamma_1r, first, ratio) of ``slab_bounce_terms`` from the interface values."""
    gr1 = -g1r
    return g1r, (1.0 + gr1) * gr2 * (1.0 + g1r) * rt, gr1 * gr2 * rt


def reflection_and_slope(eps_r, geom, freq: float) -> tuple[complex, complex]:
    """F and dF/d eps of ``effective_reflection_and_slope``, from the two functions above."""
    n, g, gr2, rt = interfaces(eps_r, geom, freq)
    _, first, ratio = bounces(g, gr2, rt)
    denom = 1.0 - ratio
    if abs(denom) < 1e-12:
        raise DegenerateGeometryError(
            "internal bounce series does not converge (|1 - ratio| < 1e-12)"
        )
    u = gr2 * rt
    k0d = (2.0 * math.pi * freq / SPEED_OF_LIGHT) * geom.thickness
    du_dn = u * (-2j * k0d) + (1.0 - gr2 * gr2) / (2.0 * n) * rt
    dg_dn = -2.0 / (1.0 + n) ** 2
    slope = ((1.0 - u * u) * dg_dn + (1.0 - g * g) * du_dn) / ((1.0 + g * u) ** 2 * (2.0 * n))
    return g + first / denom, slope
