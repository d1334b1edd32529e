"""Slab electromagnetics: branch square root, Fresnel, multi-bounce."""

import cmath
import functools
import itertools
import math
import re

import numpy as np
import pytest

from permslab import (
    AIR,
    METAL,
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    SlabGeometry,
    complex_sqrt_lossy,
    effective_reflection,
    fraunhofer_distance,
    fresnel_normal,
)
from permslab import em
from permslab.em import effective_reflection_and_slope, slab_bounce_terms
from permslab.errors import DegenerateGeometryError

import bounce_series
from bounce_series import effective_reflection_truncated


def polar_sqrt(a, b):
    """Independent oracle: principal square root of a - jb in polar form."""
    z = complex(a, -b)
    r = abs(z)
    theta = cmath.phase(z)
    return math.sqrt(r) * cmath.exp(1j * theta / 2.0)


class TestComplexSqrtLossy:
    def test_exact_case(self):
        # (2 - j)^2 = 3 - 4j
        assert complex_sqrt_lossy(ComplexPermittivity(3, 4)) == pytest.approx(2 - 1j)

    def test_identity_case(self):
        assert complex_sqrt_lossy(ComplexPermittivity(1, 0)) == 1 + 0j

    def test_acrylic_value(self):
        got = complex_sqrt_lossy(ComplexPermittivity(2.60, 0.1))
        assert got.real == pytest.approx(1.6128, abs=1e-4)
        assert got.imag == pytest.approx(-0.0310, abs=1e-4)
        # square back and polar-form oracle
        assert got**2 == pytest.approx(2.60 - 0.1j, rel=1e-12)
        assert got == pytest.approx(polar_sqrt(2.60, 0.1), rel=1e-12)

    def test_square_identity_on_grid(self):
        for a in np.linspace(1.0, 100.0, 23):
            for b in np.linspace(0.0, 50.0, 17):
                s = complex_sqrt_lossy(ComplexPermittivity(a, b))
                assert abs(s * s - complex(a, -b)) <= 1e-12 * abs(complex(a, -b))
                assert s.imag <= 0.0
                assert s == pytest.approx(polar_sqrt(a, b), rel=1e-12)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ComplexPermittivity(0.5, 0.0)
        with pytest.raises(ValueError):
            ComplexPermittivity(2.0, -0.1)
        for a, b, part in ((math.inf, 0.0, "real"), (math.nan, 0.0, "real"),
                           (2.0, math.inf, "loss"), (2.0, math.nan, "loss")):
            with pytest.raises(ValueError, match=f"{part} part must be finite"):
                ComplexPermittivity(a, b)

    @pytest.mark.parametrize("a, b", [(1e308, 0.0), (1e308, 1e308), (1e308, 5e-324)])
    def test_huge_finite_permittivity_has_finite_root(self, a, b):
        s = complex_sqrt_lossy(ComplexPermittivity(a, b))
        assert math.isfinite(s.real) and math.isfinite(s.imag)
        assert s.real == pytest.approx(polar_sqrt(a / 4, b / 4).real * 2, rel=1e-12)


class TestFresnelNormal:
    def test_no_interface(self):
        g, t = fresnel_normal(AIR, AIR)
        assert g == 0
        assert t == 1

    def test_air_to_four(self):
        g, t = fresnel_normal(AIR, ComplexPermittivity(4.0))
        assert g == pytest.approx(-1.0 / 3.0, rel=1e-15)
        assert t == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_air_to_lossy(self):
        # direct complex-arithmetic oracle
        n = cmath.sqrt(2.60 - 0.1j)
        expected = (1 - n) / (1 + n)
        g, _ = fresnel_normal(AIR, ComplexPermittivity(2.60, 0.1))
        assert g == pytest.approx(expected, rel=1e-12)
        assert g == pytest.approx(-0.2347 + 0.0091j, abs=1e-4)

    def test_interface_identities_on_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            e1 = ComplexPermittivity(rng.uniform(1, 20), rng.uniform(0, 2))
            e2 = ComplexPermittivity(rng.uniform(1, 20), rng.uniform(0, 2))
            g12, t12 = fresnel_normal(e1, e2)
            g21, t21 = fresnel_normal(e2, e1)
            assert abs(t12 - (1 + g12)) <= 1e-12
            assert abs(g21 + g12) <= 1e-12
            assert abs(t12 * t21 - (1 - g12**2)) <= 1e-12


class TestEffectiveReflection:
    GEOM = SlabGeometry(thickness=0.02, standoff=0.25, backing=METAL)

    def test_matched_backing_kills_series(self):
        eps = ComplexPermittivity(3.0, 0.15)
        geom = SlabGeometry(0.02, 0.25, backing=eps)
        g_front, _ = fresnel_normal(AIR, eps)
        assert effective_reflection(eps, geom, 79e9) == g_front

    def test_thick_lossy_slab_reduces_to_front_face(self):
        eps = ComplexPermittivity(3.0, 0.3)
        geom = SlabGeometry(1.0, 0.25, backing=METAL)
        g_front, _ = fresnel_normal(AIR, eps)
        assert effective_reflection(eps, geom, 79e9) == pytest.approx(g_front, abs=1e-9)

    def test_against_truncated_series(self):
        eps = ComplexPermittivity(3.0, 0.15)
        geom = SlabGeometry(0.02, 0.25, backing=AIR)
        closed = effective_reflection(eps, geom, 79e9)
        series = effective_reflection_truncated(eps, geom, 79e9, q=64)
        assert closed == pytest.approx(series, abs=1e-10)

    def test_truncated_q2_is_two_terms(self):
        eps = ComplexPermittivity(3.0, 0.15)
        geom = SlabGeometry(0.02, 0.25, backing=METAL)
        g1r, t1r = fresnel_normal(AIR, eps)
        gr1, tr1 = fresnel_normal(eps, AIR)
        k_r = 2 * math.pi * 79e9 / SPEED_OF_LIGHT * complex_sqrt_lossy(eps)
        rt = cmath.exp(-2j * k_r * geom.thickness)
        expected = g1r + tr1 * (-1.0) * t1r * rt
        got = effective_reflection_truncated(eps, geom, 79e9, q=2)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_truncated_matched_backing(self):
        eps = ComplexPermittivity(2.5, 0.2)
        geom = SlabGeometry(0.02, 0.25, backing=eps)
        g_front, _ = fresnel_normal(AIR, eps)
        assert effective_reflection_truncated(eps, geom, 79e9, q=7) == g_front

    def test_truncated_requires_two_bounces(self):
        with pytest.raises(ValueError):
            effective_reflection_truncated(
                ComplexPermittivity(2.0), self.GEOM, 79e9, q=1
            )

    def test_passivity_on_random_grid(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            eps = ComplexPermittivity(rng.uniform(1, 30), rng.uniform(0, 5))
            backing = METAL if rng.random() < 0.5 else ComplexPermittivity(
                rng.uniform(1, 30), rng.uniform(0, 5)
            )
            geom = SlabGeometry(rng.uniform(1e-3, 0.05), 0.25, backing)
            assert abs(effective_reflection(eps, geom, 79e9)) <= 1.0 + 1e-12

    def test_metal_backing_vanishing_slab_is_mirror(self):
        eps = ComplexPermittivity(3.0, 0.15)
        geom = SlabGeometry(1e-12, 0.25, backing=METAL)
        assert effective_reflection(eps, geom, 79e9) == pytest.approx(-1.0, abs=1e-6)

    def test_frequency_positive(self):
        with pytest.raises(ValueError):
            effective_reflection(ComplexPermittivity(2.0), self.GEOM, 0.0)

    @pytest.mark.parametrize("freq", [math.inf, math.nan, 0.0, -79e9])
    @pytest.mark.parametrize("slab_function", [
        effective_reflection, effective_reflection_and_slope, slab_bounce_terms,
        functools.partial(effective_reflection_truncated, q=3),
    ])
    def test_frequency_finite_and_positive(self, slab_function, freq):
        # an infinite frequency made every slab value nan+nanj
        with pytest.raises(ValueError, match="frequency must be finite and > 0"):
            slab_function(ComplexPermittivity(3.0, 0.1), SlabGeometry(2e-3, 0.25), freq)

    @pytest.mark.parametrize("freq", [2.9e307, 1e308, 1.7976931348623157e308])
    @pytest.mark.parametrize("slab_function", [
        effective_reflection, effective_reflection_and_slope, slab_bounce_terms,
        functools.partial(effective_reflection_truncated, q=3),
    ])
    def test_carrier_whose_wavenumber_overflows_is_refused(self, slab_function, freq):
        # 2 pi f / c overflowed to inf and every slab value came out nan+nanj
        with pytest.raises(ValueError, match="carrier .* Hz overflows its wavenumber"):
            slab_function(ComplexPermittivity(3.0, 0.1), SlabGeometry(2e-3, 0.25), freq)

    @pytest.mark.parametrize("eps, thickness", [
        # the phase overflows at eps = 1 already, and is refused with the evaluator
        ((3.0, 0.1), 1e306),
        # finite at eps = 1, it overflows at this eps, lossless or lossy
        ((1e6, 0.0), 1e304), ((1e6, 1e3), 1e304),
    ])
    @pytest.mark.parametrize("slab_function", [
        effective_reflection, effective_reflection_and_slope, slab_bounce_terms,
        functools.partial(effective_reflection_truncated, q=3),
    ])
    def test_slab_whose_phase_overflows_is_refused(self, slab_function, eps, thickness):
        # cmath.exp raised a bare "math domain error"
        message = f"slab thickness {thickness} m at carrier 79000000000.0 Hz overflows the in-slab"
        with pytest.raises(ValueError, match=f"^{re.escape(message)} phase 2 k d$"):
            slab_function(ComplexPermittivity(*eps), SlabGeometry(thickness, 0.25), 79e9)

    def test_resonance_guard(self):
        # nonphysical near-unity bounce ratio: enormous permittivity with
        # the thickness tuned to a half-wave resonance
        a = 1e32
        k0 = 2 * math.pi * 79e9 / SPEED_OF_LIGHT
        d = math.pi / (2 * k0 * math.sqrt(a))
        geom = SlabGeometry(d, 0.25, backing=METAL)
        with pytest.raises(DegenerateGeometryError):
            effective_reflection(ComplexPermittivity(a, 0.0), geom, 79e9)


def same_bits(u, v):
    return (u.real.hex(), u.imag.hex()) == (v.real.hex(), v.imag.hex())


@pytest.mark.parametrize("backing", [METAL, AIR, ComplexPermittivity(4.0, 0.4)])
@pytest.mark.parametrize("thickness", [5e-4, 2e-3, 1e-2, 0.1])
def test_reflection_and_slope_match_their_own_functions_bit_for_bit(backing, thickness):
    geom = SlabGeometry(thickness, 0.25, backing)
    for a, b in itertools.product((1.0, 1.5, 2.5, 7.0, 12.48, 60.0), (0.0, 0.01, 0.467, 40.0)):
        eps = ComplexPermittivity(a, b)
        face, _ = effective_reflection_and_slope(eps, geom, 79e9)
        assert same_bits(face, effective_reflection(eps, geom, 79e9)), (a, b)


def test_reflection_and_slope_keep_the_resonance_guard():
    # the inputs of TestEffectiveReflection.test_resonance_guard
    a = 1e32
    k0 = 2 * math.pi * 79e9 / SPEED_OF_LIGHT
    geom = SlabGeometry(math.pi / (2 * k0 * math.sqrt(a)), 0.25, backing=METAL)
    with pytest.raises(DegenerateGeometryError, match="does not converge"):
        effective_reflection_and_slope(ComplexPermittivity(a, 0.0), geom, 79e9)


@pytest.mark.parametrize("backing", [METAL, AIR, ComplexPermittivity(4.0, 0.4)])
def test_slab_evaluator_is_the_bounce_algebra_bit_for_bit(backing):
    # the evaluator a fit builds once per geometry, and the three functions
    # over it, round exactly as em's slab algebra did when every point
    # rebuilt its constants (bounce_series): the same double operations in
    # the same order, so this holds on any CPU
    rng = np.random.default_rng(32)
    a_grid = np.concatenate([[1.0, 60.0], rng.uniform(1.0, 60.0, 18)]).tolist()
    b_grid = np.concatenate([[0.0, 40.0], rng.uniform(0.0, 40.0, 18)]).tolist()
    thicknesses = np.concatenate([[5e-4, 0.1], np.exp(rng.uniform(math.log(5e-4),
                                                                  math.log(0.1), 6))])
    freq = 79e9
    for thickness in thicknesses.tolist():
        geom = SlabGeometry(thickness, 0.25, backing)
        slab = em._slab_at(geom, freq)
        for a, b in itertools.product(a_grid, b_grid):
            eps = ComplexPermittivity(a, b)
            face, slope = bounce_series.reflection_and_slope(eps, geom, freq)
            terms = bounce_series.bounces(*bounce_series.interfaces(eps, geom, freq)[1:])
            got = [*slab(a, b), effective_reflection(eps, geom, freq),
                   *effective_reflection_and_slope(eps, geom, freq),
                   *slab_bounce_terms(eps, geom, freq)]
            want = [face, slope, face, face, slope, *terms]
            assert all(map(same_bits, got, want)), (thickness, a, b)


def unchecked_permittivity(a, b):
    """a - jb without the passivity check: F continues analytically across a = 1 and b = 0."""
    eps = object.__new__(ComplexPermittivity)
    object.__setattr__(eps, "real_part", a)
    object.__setattr__(eps, "imag_part", b)
    return eps


@pytest.mark.parametrize("backing", [METAL, AIR, ComplexPermittivity(4.0, 0.4)])
@pytest.mark.parametrize("thickness", [5e-4, 2e-3, 1e-2, 0.1])
def test_slope_matches_central_differences(backing, thickness):
    # dF/da = F' and, F being holomorphic in a - jb, dF/db = -j F'; central
    # differences converge as h^2 until rounding takes over, so the best
    # step of a halving sequence sits far below any error in F'
    geom = SlabGeometry(thickness, 0.25, backing)
    points = itertools.product((1.0, 2.5, 7.0, 60.0), (0.0, 0.3, 40.0))
    for a, b in points:
        def face(a, b):
            return effective_reflection(unchecked_permittivity(a, b), geom, 79e9)

        _, slope = effective_reflection_and_slope(ComplexPermittivity(a, b), geom, 79e9)
        errors = []
        for k in range(14):
            h = 1e-3 / 2**k
            d_da = (face(a + h, b) - face(a - h, b)) / (2 * h)
            d_db = (face(a, b + h) - face(a, b - h)) / (2 * h)
            errors.append(max(abs(d_da - slope), abs(d_db + 1j * slope)) / abs(slope))
        assert min(errors) < 1e-8, (a, b, min(errors))


class TestFraunhofer:
    def test_radar_module_anchor(self):
        assert fraunhofer_distance(0.015, 0.0038) == pytest.approx(0.1184, rel=0.005)

    def test_aperture_equal_wavelength(self):
        assert fraunhofer_distance(2.0, 2.0) == 4.0

    def test_unit_case(self):
        assert fraunhofer_distance(1.0, 1.0) == 2.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fraunhofer_distance(0.0, 1.0)

    @pytest.mark.parametrize("aperture, wavelength", [
        (1.0, -1.0), (math.nan, 1.0),
        # infinite inputs, and finite ones whose distance overflows or underflows
        (math.inf, 1.0), (1.0, math.inf), (1e200, 1e-200), (1e-200, 1.0),
    ])
    def test_rejects_distance_not_finite_positive(self, aperture, wavelength):
        with pytest.raises(ValueError, match="finite distance"):
            fraunhofer_distance(aperture, wavelength)


def test_metal_repr():
    assert repr(METAL) == "METAL"
    assert repr(SlabGeometry(0.02, 0.25)) == \
        "SlabGeometry(thickness=0.02, standoff=0.25, backing=METAL)"


def test_geometry_invariants():
    with pytest.raises(ValueError):
        SlabGeometry(0.0, 0.25)
    with pytest.raises(ValueError):
        SlabGeometry(0.02, -1.0)
