"""The phase-offset gauge freedom of the sweep model, made explicit.

A single-frequency sweep fixes only the complex product r(a, b) e^{jc}
(two real numbers), while the fit has three unknowns: every dataset is
reproduced exactly by a one-parameter family of (a, b, c) triples.
These tests pin down that structure so the estimator's start-anchored
reporting policy rests on verified ground rather than folklore.
"""

import math

import numpy as np
import pytest

from permslab import (
    METAL,
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    FitBounds,
    NoiseModel,
    SdiDataset,
    SlabGeometry,
    effective_reflection,
    fit_ideal,
    fit_permittivity,
    front_face_reflection,
    generate_dataset,
    jacobian,
    model_gamma,
)

M = 40
STEP = 1e-4
CARRIER = 79e9


def family_member(a, b, c, delta):
    """The equivalent (a', b', c') with phase offset c + delta."""
    r = front_face_reflection(a, b) * np.exp(-1j * delta)
    s = (1 - r) / (1 + r)
    eps = s * s
    return float(eps.real), float(-eps.imag), c + delta


def test_distinct_triples_same_model():
    a, b, c = 3.0, 0.15, 0.5
    a2, b2, c2 = family_member(a, b, c, 0.1)
    assert abs(a2 - a) > 0.01 and abs(b2 - b) > 0.1  # genuinely different point
    m = np.arange(M)
    c1 = SdiDataset(np.ones(3), STEP, CARRIER).step_phase
    g1 = model_gamma(a, b, c, m, c1)
    g2 = model_gamma(a2, b2, c2, m, c1)
    np.testing.assert_allclose(g1, g2, atol=1e-14)


def test_fit_from_different_anchors_lands_on_different_members():
    data = generate_dataset(
        ComplexPermittivity(3.0, 0.15), 0.5, M, STEP, CARRIER, NoiseModel.quiet()
    )
    f1 = fit_permittivity(data, starts=[(3.0, 0.15, 0.5)])
    f2 = fit_permittivity(data, starts=[(6.0, 1.0, 0.0)])
    # both are exact fits of the same data
    assert f1.residual_norm <= 1e-8
    assert f2.residual_norm <= 1e-8
    # but they are different members of the family
    assert abs(f1.permittivity.imag_part - f2.permittivity.imag_part) > 1e-3


def test_fitted_model_is_unique_even_when_parameters_are_not():
    data = generate_dataset(
        ComplexPermittivity(3.0, 0.15), 0.5, M, STEP, CARRIER, NoiseModel.quiet()
    )
    m = np.arange(M)
    models = []
    for starts in ([(3.0, 0.15, 0.5)], [(6.0, 1.0, 0.0)], "auto"):
        f = fit_permittivity(data, starts=starts)
        models.append(
            model_gamma(
                f.permittivity.real_part,
                f.permittivity.imag_part,
                f.phase_offset,
                m,
                data.step_phase,
            )
        )
    np.testing.assert_allclose(models[0], models[1], atol=1e-9)
    np.testing.assert_allclose(models[0], models[2], atol=1e-9)


def test_curvature_proxy_flags_the_flat_direction():
    data = generate_dataset(
        ComplexPermittivity(2.6, 0.1), 0.3, M, STEP, CARRIER, NoiseModel.quiet()
    )
    fit = fit_permittivity(data, starts=[(2.6, 0.1, 0.3)])
    p = fit.permittivity
    jac = jacobian((p.real_part, p.imag_part, fit.phase_offset), data)
    eigvals = np.linalg.eigvalsh(jac.T @ jac)
    assert eigvals[-1] > 1e-2  # two directions are well constrained
    assert eigvals[0] <= 1e-10 * eigvals[-1]  # one direction is flat


def test_canonical_point_is_stable_under_tiny_perturbations():
    truth = ComplexPermittivity(2.6, 0.1)
    data = generate_dataset(truth, 0.3, M, STEP, CARRIER, NoiseModel.quiet())
    f0 = fit_permittivity(data)
    jittered = SdiDataset(data.gammas * (1 + 1e-12), STEP, CARRIER)
    f1 = fit_permittivity(jittered)
    assert f0.permittivity.real_part == pytest.approx(
        f1.permittivity.real_part, abs=1e-9
    )
    assert f0.permittivity.imag_part == pytest.approx(
        f1.permittivity.imag_part, abs=1e-9
    )


def test_family_stays_inside_bounds_only_on_an_arc():
    # rotating the offset downward from a low-loss truth exits b >= 0
    a, b, c = 3.0, 0.15, 0.5
    _, b_down, _ = family_member(a, b, c, -0.1)
    assert b_down < 0.0
    _, b_up, _ = family_member(a, b, c, +0.1)
    assert b_up > b


def z_star(data):
    """The unconstrained least-squares optimum of r(a, b) e^{jc}."""
    return np.mean(data.gammas * np.exp(1j * data.step_phase * np.arange(data.step_count)))


def b_max_corners(bounds):
    """(1, b_max) and (a_max, b_max) with their |r|, largest |r| first."""
    corners = [(1.0, bounds.b_max), (bounds.a_max, bounds.b_max)]
    return sorted(((abs(front_face_reflection(*ab)), ab) for ab in corners), reverse=True)


def r_max(bounds):
    return b_max_corners(bounds)[0][0]


def scan_family(rho, bounds, points=2**18):
    """Brute-force reference: feasible (a, b) on a dense scan of |r(a, b)| = rho."""
    r = rho * np.exp(1j * np.linspace(-np.pi, np.pi, points, endpoint=False))
    eps = ((1 - r) / (1 + r)) ** 2
    a, b = eps.real, -eps.imag
    ok = (a >= 1.0) & (a <= bounds.a_max) & (b >= 0.0) & (b <= bounds.b_max)
    return a[ok], b[ok]


def scan_nearest(scan, anchor):
    a, b = scan
    return float(np.min(np.hypot(a - anchor[0], b - anchor[1]), initial=np.inf))


def anchor_distance(fit, anchor):
    return math.hypot(
        fit.permittivity.real_part - anchor[0], fit.permittivity.imag_part - anchor[1]
    )


def assert_attains_optimum(fit, data):
    fitted = model_gamma(
        fit.permittivity.real_part, fit.permittivity.imag_part,
        fit.phase_offset, np.arange(M), data.step_phase,
    )
    optimum = z_star(data) * np.exp(-1j * data.step_phase * np.arange(M))
    assert np.max(np.abs(fitted - optimum)) <= 1e-10


# (4, 50) and (20, 50): the largest |r| is at (1, b_max), not (a_max, b_max)
BOX_SHAPES = [FitBounds(), FitBounds(a_max=8.0, b_max=1.0), FitBounds(a_max=4.0, b_max=50.0),
              FitBounds(a_max=20.0, b_max=50.0)]


@pytest.mark.parametrize("bounds", BOX_SHAPES)
def test_fit_matches_brute_force_nearest_member(bounds):
    rng = np.random.default_rng(2024)
    truths = [
        (1.0 + 1e-9, 0.0), (1.0, 0.3 * bounds.b_max), (1.02, 1e-6),
        (bounds.a_max - 1e-3, 1e-4), (bounds.a_max, 0.5 * bounds.b_max),
        (0.5 * bounds.a_max, 0.0), (0.9 * bounds.a_max, 0.9 * bounds.b_max),
        # for (4, 50) and (20, 50) these lie between |r(a_max, b_max)| and
        # |r(1, b_max)|: only members near the (1, b_max) corner are feasible
        (1.0, 0.97 * bounds.b_max), (1.5, bounds.b_max),
    ]
    truths += [
        (1.0 + (bounds.a_max - 1.0) * rng.random() ** 2, bounds.b_max * rng.random() ** 3)
        for _ in range(20)
    ]
    for i, (a, b) in enumerate(truths):
        c = float(rng.uniform(-math.pi, math.pi))
        for noise in (NoiseModel.quiet(), NoiseModel(seed=i)):
            data = generate_dataset(ComplexPermittivity(a, b), c, M, STEP, CARRIER, noise)
            rho = abs(z_star(data))
            scan = scan_family(rho, bounds)
            for starts in ([(a, b, c)], "auto", [(6.0, 1.0, 0.0)]):
                anchor = (1.5, 0.01) if starts == "auto" else starts[0][:2]
                fit = fit_permittivity(data, bounds=bounds, starts=starts)
                assert anchor_distance(fit, anchor) <= scan_nearest(scan, anchor) + 1e-9
                if rho < r_max(bounds):
                    # the reported member attains the unconstrained optimum
                    assert_attains_optimum(fit, data)


def test_interior_nearest_member_is_found():
    # The nearest member sits inside the feasible arc, away from b = 0;
    # a grid search along the family can report the b = 0 edge instead.
    truth = (24.741773093228552, 0.3095986446205392)
    offset = -1.7291882007485617
    data = generate_dataset(
        ComplexPermittivity(*truth), offset, M, STEP, CARRIER, NoiseModel(seed=250)
    )
    fit = fit_permittivity(data, starts=[(*truth, offset)])
    reference = scan_nearest(scan_family(abs(z_star(data)), FitBounds()), truth)
    assert reference < 0.72
    assert anchor_distance(fit, truth) <= reference + 1e-9
    assert fit.permittivity.imag_part > 0.3


@pytest.mark.parametrize("bounds", BOX_SHAPES + [FitBounds(a_max=4.0, b_max=0.5)])
def test_largest_reflection_is_at_a_b_max_corner(bounds):
    a = np.linspace(1.0, bounds.a_max, 401)[:, None]
    b = np.linspace(0.0, bounds.b_max, 401)[None, :]
    s = np.sqrt(a - 1j * b)
    r = np.abs((1 - s) / (1 + s))
    assert np.max(r) <= r_max(bounds) * (1 + 1e-15)
    assert np.unravel_index(np.argmax(r), r.shape) in {(0, 400), (400, 400)}


@pytest.mark.parametrize("bounds", BOX_SHAPES + [FitBounds(a_max=4.0, b_max=0.5)])
def test_data_outside_the_feasible_disk_clamp_to_the_corner(bounds):
    (largest, corner), _ = b_max_corners(bounds)
    c1 = SdiDataset(np.ones(3), STEP, CARRIER).step_phase
    z = 1.01 * largest * np.exp(0.3j)
    data = SdiDataset(z * np.exp(-1j * c1 * np.arange(M)), STEP, CARRIER)
    fit = fit_permittivity(data, bounds=bounds, starts=[(2.0, 0.1, 0.0)])
    assert fit.permittivity == ComplexPermittivity(*corner)
    phase = np.angle(front_face_reflection(*corner))
    assert abs(math.remainder(fit.phase_offset - 0.3 + phase, 2 * math.pi)) <= 1e-12
    assert fit.residual_norm == pytest.approx(0.01 * largest * math.sqrt(M), rel=1e-9)


def test_thin_slab_ideal_fit_has_several_exact_solutions():
    # a thin metal-backed slab's front-face reflection repeats as the
    # round trip through the slab gains whole turns of phase, so distinct
    # permittivities reproduce the same noiseless sweep; the start picks one
    geom = SlabGeometry(thickness=2.046e-3, standoff=0.25, backing=METAL)
    k1 = 2 * math.pi * CARRIER / SPEED_OF_LIGHT
    face = effective_reflection(ComplexPermittivity(7.0, 0.3), geom, CARRIER)
    gammas = face * np.exp(2j * k1 * (geom.standoff + np.arange(M) * STEP))
    f1 = fit_ideal(gammas, geom, STEP, CARRIER, starts=[(7.0, 0.3)])
    f2 = fit_ideal(gammas, geom, STEP, CARRIER, starts=[(12.0, 0.5)])
    assert f1.residual_norm < 1e-9
    assert f2.residual_norm < 1e-9
    assert abs(f1.permittivity.real_part - f2.permittivity.real_part) > 1
