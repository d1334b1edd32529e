"""Sweep model, residuals, Jacobian, and the fit drivers."""

import cmath
import math
import re

import numpy as np
import pytest

from permslab import (
    AIR,
    METAL,
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    FitBounds,
    FitResult,
    NoiseModel,
    SdiDataset,
    SlabGeometry,
    effective_reflection,
    fit_ideal,
    fit_permittivity,
    fresnel_normal,
    front_face_reflection,
    generate_dataset,
    jacobian,
    model_gamma,
    phase_slope_diagnostic,
    residuals,
    run_sweep,
    step_phase_advance,
    wrap_phase,
)
from permslab import estimator as estimator_module
from permslab.trf import numerical_jacobian
from permslab.errors import (
    AliasingError,
    DegenerateDataError,
    DegenerateRegressionError,
    InfeasibleFitError,
    NoConvergenceError,
)

from trf_reference import NUMPY_LAPACK, real_form, reference_least_squares_trf

C1_79GHZ = step_phase_advance(79e9, 1e-4)


def quiet_dataset(a, b, c, m_count=40, step=1e-4, carrier=79e9):
    return generate_dataset(
        ComplexPermittivity(a, b), c, m_count, step, carrier, NoiseModel.quiet()
    )


def real_form_model(a, b, c, m, c1):
    """Independent oracle: the fully real-arithmetic split of the model.

    g1 = 1 + R + sqrt(2) sqrt(R + a)
    g2 = (1 - R) cos(t) - sqrt(2) sqrt(R - a) sin(t)
    g3 = (1 - R) sin(t) + sqrt(2) sqrt(R - a) cos(t)
    with R = sqrt(a^2 + b^2), t = c - c1*m; model = (g2 + j g3) / g1.
    """
    big_r = math.hypot(a, b)
    t = c - c1 * m
    root = math.sqrt(2.0) * math.sqrt(max(big_r - a, 0.0))
    g1 = 1.0 + big_r + math.sqrt(2.0) * math.sqrt(big_r + a)
    g2 = (1.0 - big_r) * math.cos(t) - root * math.sin(t)
    g3 = (1.0 - big_r) * math.sin(t) + root * math.cos(t)
    return complex(g2 / g1, g3 / g1)


class TestSdiDataset:
    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            SdiDataset(np.array([1.0, 2.0]), 1e-4, 79e9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
    def test_rejects_non_finite(self, bad):
        gammas = np.full(5, 0.2 + 0.1j)
        gammas[2] = bad
        with pytest.raises(ValueError, match="finite"):
            SdiDataset(gammas, 1e-4, 79e9)

    def test_positive_step(self):
        with pytest.raises(ValueError):
            SdiDataset(np.ones(5), 0.0, 79e9)

    def test_aliasing_guard(self):
        # quarter wavelength at 79 GHz is ~0.95 mm; a 1 mm step aliases
        with pytest.raises(AliasingError):
            SdiDataset(np.ones(5), 1e-3, 79e9)

    def test_step_phase_value(self):
        d = SdiDataset(np.ones(5), 1e-4, 79e9)
        assert math.degrees(d.step_phase) == pytest.approx(18.9731, abs=1e-3)


class TestModelGamma:
    def test_no_contrast(self):
        assert model_gamma(1.0, 0.0, 1.3, 7, C1_79GHZ) == 0

    def test_exact_fresnel_case(self):
        assert model_gamma(4.0, 0.0, 0.0, 0, C1_79GHZ) == pytest.approx(-1.0 / 3.0)

    def test_matches_fresnel_rotation(self):
        rng = np.random.default_rng(42)
        m = np.arange(17)
        for _ in range(30):
            a, b = rng.uniform(1, 30), rng.uniform(0, 5)
            c = rng.uniform(-math.pi, math.pi)
            gamma, _ = fresnel_normal(AIR, ComplexPermittivity(a, b))
            expected = gamma * np.exp(1j * (c - C1_79GHZ * m))
            np.testing.assert_allclose(
                model_gamma(a, b, c, m, C1_79GHZ), expected, atol=1e-12
            )

    def test_matches_real_form(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            a, b = rng.uniform(1, 30), rng.uniform(0, 5)
            c = rng.uniform(-math.pi, math.pi)
            m = int(rng.integers(0, 40))
            got = model_gamma(a, b, c, m, C1_79GHZ)
            assert got == pytest.approx(real_form_model(a, b, c, m, C1_79GHZ), abs=1e-12)

    def test_step_is_phase_rotation(self):
        a, b, c = 2.0, 0.1, 0.3
        for m in range(1, 10):
            lhs = model_gamma(a, b, c, m, C1_79GHZ)
            rhs = model_gamma(a, b, c - C1_79GHZ, m - 1, C1_79GHZ)
            assert abs(lhs - rhs) <= 1e-12

    def test_periodicity_about_19_steps(self):
        period = 2 * math.pi / C1_79GHZ
        assert period == pytest.approx(19.0, abs=0.05)
        seq = model_gamma(2.0, 0.1, 0.0, np.arange(40), C1_79GHZ)
        assert abs(seq[19] - seq[0]) < 0.01


class TestResiduals:
    def test_zero_at_generating_parameters(self):
        data = quiet_dataset(3.0, 0.15, 0.5)
        res = residuals((3.0, 0.15, 0.5), data)
        assert np.max(np.abs(res)) <= 1e-12

    def test_zero_data_zero_model(self):
        data = SdiDataset(np.zeros(10, dtype=complex), 1e-4, 79e9)
        res = residuals((1.0, 0.0, 0.7), data)
        assert np.all(res == 0)

    def test_objective_matches_direct_oracle(self):
        data = quiet_dataset(3.0, 0.15, 0.0)
        params = (2.0, 0.1, 0.0)
        res = residuals(params, data)
        m = np.arange(data.step_count)
        direct = np.sum(
            np.abs(data.gammas - model_gamma(*params, m, data.step_phase)) ** 2
        )
        assert np.sum(res**2) == pytest.approx(direct, rel=1e-12)

    def test_interleaving_order(self):
        data = quiet_dataset(3.0, 0.15, 0.0, m_count=5)
        res = residuals((2.0, 0.1, 0.3), data)
        diff = data.gammas - model_gamma(2.0, 0.1, 0.3, np.arange(5), data.step_phase)
        np.testing.assert_allclose(res[0::2], diff.real)
        np.testing.assert_allclose(res[1::2], diff.imag)


def central_difference_jacobian(params, data, rel_step=1e-6):
    params = np.asarray(params, dtype=float)
    cols = []
    for i in range(3):
        h = rel_step * max(1.0, abs(params[i]))
        xp = params.copy()
        xp[i] += h
        xm = params.copy()
        xm[i] -= h
        cols.append((residuals(xp, data) - residuals(xm, data)) / (2 * h))
    return np.array(cols).T


class TestJacobian:
    def test_phase_column_is_model_rotation(self):
        data = quiet_dataset(3.0, 0.15, 0.2)
        params = (2.5, 0.3, -0.4)
        J = jacobian(params, data)
        model = model_gamma(2.5, 0.3, -0.4, np.arange(data.step_count), data.step_phase)
        np.testing.assert_allclose(J[0::2, 2], model.imag, atol=1e-14)
        np.testing.assert_allclose(J[1::2, 2], -model.real, atol=1e-14)

    def test_matches_central_differences_interior(self):
        rng = np.random.default_rng(7)
        data = quiet_dataset(3.0, 0.15, 0.4, m_count=10)
        for _ in range(50):
            params = (rng.uniform(1.2, 20), rng.uniform(0.05, 3), rng.uniform(-3, 3))
            J = jacobian(params, data)
            J_fd = central_difference_jacobian(params, data)
            assert np.max(np.abs(J - J_fd)) <= 1e-5

    def test_boundary_one_sided_check(self):
        data = quiet_dataset(3.0, 0.0, 0.1, m_count=8)
        params = np.array([2.0, 0.0, 0.1])
        J = jacobian(params, data)
        h = 1e-7
        forward = (residuals(params + [0, h, 0], data) - residuals(params, data)) / h
        np.testing.assert_allclose(J[:, 1], forward, atol=1e-5)


def reference_fit(data, bounds, anchor):
    """The closed-form sweep fit of one sweep alone, nearest member by a scalar search.

    Returns (a, b, c, residual norm) as fit_permittivity must, bit for bit;
    the norm is sqrt(floor + M (|r| - |z*|)^2) with the floor |Gamma - z* e^{-j C1 m}|^2.
    Both quartics are solved for every family; a fit that fails raises the error
    fit_permittivity must raise.
    """
    if np.all(np.abs(data.gammas) < 1e-12):
        raise DegenerateDataError("all reflection samples below 1e-12")
    d = np.exp(1j * data.step_phase * np.arange(data.step_count))
    z = complex(np.mean(data.gammas * d))
    floor = float(np.sum(np.abs(data.gammas - z * d.conj()) ** 2))
    rho = abs(z)
    corner = estimator_module._largest_reflection_corner(bounds)
    if rho >= 1.0:
        raise InfeasibleFitError(f"|z*| = {rho:.17g} >= 1: no passive half-space reflects "
                                 "that much")
    if rho >= abs(front_face_reflection(*corner)):
        a, b = corner
    elif rho < 1e-100:
        a, b = 1.0, 0.0
    else:
        a0, b0 = anchor
        big_c = (1.0 + rho * rho) / (1.0 - rho * rho)
        big_r = 2.0 * rho / (1.0 - rho * rho)
        k = 2.0 * big_c / big_r
        g = (big_c * big_c - complex(a0, -b0)) / big_r**2 or 1e-16
        quartics = np.array([
            [2 * g.conjugate(), k * (1 + g.conjugate()), 0, -k * (1 + g), -2 * g],
            [1, k, 2j * bounds.b_max / big_r**2, -k, -1],
        ], dtype=complex)
        if not np.isfinite(quartics).all():
            raise InfeasibleFitError(f"the root quartics of the family |r| = {rho:.17g} "
                                     "overflow for this anchor and box")
        w = estimator_module._unit_circle_roots(quartics)
        eps = (big_c + big_r * np.where(w.real > -1e-10, w, np.nan)) ** 2  # a >= 1 needs Re w >= 0
        # the stationary roots, the three closed-form ends, then the b = b_max roots
        ends = estimator_module._box_ends(big_c, big_r, bounds.a_max)
        eps = np.array([*eps[:4], *ends, *eps[4:]])
        a, b = eps.real, -eps.imag
        tol = 1e-13 * (big_c + big_r) * np.sqrt(np.abs(eps))
        ok = (a > 1.0 - tol) & (a < bounds.a_max + tol) & (b > -tol) & (b < bounds.b_max + tol)
        if not ok.any():
            raise InfeasibleFitError(f"no root of the family |r| = {rho:.17g} in the box")
        a = np.clip(a[ok], 1.0, bounds.a_max)
        b = np.clip(b[ok], 0.0, bounds.b_max)
        with np.errstate(over="ignore"):  # all distances inf: the first point, as in the fit
            i = int(np.argmin((a - a0) ** 2 + (b - b0) ** 2))
        a, b = float(a[i]), float(b[i])
    r = front_face_reflection(a, b)
    c = wrap_phase(cmath.phase(z) - cmath.phase(r))
    return a, b, c, math.sqrt(floor + data.step_count * (abs(r) - rho) ** 2)


def assert_matches_reference(fit, data, bounds, anchor):
    """The fit is reference_fit's bit for bit, and its norm that of the full residual."""
    eps = fit.permittivity
    got = (eps.real_part, eps.imag_part, fit.phase_offset, fit.residual_norm)
    assert got == reference_fit(data, bounds, anchor)
    full = float(np.linalg.norm(residuals(got[:3], data)))
    assert fit.residual_norm == pytest.approx(full, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("bounds", [FitBounds(), FitBounds(8.0, 1.0), FitBounds(4.0, 50.0),
                                    FitBounds(1.5, 1e-3)])
def test_fit_permittivity_matches_per_sweep_reference(bounds):
    # fit_permittivity is the one-row case of the stacked fit run_sweep uses
    rng = np.random.default_rng(77)
    for i in range(40):
        a = 1.0 + (bounds.a_max - 1.0) * rng.random() ** 2
        b = bounds.b_max * rng.random() ** 3
        c = float(rng.uniform(-math.pi, math.pi))
        noise = NoiseModel(seed=i) if i % 2 else NoiseModel.quiet()
        data = generate_dataset(ComplexPermittivity(a, b), c, 40, 1e-4, 79e9, noise)
        for anchor in ((a, b), (1.5, 0.01), (6.0, 1.0)):
            fit = fit_permittivity(data, bounds=bounds, starts=[anchor])
            assert_matches_reference(fit, data, bounds, anchor)


@pytest.mark.parametrize("bounds", [FitBounds(), FitBounds(8.0, 1.0), FitBounds(4.0, 50.0),
                                    FitBounds(1.5, 1e-3), FitBounds(1e6, 1e-6),
                                    FitBounds(1.01, 1e-2)])
def test_closed_form_box_ends_lie_on_the_family_and_their_edges(bounds):
    rng = np.random.default_rng(14)
    r_max = abs(front_face_reflection(*estimator_module._largest_reflection_corner(bounds)))
    r_top = abs(front_face_reflection(bounds.a_max, 0.0))  # from here on a = a_max is reached
    rhos = np.concatenate((rng.uniform(1e-3, 0.999 * r_max, 300),
                           rng.uniform(r_top, r_max, 100)))
    reached = 0
    for rho in rhos.tolist():
        big_c, big_r = (1.0 + rho * rho) / (1.0 - rho * rho), 2.0 * rho / (1.0 - rho * rho)
        at_1, at_a_max, at_b_0 = map(complex,
                                     estimator_module._box_ends(big_c, big_r, bounds.a_max))
        assert at_1.real == 1.0 and at_b_0.imag == 0.0
        ends = [at_1, at_b_0]
        if bounds.a_max <= at_b_0.real:
            assert at_a_max.real == bounds.a_max
            ends.append(at_a_max)
            reached += 1
        else:
            assert cmath.isnan(at_a_max)
        for eps in ends:
            assert eps.imag <= 0.0  # b >= 0
            # |(1 - s) / (1 + s)| as |1 - eps| / |1 + s|^2, with no cancellation near eps = 1
            r = abs(1.0 - eps) / abs(1.0 + cmath.sqrt(eps)) ** 2
            assert r == pytest.approx(rho, rel=1e-13)
    assert reached >= 100 or r_top == r_max  # they round alike for FitBounds(1e6, 1e-6)


@pytest.mark.parametrize("bounds, rho, anchor", [
    # the nearest stationary root lies inside the box, and a b = 0 edge root's distance
    # ties it within rounding: far anchors, and an anchor beside a thin box
    (FitBounds(), 0.47826252596611696, (4669367.225745604, 48.201748083832236)),
    (FitBounds(8.0, 1.0), 0.3622135200079993, (327711.04463919305, 0.9076977472362799)),
    (FitBounds(1.5, 1e-3), 1.0100112316126141e-11, (1.5, 0.0013316473844290377)),
    (FitBounds(1.5, 1e-3), 1.2711926531757983e-09, (2.999067547882238, 0.0004209778372244544)),
])
def test_near_tie_with_an_edge_root_matches_per_sweep_reference(bounds, rho, anchor):
    data = SdiDataset(rho * np.exp(0.3j - 1j * C1_79GHZ * np.arange(40)), 1e-4, 79e9)
    fit = fit_permittivity(data, bounds=bounds, starts=[anchor])
    assert_matches_reference(fit, data, bounds, anchor)


@pytest.mark.parametrize("anchor", [(1.5, 0.01), (7.0, 0.3)])
def test_huge_box_near_unit_rho_stays_on_the_family(anchor):
    # with a_max = 1e300, C + R is about 2e12 at rho = 1 - 1e-12, and the stationary roots
    # near w = -1 square to an eps with no digits left; they must not pass as feasible
    bounds, rho = FitBounds(1e300, 50.0), 1.0 - 1e-12
    data = SdiDataset(rho * np.exp(0.3j - 1j * C1_79GHZ * np.arange(40)), 1e-4, 79e9)
    fit = fit_permittivity(data, bounds=bounds, starts=[anchor])
    eps = fit.permittivity
    assert abs(front_face_reflection(eps.real_part, eps.imag_part)) == pytest.approx(rho,
                                                                                    rel=1e-9)
    assert_matches_reference(fit, data, bounds, anchor)


def family_top_b(rho):
    """The largest b on the b >= 0 half of the family |r| = rho, by golden-section search.

    b = -Im (C + R e^{j theta})^2 has one maximum for theta in (-pi, 0).
    """
    big_c, big_r = (1.0 + rho * rho) / (1.0 - rho * rho), 2.0 * rho / (1.0 - rho * rho)

    def b(theta):
        return -((big_c + big_r * cmath.exp(1j * theta)) ** 2).imag

    lo, hi, golden = -math.pi, 0.0, (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        left, right = hi - golden * (hi - lo), lo + golden * (hi - lo)
        lo, hi = (left, hi) if b(left) < b(right) else (lo, right)
    return b((lo + hi) / 2.0)


def rho_with_top(target):
    """The rho whose family's top b is target, by bisection in log rho."""
    lo, hi = -99.0, math.log10(1.0 - 1e-12)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if family_top_b(10.0**mid) < target else (lo, mid)
    return 10.0**lo


def sweep_with_mean_near(rho, c, rng):
    """A 40-step sweep whose derotated mean z* lies near rho e^{jc}.

    Samples below the 1e-12 floor would make the sweep degenerate, so for a tiny rho
    the sweep is a unit sample pair whose derotated products cancel exactly in the
    mean's first sums, plus one sample that carries 40 rho.
    """
    d = np.exp(1j * C1_79GHZ * np.arange(40))
    if rho >= 1e-11:
        noise = 1.0 + 1e-4 * (rng.standard_normal(40) + 1j * rng.standard_normal(40))
        return rho * np.exp(1j * c) * d.conj() * noise
    gammas = np.zeros(40, dtype=complex)
    gammas[1], gammas[2] = d[1].conj(), 40.0 * rho * np.exp(1j * c) * d[2].conj()
    gammas[0] = -(gammas * d)[1]
    return gammas


@pytest.mark.parametrize("bounds", [FitBounds(), FitBounds(8.0, 1.0), FitBounds(1.5, 1e-3),
                                    FitBounds(1e6, 1e-6), FitBounds(1e300, 50.0),
                                    FitBounds(100.0, 1e300)])
def test_fit_matches_two_quartic_reference_over_a_corpus(bounds):
    # a family whose top b lies below b_max / 2 skips its b = b_max quartic; every fit and
    # error must still be the two-quartic reference's, alone and in one stacked call
    rng = np.random.default_rng(28)
    rhos = [10.0 ** -rng.uniform(0.0, 99.0) for _ in range(24)]
    rhos += [1.0 - 10.0 ** -rng.uniform(1.0, 12.0) for _ in range(8)] + [1e-99, 1.0 - 1e-12]
    for target in (bounds.b_max / 2, bounds.b_max):  # where reached below |r| = 1 - 1e-12
        if target < family_top_b(1.0 - 1e-12):
            rhos += [rho_with_top(target) * (1.0 + step) for step in (-1e-6, -1e-12, 1e-12, 1e-6)]
    anchors = [(1.5, 0.0), (40.0, 0.0), (2.0, bounds.b_max * (1.0 - 1e-9)),
               (1.5, 0.01), (1e7, 3.0), (3.0, 1e13)]
    data = [SdiDataset(sweep_with_mean_near(rho, rng.uniform(-math.pi, math.pi), rng),
                       1e-4, 79e9) for rho in rhos]
    rows, expected = [], []
    for sweep in data:
        for anchor in anchors:
            try:
                want = reference_fit(sweep, bounds, anchor)
            except InfeasibleFitError as exc:
                want = str(exc)
            try:
                fit = fit_permittivity(sweep, bounds=bounds, starts=[anchor])
                eps = fit.permittivity
                got = (eps.real_part, eps.imag_part, fit.phase_offset, fit.residual_norm)
            except InfeasibleFitError as exc:
                got = str(exc)
            assert got == want
            rows.append((sweep.gammas, anchor))
            expected.append(want)
    gammas, row_anchors = np.array([g for g, _ in rows]), [anchor for _, anchor in rows]
    stacked = estimator_module._fit_rows(gammas, C1_79GHZ, row_anchors, bounds)
    assert [fit if isinstance(fit, tuple) else str(fit) for fit in stacked] == expected
    # the corpus holds a tiny |z*| and failing fits
    assert min(abs(np.mean(g * np.exp(1j * C1_79GHZ * np.arange(40)))) for g in gammas) < 1e-90
    assert any(isinstance(want, str) for want in expected)


class TestFitPermittivity:
    def test_seeded_noiseless_recovery(self):
        data = quiet_dataset(3.0, 0.15, 0.5)
        fit = fit_permittivity(data, starts=[(3.0, 0.15, 0.5)])
        assert fit.converged
        assert fit.permittivity.real_part == pytest.approx(3.0, abs=1e-6)
        assert fit.permittivity.imag_part == pytest.approx(0.15, abs=1e-6)
        assert fit.phase_offset == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("a,b", [(2.0, 0.1), (3.0, 0.15), (7.0, 0.3)])
    def test_reference_materials_round_trip(self, a, b):
        data = quiet_dataset(a, b, -0.8)
        fit = fit_permittivity(data, starts=[(a, b, -0.8)])
        assert fit.permittivity.real_part == pytest.approx(a, abs=1e-6)
        assert fit.permittivity.imag_part == pytest.approx(b, abs=1e-6)

    def test_auto_start_reaches_zero_residual(self):
        data = quiet_dataset(2.6, 0.1, 0.5)
        fit = fit_permittivity(data)
        assert fit.converged
        assert fit.residual_norm <= 1e-8
        model = model_gamma(
            fit.permittivity.real_part,
            fit.permittivity.imag_part,
            fit.phase_offset,
            np.arange(data.step_count),
            data.step_phase,
        )
        np.testing.assert_allclose(model, data.gammas, atol=1e-9)

    def test_lossless_boundary_recovery(self):
        data = quiet_dataset(3.0, 0.0, 0.2)
        fit = fit_permittivity(data, starts=[(3.0, 0.0, 0.2)])
        assert fit.permittivity.imag_part == pytest.approx(0.0, abs=1e-8)
        assert fit.permittivity.real_part == pytest.approx(3.0, abs=1e-6)

    def test_degenerate_data_raises(self):
        data = SdiDataset(np.zeros(10, dtype=complex) + 1e-15, 1e-4, 79e9)
        with pytest.raises(DegenerateDataError):
            fit_permittivity(data)

    def test_deterministic(self):
        data = generate_dataset(
            ComplexPermittivity(2.6, 0.1), 0.9, 40, 1e-4, 79e9, NoiseModel(seed=5)
        )
        f1 = fit_permittivity(data)
        f2 = fit_permittivity(data)
        assert f1.permittivity == f2.permittivity
        assert f1.phase_offset == f2.phase_offset
        assert f1.residual_norm == f2.residual_norm
        assert f1.iterations == f2.iterations

    def test_phase_offset_reported_wrapped(self):
        data = quiet_dataset(2.6, 0.1, 3.0)
        fit = fit_permittivity(data, starts=[(2.6, 0.1, 3.0 + 2 * math.pi)])
        assert -math.pi <= fit.phase_offset < math.pi
        assert fit.phase_offset == pytest.approx(3.0, abs=1e-6)

    def test_rejects_bad_start_policy(self):
        data = quiet_dataset(2.6, 0.1, 0.0)
        with pytest.raises(ValueError):
            fit_permittivity(data, starts="magic")
        with pytest.raises(ValueError):
            fit_permittivity(data, starts=[])

    def test_row_without_feasible_root_is_an_error(self, monkeypatch):
        # w = -1 maps to eps = ((1 - rho) / (1 + rho))^2 < 1, outside the box, and so does
        # a = 0.25; a masked argmin over the stack would return such a point unnoticed.
        # Each feasible arc holds a closed-form end, so the ends are moved out too.
        real_roots, real_ends = estimator_module._unit_circle_roots, estimator_module._box_ends
        off_box = {"row": 1}
        rows_seen = []

        def roots(quartics):
            # one call holds the stationary quartic of every row; no family of these
            # rows reaches the default b_max, so none solves a b = b_max quartic
            w = real_roots(quartics).reshape(-1, 4)
            w[off_box["row"]] = -1.0
            return w.ravel()

        def ends(*circle):
            rows_seen.append(circle)
            return (0.25,) * 3 if len(rows_seen) - 1 == off_box["row"] else real_ends(*circle)

        monkeypatch.setattr(estimator_module, "_unit_circle_roots", roots)
        monkeypatch.setattr(estimator_module, "_box_ends", ends)
        noise = NoiseModel(seed=3)
        report = run_sweep([ComplexPermittivity(2.6, 0.1)], noise, trials=3)
        errors = [r.error for r in report.records]
        assert errors[0] is None and errors[2] is None
        assert re.fullmatch(r"InfeasibleFitError: no root of the family \|r\| = \S+ in the box",
                            errors[1])
        off_box["row"] = 0
        rows_seen.clear()
        with pytest.raises(InfeasibleFitError):
            fit_permittivity(quiet_dataset(2.6, 0.1, 0.0))
        monkeypatch.undo()
        clean = run_sweep([ComplexPermittivity(2.6, 0.1)], noise, trials=3).to_dict()["records"]
        patched = report.to_dict()["records"]
        assert [patched[i] for i in (0, 2)] == [clean[i] for i in (0, 2)]

    def test_fit_on_the_b_zero_edge_reports_positive_zero(self):
        # from the anchor (3, 0) the nearest member of 2.6 - j0.1's family is on b = 0,
        # where b = -eps.imag of a real eps would be -0.0
        fit = fit_permittivity(quiet_dataset(2.6, 0.1, 0.0), starts=[(3.0, 0.0)])
        b = fit.permittivity.imag_part
        assert b == 0.0 and math.copysign(1.0, b) == 1.0
        report = run_sweep([ComplexPermittivity(3.0, 0.0)], NoiseModel(seed=3), trials=4)
        assert [math.copysign(1.0, r.fitted_b) for r in report.records] == [1.0] * 4

    def test_overflowing_quartics_are_an_error(self):
        # |r| near 2.5e-11 against a_max = 1e300 overflowed the middle coefficient of an
        # a = a_max quartic; that end is now closed-form, so the fit is the a_max = 1e6 one
        data = quiet_dataset(1.0 + 1e-10, 0.0, 0.3)
        fit = fit_permittivity(data, bounds=FitBounds(1e6, 50.0))
        assert fit_permittivity(data, bounds=FitBounds(1e300, 50.0)) == fit
        # a far anchor still overflows the stationary quartic, which used to reach
        # eigvals as numpy's LinAlgError
        with pytest.raises(InfeasibleFitError, match="overflow for this anchor and box"):
            fit_permittivity(data, starts=[(1e308, 0.0)])


    @pytest.mark.parametrize("scale, message", [(1e200, "the residual norm overflows"),
                                                (1e308, "the sweep mean overflows")])
    def test_overflowing_samples_are_an_error(self, scale, message):
        # 40 samples of |Gamma| near 0.23 times 1e308 sum past the float range
        data = quiet_dataset(2.6, 0.1, 0.3)
        huge = SdiDataset(data.gammas * scale, data.step, data.carrier)
        with pytest.raises(InfeasibleFitError, match=message):
            fit_permittivity(huge)
        rows = estimator_module._fit_rows(np.vstack([huge.gammas] * 2), huge.step_phase,
                                          [(1.5, 0.01)] * 2, FitBounds())
        assert [str(e) for e in rows] == [message] * 2

    @pytest.mark.parametrize("scale", [1e154, 1e160])
    def test_on_model_sweep_with_an_overflowing_norm_is_an_error(self, scale):
        # the floor about z* is ~0, but |Gamma|^2 = floor + M |z*|^2 overflows
        data = SdiDataset(scale * np.exp(-1j * C1_79GHZ * np.arange(40)), 1e-4, 79e9)
        with pytest.raises(InfeasibleFitError, match="the residual norm overflows"):
            fit_permittivity(data)

class TestFitIdeal:
    # thick lossy slab: internal bounces are fully absorbed, so the
    # front-face reflection is a smooth, invertible function of eps
    GEOM = SlabGeometry(thickness=0.1, standoff=0.25, backing=METAL)
    FREQ = 79e9

    def ideal_sweep(self, eps, standoff_error=0.0, m_count=12, step=1e-4):
        face = effective_reflection(eps, self.GEOM, self.FREQ)
        k1 = 2 * math.pi * self.FREQ / SPEED_OF_LIGHT
        m = np.arange(m_count)
        true_standoff = self.GEOM.standoff + standoff_error
        return face * np.exp(2j * k1 * (true_standoff + m * step))

    def test_blind_recovery_known_geometry(self):
        eps = ComplexPermittivity(3.0, 0.3)
        gammas = self.ideal_sweep(eps)
        fit = fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ)
        assert fit.converged
        assert fit.permittivity.real_part == pytest.approx(3.0, abs=1e-6)
        assert fit.permittivity.imag_part == pytest.approx(0.3, abs=1e-6)
        assert fit.phase_offset == 0.0
        # exact data: the solve stops at its gradient tolerance about 1e-11 from
        # the truth, which leaves a residual norm of about 2.4e-12
        assert fit.residual_norm < 1e-10

    def test_standoff_error_biases_fit(self):
        # 50 um of unmodeled standoff shifts every sample by ~9.5 deg of
        # round-trip phase, which the model cannot absorb
        eps = ComplexPermittivity(3.0, 0.3)
        k1 = 2 * math.pi * self.FREQ / SPEED_OF_LIGHT
        phase_err = math.degrees(2 * k1 * 50e-6)
        assert phase_err == pytest.approx(9.5, abs=0.05)
        gammas = self.ideal_sweep(eps, standoff_error=50e-6)
        fit = fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ)
        bias = abs(fit.permittivity.real_part - 3.0) + abs(
            fit.permittivity.imag_part - 0.3
        )
        assert bias > 0.01

    def test_air_data_degenerate(self):
        with pytest.raises(DegenerateDataError):
            fit_ideal(np.zeros(8, dtype=complex), self.GEOM, 1e-4, self.FREQ)

    def test_rejects_an_empty_sweep(self):
        # refused before numpy reduces it, which would warn "Mean of empty slice"
        with pytest.raises(ValueError, match="must be 1-D and not empty"):
            fit_ideal([], self.GEOM, 1e-4, self.FREQ)

    @pytest.mark.parametrize("scale, on_model", [(1e154, True), (1e160, True),
                                                 (1e200, False), (1e300, False)])
    def test_overflowing_samples_are_an_error(self, scale, on_model):
        # on-model Gamma = s p_m (floor ~0, M |z*|^2 overflows) or a constant sweep
        k1 = 2 * math.pi * self.FREQ / SPEED_OF_LIGHT
        p = np.exp(2j * k1 * (self.GEOM.standoff + np.arange(12) * 1e-4))
        gammas = scale * (p if on_model else np.ones(12))
        with pytest.raises(InfeasibleFitError, match="the residual norm overflows"):
            fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ)

    @pytest.mark.xfail(strict=True, reason="|F - z*|^2 is below the ulp of M |z*|^2, so every "
                       "step is rejected until the step tolerance fires (ROADMAP item 6)")
    def test_huge_on_model_sweep_does_not_return_its_first_start(self):
        # at 1e12 p_m the fit moves to about 2.02 - j0; at 1e16 p_m it returns
        # AUTO_STARTS[0] = 1.5 - j0.01 unchanged and reports it converged
        geom = SlabGeometry(thickness=0.002, standoff=0.25, backing=METAL)
        k1 = 2 * math.pi * self.FREQ / SPEED_OF_LIGHT
        p = np.exp(2j * k1 * (geom.standoff + np.arange(12) * 1e-4))
        fit = fit_ideal(1e16 * p, geom, 1e-4, self.FREQ)
        eps = fit.permittivity
        assert not (fit.converged and (eps.real_part, eps.imag_part) == (1.5, 0.01))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.1, -math.inf)])
    def test_rejects_non_finite(self, bad):
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        gammas[5] = bad
        with pytest.raises(ValueError, match="reflection samples must be finite"):
            fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ)

    @pytest.mark.parametrize("step, freq, match", [
        (math.nan, 79e9, "step must be finite"),
        (math.inf, 79e9, "step must be finite"),
        (-math.inf, 79e9, "step must be finite"),
        (1e-4, math.inf, "freq must be finite and > 0"),
        (1e-4, math.nan, "freq must be finite and > 0"),
        (1e-4, 0.0, "freq must be finite and > 0"),
        (1e-4, -79e9, "freq must be finite and > 0"),
        # refused before numpy's phase vector meets an infinite wavenumber
        (1e-4, 1e308, r"carrier 1e\+308 Hz overflows its wavenumber"),
    ])
    def test_rejects_non_finite_step_or_freq(self, step, freq, match):
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        with pytest.raises(ValueError, match=match):
            fit_ideal(gammas, self.GEOM, step, freq)

    @pytest.mark.parametrize("step, standoff", [(1e306, 0.25), (-1e306, 0.25), (1e-4, 1e306),
                                                (8e307, 0.25)])
    def test_rejects_a_step_whose_phase_overflows(self, step, standoff):
        # numpy's phase vector 2 k1 (l + m dl) overflowed with a RuntimeWarning
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        with pytest.raises(ValueError, match="^step must be finite with a finite phase 2 k1 "):
            fit_ideal(gammas, SlabGeometry(2e-3, standoff), step, self.FREQ)

    def test_rejects_a_slab_whose_phase_overflows(self):
        # cmath.exp raised a bare "math domain error" from the first start
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        with pytest.raises(ValueError, match=r"^slab thickness 1e\+306 m at carrier "):
            fit_ideal(gammas, SlabGeometry(1e306, 0.25), 1e-4, self.FREQ)

    @pytest.mark.parametrize("start", [(1e300, 0.0), (1e300, 1.0)])
    def test_rejects_a_start_whose_in_slab_phase_overflows(self, start):
        # k0 n overflows at the start: a lossless slab's F came out nan, and the
        # fit ended in "real part must be finite and >= 1, got nan"
        gammas = np.full(12, 0.3 + 0.1j)
        with pytest.raises(ValueError, match=r"^slab thickness 0.001 m at carrier 1e\+307 Hz "):
            fit_ideal(gammas, SlabGeometry(1e-3, 0.25), 1e-4, 1e307,
                      bounds=FitBounds(1e301, 2.0), starts=[start])

    def test_rejects_gammas_that_are_not_one_dimensional(self):
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3)).reshape(3, 4)
        with pytest.raises(ValueError, match="must be 1-D"):
            fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ)

    def test_negative_step_is_a_stage_moving_toward_the_radar(self):
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3), step=-1e-4)
        fit = fit_ideal(gammas, self.GEOM, -1e-4, self.FREQ)
        assert fit.permittivity.real_part == pytest.approx(3.0, abs=1e-6)
        assert fit.permittivity.imag_part == pytest.approx(0.3, abs=1e-6)

    def test_uses_the_a_b_of_a_three_number_start(self):
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        fit = fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ, starts=[(2, 0.1, 0.3)])
        assert fit.converged
        assert fit.permittivity.real_part == pytest.approx(3.0, abs=1e-6)
        assert fit.permittivity.imag_part == pytest.approx(0.3, abs=1e-6)

    def test_rejects_non_finite_start(self):
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        with pytest.raises(ValueError, match="finite numbers"):
            fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ, starts=[(math.nan, 0.1)])

    def test_a_start_after_the_provable_winner_never_runs(self, monkeypatch):
        # exact data: start 0 ends within the tie band of sqrt(floor), so the
        # starts after it are not solved and the raising start 1 is never asked
        solve = estimator_module.least_squares_trf
        x0s = []

        def late_raising_solve(point, x0, lb, ub):
            x0s.append(tuple(x0))
            if tuple(x0) == estimator_module.AUTO_STARTS[1]:
                raise RuntimeError("start 1 ran")
            return solve(point, x0, lb, ub)

        monkeypatch.setattr(estimator_module, "least_squares_trf", late_raising_solve)
        fit = fit_ideal(self.ideal_sweep(ComplexPermittivity(3.0, 0.3)), self.GEOM, 1e-4,
                        self.FREQ)
        assert x0s == [estimator_module.AUTO_STARTS[0]]
        assert fit.permittivity.real_part == pytest.approx(3.0, abs=1e-6)

    @pytest.mark.parametrize("over_floor, solved", [(0.5, 1), (2.0, 2)])
    def test_the_stop_band_is_the_tie_band(self, monkeypatch, over_floor, solved):
        # start 0 is moved to over_floor tie bands above sqrt(floor) ~ 0 of exact
        # data: inside the band it wins at once, outside it start 1 runs and wins
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        band = 1e-9 * (1.0 + np.linalg.norm(gammas))
        solve = estimator_module.least_squares_trf
        x0s = []

        def raised_first_solve(point, x0, lb, ub):
            x0s.append(tuple(x0))
            result = solve(point, x0, lb, ub)
            if len(x0s) == 1:
                result.cost = 0.5 * (over_floor * band) ** 2
            return result

        monkeypatch.setattr(estimator_module, "least_squares_trf", raised_first_solve)
        fit = fit_ideal(gammas, self.GEOM, 1e-4, self.FREQ)
        assert x0s == list(estimator_module.AUTO_STARTS[:solved])
        assert (fit.residual_norm > 0.1 * band) == (solved == 1)  # start 0 won

    def test_a_late_start_raises_when_no_start_reaches_the_floor(self, monkeypatch):
        # the box ends below the truth 3 - j0.3, so no start reaches sqrt(floor),
        # every start runs, and start 5's error propagates as it always did
        solve = estimator_module.least_squares_trf
        x0s = []

        def late_raising_solve(point, x0, lb, ub):
            x0s.append(tuple(x0))
            if tuple(x0) == estimator_module.AUTO_STARTS[5]:
                raise RuntimeError("start 5 ran")
            return solve(point, x0, lb, ub)

        monkeypatch.setattr(estimator_module, "least_squares_trf", late_raising_solve)
        with pytest.raises(RuntimeError, match="start 5 ran"):
            fit_ideal(self.ideal_sweep(ComplexPermittivity(3.0, 0.3)), self.GEOM, 1e-4,
                      self.FREQ, bounds=FitBounds(2.0, 0.1))
        assert x0s == list(estimator_module.AUTO_STARTS[:6])

    def test_the_stop_waits_for_a_converged_start(self, monkeypatch):
        # start 0 reaches sqrt(floor) but reports no convergence: the fit solves on
        # to the first converged start and, as with every start solved, start 0 wins
        solve = estimator_module.least_squares_trf
        x0s = []

        def capped_first_solves(point, x0, lb, ub):
            x0s.append(tuple(x0))
            result = solve(point, x0, lb, ub)
            result.converged = len(x0s) > 2
            return result

        monkeypatch.setattr(estimator_module, "least_squares_trf", capped_first_solves)
        fit = fit_ideal(self.ideal_sweep(ComplexPermittivity(3.0, 0.3)), self.GEOM, 1e-4,
                        self.FREQ)
        assert x0s == list(estimator_module.AUTO_STARTS[:3])
        assert not fit.converged
        assert fit.permittivity.real_part == pytest.approx(3.0, abs=1e-6)

    def test_no_converged_start_raises(self, monkeypatch):
        solve = estimator_module.least_squares_trf

        def capped_solve(*args, **kwargs):
            result = solve(*args, **kwargs)
            result.converged = False
            return result

        monkeypatch.setattr(estimator_module, "least_squares_trf", capped_solve)
        with pytest.raises(NoConvergenceError, match="no start converged"):
            fit_ideal(self.ideal_sweep(ComplexPermittivity(3.0, 0.3)), self.GEOM, 1e-4,
                      self.FREQ)


    @pytest.mark.parametrize("x, match", [
        ((math.nan, 0.1), "real part"), ((0.5, 0.1), "real part"), ((math.inf, 0.1), "real part"),
        ((2.0, math.nan), "loss part"), ((2.0, -0.1), "loss part"), ((2.0, math.inf), "loss part"),
    ])
    def test_residual_refuses_a_point_outside_the_passive_box(self, monkeypatch, x, match):
        # trf keeps its points in the box, but one that is not, such as a nan
        # step, ends in ComplexPermittivity's error, not in a value of F
        solve = estimator_module.least_squares_trf

        def probing_solve(point, x0, lb, ub):
            with pytest.raises(ValueError, match=match):
                point(*x)
            return solve(point, x0, lb, ub)

        monkeypatch.setattr(estimator_module, "least_squares_trf", probing_solve)
        fit_ideal(self.ideal_sweep(ComplexPermittivity(3.0, 0.3)), self.GEOM, 1e-4, self.FREQ)


class TestFitIdealThinSlabs:
    """Thin metal-backed slabs, where the internal bounces stay strong."""

    TRUTHS = ((2.0, 0.1), (3.0, 0.15), (7.0, 0.3))  # the paper's Fig. 5 materials
    FREQ = 79e9
    STEP = 1e-4
    STANDOFF = 0.25
    M = 40

    def test_noisy_auto_start_fits_as_well_as_the_truth(self):
        noise = NoiseModel()
        rng = np.random.default_rng(5001)
        k1 = 2 * math.pi * self.FREQ / SPEED_OF_LIGHT
        m = np.arange(self.M)
        for i in range(12):
            truth = ComplexPermittivity(*self.TRUTHS[i % 3])
            geom = SlabGeometry(float(rng.uniform(1e-3, 5e-3)), self.STANDOFF, METAL)
            clean = effective_reflection(truth, geom, self.FREQ) * np.exp(
                2j * k1 * (self.STANDOFF + m * self.STEP)
            )
            amp = (1.0 + noise.amplitude_drift_rel * m / (self.M - 1)
                   + noise.amplitude_rel_sigma * rng.standard_normal(self.M))
            gammas = clean * amp * np.exp(1j * noise.phase_sigma * rng.standard_normal(self.M))
            fit = fit_ideal(gammas, geom, self.STEP, self.FREQ, starts="auto")
            truth_res = float(np.linalg.norm(gammas - clean))
            assert fit.converged, (i, geom.thickness)
            assert fit.residual_norm <= truth_res * (1 + 1e-9) + 1e-9, (i, geom.thickness)


def thin_slab_sweeps(seed, count, backing):
    """TestFitIdealThinSlabs's noisy sweeps (its corpus for METAL and seed 5001) on any backing."""
    cls = TestFitIdealThinSlabs
    noise = NoiseModel()
    rng = np.random.default_rng(seed)
    k1 = 2 * math.pi * cls.FREQ / SPEED_OF_LIGHT
    m = np.arange(cls.M)
    for i in range(count):
        truth = ComplexPermittivity(*cls.TRUTHS[i % 3])
        geom = SlabGeometry(float(rng.uniform(1e-3, 5e-3)), cls.STANDOFF, backing)
        clean = effective_reflection(truth, geom, cls.FREQ) * np.exp(
            2j * k1 * (cls.STANDOFF + m * cls.STEP)
        )
        amp = (1.0 + noise.amplitude_drift_rel * m / (cls.M - 1)
               + noise.amplitude_rel_sigma * rng.standard_normal(cls.M))
        yield geom, clean * amp * np.exp(1j * noise.phase_sigma * rng.standard_normal(cls.M))


def recorded_fit_ideal(gammas, geom, step, freq, **kwargs):
    """fit_ideal, the (x0, result) of each solve it ran, and its problem (point, lb, ub)."""
    solve = estimator_module.least_squares_trf
    solved, problem = [], []

    def recording_solve(point, x0, lb, ub):
        problem[:] = [point, lb, ub]
        result = solve(point, x0, lb, ub)
        solved.append((tuple(x0), result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimator_module, "least_squares_trf", recording_solve)
        fit = fit_ideal(gammas, geom, step, freq, **kwargs)
    return fit, solved, tuple(problem)


def floor_and_data_norm(gammas, geom, step, freq):
    """fit_ideal's floor |Gamma - z* p|^2 and ||Gamma||, from _reduce on its derotation."""
    k1 = 2.0 * math.pi * freq / SPEED_OF_LIGHT
    phase = np.exp(2j * k1 * (geom.standoff + np.arange(gammas.size) * step))
    _, (rho,), (floor_sq,), _ = estimator_module._reduce(gammas[None], phase.conj())
    return floor_sq, math.sqrt(floor_sq + gammas.size * rho * rho)


def every_start_fit(problem, starts, floor_sq, data_norm):
    """Every start solved with least_squares_trf, then _pick_winner on all the norms."""
    point, lb, ub = problem
    runs = [estimator_module.least_squares_trf(point, s0[:2], lb, ub) for s0 in starts]
    if not any(r.converged for r in runs):
        raise NoConvergenceError("no start converged within the iteration cap")
    norms = [math.sqrt(floor_sq + 2.0 * r.cost) for r in runs]
    best = estimator_module._pick_winner(norms, data_norm)
    win = runs[best]
    return best, FitResult(ComplexPermittivity(*win.x), phase_offset=0.0,
                           residual_norm=norms[best], iterations=win.iterations,
                           converged=win.converged)


def fit_bits(fit):
    eps = fit.permittivity
    return (eps.real_part.hex(), eps.imag_part.hex(), fit.phase_offset.hex(),
            fit.residual_norm.hex(), fit.iterations, fit.converged)


def stopping_corpus():
    """300 noisy thin-slab sweeps on three backings, some scaled 1.3x, boxed tight or
    fitted from explicit starts; the clamped ones leave every start above sqrt(floor)."""
    explicit = [(7.0, 0.3), (2.0, 0.1, 0.5), (12.0, 0.5)]
    for backing, seed in ((METAL, 5001), (AIR, 5011), (ComplexPermittivity(4.0, 0.4), 5021)):
        for i, (geom, gammas) in enumerate(thin_slab_sweeps(seed, 100, backing)):
            bounds = FitBounds(2.5, 0.12) if i % 5 == 4 else FitBounds()
            yield (geom, gammas * 1.3 if i % 10 == 3 else gammas, bounds,
                   explicit if i % 7 == 6 else "auto")


def test_fit_ideal_solves_a_prefix_of_its_starts_up_to_the_provable_winner():
    # no norm sqrt(floor + 2 cost) lies below sqrt(floor): the fit stops after the
    # first solve whose winner so far is within the tie band of it, once a start
    # has converged, and runs all its starts when none gets there
    step, freq = TestFitIdealThinSlabs.STEP, TestFitIdealThinSlabs.FREQ
    solved_counts = set()
    for geom, gammas, bounds, starts in stopping_corpus():
        fit, solved, _ = recorded_fit_ideal(gammas, geom, step, freq, bounds=bounds,
                                            starts=starts)
        start_list = estimator_module._start_list(starts)
        x0s = [x0 for x0, _ in solved]
        assert x0s == [s0[:2] for s0 in start_list[:len(x0s)]]
        floor_sq, data_norm = floor_and_data_norm(gammas, geom, step, freq)
        settled = math.sqrt(floor_sq) + 1e-9 * (1.0 + data_norm)
        norms = [math.sqrt(floor_sq + 2.0 * r.cost) for _, r in solved]
        stops = []
        for k in range(1, len(solved) + 1):
            best = estimator_module._pick_winner(norms[:k], data_norm)
            stops.append(norms[best] <= settled and any(r.converged for _, r in solved[:k]))
        assert not any(stops[:-1])
        assert stops[-1] or len(solved) == len(start_list)
        solved_counts.add((len(solved), stops[-1]))
    # stops after start 0, after a later start, and runs that never reach the band
    assert {(1, True), (8, False)} <= solved_counts
    assert any(count > 1 and stopped for count, stopped in solved_counts)


def test_fit_ideal_equals_solving_every_start_bit_for_bit():
    step, freq = TestFitIdealThinSlabs.STEP, TestFitIdealThinSlabs.FREQ
    winners, all_solved = set(), 0
    for geom, gammas, bounds, starts in stopping_corpus():
        fit, solved, problem = recorded_fit_ideal(gammas, geom, step, freq, bounds=bounds,
                                                  starts=starts)
        start_list = estimator_module._start_list(starts)
        best, expected = every_start_fit(problem, start_list,
                                          *floor_and_data_norm(gammas, geom, step, freq))
        assert fit_bits(fit) == fit_bits(expected)
        winners.add(best)
        all_solved += len(solved) == len(start_list) == len(estimator_module.AUTO_STARTS)
    assert max(winners) >= 2
    assert all_solved >= 10


@pytest.mark.parametrize("backing, seed", [(METAL, 5001), (AIR, 5011),
                                           (ComplexPermittivity(4.0, 0.4), 5021)])
def test_fit_ideal_agrees_with_a_lapack_step_solve(backing, seed):
    # trf takes each damped step as a diagonal solve on Python floats; with
    # the general loop on numpy's BLAS products and LAPACK solve in its
    # place, fit_ideal's residual solved from every auto start ends at the
    # same norm to rounding, and the winners agree. Bit identity is not asked
    # for: BLAS may fuse multiply-adds, and LAPACK on another CPU may round differently
    step, freq = TestFitIdealThinSlabs.STEP, TestFitIdealThinSlabs.FREQ
    for geom, gammas in thin_slab_sweeps(seed, 12, backing):
        fit, _, (point, lb, ub) = recorded_fit_ideal(gammas, geom, step, freq)
        floor_sq, data_norm = floor_and_data_norm(gammas, geom, step, freq)
        norms, lapack_norms, lapack_xs = [], [], []
        for x0 in estimator_module.AUTO_STARTS:
            res = estimator_module.least_squares_trf(point, x0, lb, ub)
            lapack = reference_least_squares_trf(*real_form(point), x0, lb, ub, NUMPY_LAPACK)
            norms.append(math.sqrt(floor_sq + 2.0 * res.cost))
            lapack_norms.append(math.sqrt(floor_sq + 2.0 * lapack.cost))
            lapack_xs.append(lapack.x)
            assert norms[-1] == pytest.approx(lapack_norms[-1], rel=1e-12)
        best = estimator_module._pick_winner(lapack_norms, data_norm)
        assert fit.permittivity.real_part == pytest.approx(lapack_xs[best][0], abs=1e-9)
        assert fit.permittivity.imag_part == pytest.approx(lapack_xs[best][1], abs=1e-9)
        assert fit.residual_norm == pytest.approx(lapack_norms[best], rel=1e-12)


@pytest.mark.parametrize("backing, seed, index, expected", [
    (METAL, 5001, 0, ("0x1.000702bd9a67dp+1", "0x1.9143354581f23p-4", "0x1.38a19f18ca6d7p-4", 7)),
    (METAL, 5002, 1, ("0x1.55975114ce1d0p+0", "0x1.0a879c0e24f58p-4", "0x1.1b9a3ce98b129p-4", 6)),
    (ComplexPermittivity(4.0, 0.4), 5021, 0,
     ("0x1.ffa3fa554f053p+0", "0x1.8326817fca1e8p-4", "0x1.68c2c49958e39p-6", 12)),
], ids=["metal-5001", "metal-5002", "backed-5021"])
def test_fit_ideal_is_the_same_double_arithmetic_on_every_cpu(backing, seed, index, expected):
    # trf's steps are IEEE double arithmetic on Python floats, with no BLAS
    # kernel to fuse or reorder operations, so a fit's bits are pinned here
    # and CI runs this on a second CPU architecture. The sweep, the numpy
    # reductions that give z* and em's complex algebra are outside that:
    # they go through numpy's kernels and the C library's exp, sin and cos.
    # On an x86-64 Xeon, the last bits of these three fits differ from those
    # of the same loop with its dot products taken by OpenBLAS, which fuses
    # multiply-adds
    geom, gammas = list(thin_slab_sweeps(seed, index + 1, backing))[index]
    fit = fit_ideal(gammas, geom, TestFitIdealThinSlabs.STEP, TestFitIdealThinSlabs.FREQ)
    assert (fit.permittivity.real_part.hex(), fit.permittivity.imag_part.hex(),
            fit.residual_norm.hex(), fit.iterations) == expected


def full_residual_fit_ideal(gammas, geom, step, freq, starts, bounds=FitBounds()):
    """Reference: fit_ideal on the 2M-sample residual with a finite-difference Jacobian.

    Returns the winning (a, b) and the residual norm there; the winner
    rule is fit_ideal's, on the norms of the full residual.
    """
    k1 = 2 * math.pi * freq / SPEED_OF_LIGHT
    phase = np.exp(2j * k1 * (geom.standoff + np.arange(gammas.size) * step))
    lb = np.array([1.0, 0.0])
    ub = np.array([bounds.a_max, bounds.b_max])

    def fun(x):
        face = effective_reflection(ComplexPermittivity(x[0], x[1]), geom, freq)
        return (gammas - face * phase).view(float)

    runs = [reference_least_squares_trf(fun, lambda x: numerical_jacobian(fun, x, lb, ub),
                                        s0[:2], lb, ub) for s0 in starts]
    norms = [math.sqrt(2 * r.cost) for r in runs]
    band = 1e-9 * (1 + np.linalg.norm(gammas))
    win = next(r for r, rn in zip(runs, norms) if rn <= min(norms) + band)
    return win.x, float(np.linalg.norm(fun(win.x)))


class TestFitIdealReducedResidual:
    """fit_ideal's two-number residual against the full M-sample formulation."""

    FREQ = 79e9
    STEP = 1e-4
    M = 40
    BACKINGS = (METAL, ComplexPermittivity(4.0, 0.4))

    def noisy_sweeps(self, seed, count):
        noise = NoiseModel()
        rng = np.random.default_rng(seed)
        k1 = 2 * math.pi * self.FREQ / SPEED_OF_LIGHT
        m = np.arange(self.M)
        for i in range(count):
            truth = ComplexPermittivity(*TestFitIdealThinSlabs.TRUTHS[i % 3])
            geom = SlabGeometry(float(rng.uniform(1e-3, 5e-3)), 0.25, self.BACKINGS[i % 2])
            clean = effective_reflection(truth, geom, self.FREQ) * np.exp(
                2j * k1 * (geom.standoff + m * self.STEP)
            )
            amp = (1.0 + noise.amplitude_drift_rel * m / (self.M - 1)
                   + noise.amplitude_rel_sigma * rng.standard_normal(self.M))
            yield geom, clean * amp * np.exp(1j * noise.phase_sigma * rng.standard_normal(self.M))

    @pytest.mark.parametrize("starts", ["auto", [(7.0, 0.3), (2.0, 0.1, 0.5)]])
    def test_matches_the_full_residual_fit(self, starts):
        start_list = estimator_module.AUTO_STARTS if starts == "auto" else starts
        for geom, gammas in self.noisy_sweeps(6001, 8):
            fit = fit_ideal(gammas, geom, self.STEP, self.FREQ, starts=starts)
            x, residual_norm = full_residual_fit_ideal(
                gammas, geom, self.STEP, self.FREQ, start_list)
            assert fit.permittivity.real_part == pytest.approx(x[0], abs=1e-6)
            assert fit.permittivity.imag_part == pytest.approx(x[1], abs=1e-6)
            assert fit.residual_norm == pytest.approx(residual_norm, rel=1e-9)

    def test_objective_splits_into_floor_and_two_number_residual(self):
        # |Gamma - F p|^2 = |Gamma - z* p|^2 + M |F - z*|^2, z* = mean Gamma conj(p)
        k1 = 2 * math.pi * self.FREQ / SPEED_OF_LIGHT
        phase = np.exp(2j * k1 * (0.25 + np.arange(self.M) * self.STEP))
        rng = np.random.default_rng(6002)
        for geom, gammas in self.noisy_sweeps(6003, 6):
            z = np.mean(gammas * phase.conj())
            floor = np.sum(np.abs(gammas - z * phase) ** 2)
            for a, b in zip(rng.uniform(1, 20, 5), rng.uniform(0, 2, 5)):
                face = effective_reflection(ComplexPermittivity(a, b), geom, self.FREQ)
                full = np.sum(np.abs(gammas - face * phase) ** 2)
                assert floor + self.M * abs(face - z) ** 2 == pytest.approx(full, rel=1e-12)


@pytest.mark.parametrize(
    "bad", [(2,), (2, 0.1, 0.3, 1), (math.nan, 0.1), (2.0, math.inf, 0.0), 2.0, ("x", 1)]
)
def test_fit_permittivity_rejects_malformed_start(bad):
    data = quiet_dataset(2.6, 0.1, 0.0)
    msg = f"2 or 3 finite numbers, (a, b) or (a, b, c); got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        fit_permittivity(data, starts=[bad])


class TestPhaseSlopeDiagnostic:
    def test_noiseless_analytic_slope(self):
        data = quiet_dataset(2.6, 0.1, 0.0)
        slope, r2 = phase_slope_diagnostic(data)
        assert slope == pytest.approx(-189.73, abs=0.05)
        assert r2 >= 1 - 1e-9

    def test_constant_phase_raises(self):
        data = SdiDataset(np.full(10, 0.5 + 0.0j), 1e-4, 79e9)
        with pytest.raises(DegenerateRegressionError):
            phase_slope_diagnostic(data)


def test_wrap_phase_range():
    for c in np.linspace(-20, 20, 101):
        w = wrap_phase(float(c))
        assert -math.pi <= w < math.pi
        assert abs(math.remainder(w - c, 2 * math.pi)) < 1e-12


def test_fit_bounds_validation():
    with pytest.raises(ValueError):
        FitBounds(a_max=1.0)
    with pytest.raises(ValueError):
        FitBounds(b_max=0.0)
    with pytest.raises(ValueError, match="a_max must be finite"):
        FitBounds(a_max=math.inf)
    with pytest.raises(ValueError, match="b_max must be finite"):
        FitBounds(b_max=math.inf)
