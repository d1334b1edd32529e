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
from permslab.trf import least_squares_trf, numerical_jacobian
from permslab.errors import (
    AliasingError,
    DegenerateDataError,
    DegenerateRegressionError,
    InfeasibleFitError,
    NoConvergenceError,
)

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

    Returns (a, b, c, residual norm) as fit_permittivity must, bit for bit.
    """
    if np.all(np.abs(data.gammas) < 1e-12):
        raise DegenerateDataError("all reflection samples below 1e-12")
    m = np.arange(data.step_count)
    z = complex(np.mean(data.gammas * np.exp(1j * data.step_phase * m)))
    rho = abs(z)
    corner = estimator_module._largest_reflection_corner(bounds)
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
            *([1, k, 2 * (big_c * big_c - e) / big_r**2, k, 1] for e in (1.0, bounds.a_max)),
            *([1, k, 2j * e / big_r**2, -k, -1] for e in (0.0, bounds.b_max)),
        ], dtype=complex)
        eps = (big_c + big_r * estimator_module._unit_circle_roots(quartics)) ** 2
        a, b = eps.real, -eps.imag
        tol = 1e-13 * (big_c + big_r) ** 2
        ok = (a > 1.0 - tol) & (a < bounds.a_max + tol) & (b > -tol) & (b < bounds.b_max + tol)
        a = np.clip(a[ok], 1.0, bounds.a_max)
        b = np.clip(b[ok], 0.0, bounds.b_max)
        i = int(np.argmin((a - a0) ** 2 + (b - b0) ** 2))
        a, b = float(a[i]), float(b[i])
    c = wrap_phase(cmath.phase(z) - cmath.phase(front_face_reflection(a, b)))
    return a, b, c, float(np.linalg.norm(residuals((a, b, c), data)))


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
            eps = fit.permittivity
            got = (eps.real_part, eps.imag_part, fit.phase_offset, fit.residual_norm)
            assert got == reference_fit(data, bounds, anchor)


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
    eps = fit.permittivity
    got = (eps.real_part, eps.imag_part, fit.phase_offset, fit.residual_norm)
    assert got == reference_fit(data, bounds, anchor)


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
        # w = -1 maps to eps = ((1 - rho) / (1 + rho))^2 < 1, outside the box;
        # a masked argmin over the stack would return such a root unnoticed
        real_roots = estimator_module._unit_circle_roots
        off_box = {"row": 1}

        def roots(quartics):
            # the first call holds one stationary quartic per row; the second only the
            # box-edge quartics of rows whose stationary roots left the box, here the forced row
            w = real_roots(quartics).reshape(len(quartics), 4)
            w[off_box.pop("row", slice(None))] = -1.0
            return w.ravel()

        monkeypatch.setattr(estimator_module, "_unit_circle_roots", roots)
        noise = NoiseModel(seed=3)
        report = run_sweep([ComplexPermittivity(2.6, 0.1)], noise, trials=3)
        errors = [r.error for r in report.records]
        assert errors[0] is None and errors[2] is None
        assert re.fullmatch(r"InfeasibleFitError: no root of the family \|r\| = \S+ in the box",
                            errors[1])
        off_box["row"] = 0
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
        # |r| near 2.5e-11 against a_max = 1e300: an a_max edge coefficient
        # overflows, which used to reach eigvals as numpy's LinAlgError
        data = quiet_dataset(1.0 + 1e-10, 0.0, 0.3)
        fit_permittivity(data, bounds=FitBounds(1e6, 50.0))
        with pytest.raises(InfeasibleFitError, match="overflow"):
            fit_permittivity(data, bounds=FitBounds(1e300, 50.0))
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
    ])
    def test_rejects_non_finite_step_or_freq(self, step, freq, match):
        gammas = self.ideal_sweep(ComplexPermittivity(3.0, 0.3))
        with pytest.raises(ValueError, match=match):
            fit_ideal(gammas, self.GEOM, step, freq)

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

    def test_auto_starts_run_one_solve_each(self, monkeypatch):
        # the benchmark's tracer counts one useful start in len(AUTO_STARTS)
        x0s = []
        solve = estimator_module.least_squares_trf

        def counting_solve(fun, jac, x0, *args, **kwargs):
            x0s.append(tuple(x0))
            return solve(fun, jac, x0, *args, **kwargs)

        monkeypatch.setattr(estimator_module, "least_squares_trf", counting_solve)
        fit_ideal(self.ideal_sweep(ComplexPermittivity(3.0, 0.3)), self.GEOM, 1e-4, self.FREQ)
        assert x0s == list(estimator_module.AUTO_STARTS)

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

    runs = [least_squares_trf(fun, lambda x: numerical_jacobian(fun, x, lb, ub),
                              np.array(s0[:2], dtype=float), lb, ub) for s0 in starts]
    norms = [math.sqrt(2 * r.cost) for r in runs]
    band = 1e-9 * (1 + np.linalg.norm(gammas))
    win = next(r for r, rn in zip(runs, norms) if rn <= min(norms) + band)
    return win.x, float(np.linalg.norm(win.residual))


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
