"""Bounded Levenberg-Marquardt solver on holomorphic residuals with known answers.

Every solve is checked bit for bit against the general n-variable loop of
``trf_reference`` on the residual's real 2-vector form.
"""

import itertools

import numpy as np
import pytest
from permslab import METAL, SPEED_OF_LIGHT, ComplexPermittivity, SlabGeometry, effective_reflection
from permslab import estimator, fit_ideal, trf
from permslab.trf import least_squares_trf, numerical_jacobian

from trf_reference import (
    NUMPY_LAPACK,
    PLAIN_DOUBLES,
    assert_same_result,
    diagonal_gradient,
    plain_matmul,
    projected_gradient_norm,
    real_form,
    reference_least_squares_trf,
    reference_projected_gradient_norm,
)

INF = np.inf
LB, UB = (1.0, 0.0), (20.0, 2.0)  # fit_ideal's default box
ALPHA = 1.3 - 0.4j


def linear(optimum, alpha=ALPHA):
    """point(a, b) -> (f, df/da) of f = alpha (a - jb) - beta, 0 at (a, b) = optimum."""
    beta = alpha * complex(optimum[0], -optimum[1])
    return lambda a, b: (alpha * complex(a, -b) - beta, alpha)


def reference(point, x0, lb, ub):
    """The reference loop on the real 2-vector form of point's residual."""
    return reference_least_squares_trf(*real_form(point), x0, lb, ub)


def solve_checked(point, x0, lb, ub):
    """least_squares_trf, asserted bit for bit equal to the reference loop."""
    res = least_squares_trf(point, x0, lb, ub)
    assert_same_result(res, reference(point, x0, lb, ub))
    return res


def real_gradient(point, x):
    """J^T f of the real 2-vector form at x, the gradient of 0.5*|f|^2."""
    real_fun, real_jac = real_form(point)
    x = np.asarray(x, dtype=float)
    return real_jac(x).T @ real_fun(x)


def recording(point):
    """point, and the list of the (a, b) it is called at."""
    points = []

    def recorded(a, b):
        points.append((a, b))
        return point(a, b)

    return recorded, points


def test_linear_optimum_inside_the_box():
    point = linear((3.7, 0.2))
    res = solve_checked(point, (1.5, 0.01), LB, UB)
    assert res.converged
    np.testing.assert_allclose(res.x, [3.7, 0.2], atol=1e-10)
    assert res.cost < 1e-20


@pytest.mark.parametrize("optimum, expected, pinned", [
    ((3.7, -0.5), (3.7, 0.0), 1),  # b below its lower bound: an edge
    ((25.0, 0.8), (20.0, 0.8), 0),  # a above its upper bound: an edge
    ((0.4, 3.0), (1.0, 2.0), None),  # both out: a corner
], ids=["lower-edge", "upper-edge", "corner"])
def test_optimum_outside_the_box_is_projected(optimum, expected, pinned):
    # J^T J = |alpha|^2 I, so the cost is isotropic in (a, b) and the box
    # optimum is the unconstrained one clipped to the box
    point = linear(optimum)
    watched, points = recording(point)
    res = least_squares_trf(watched, (1.5, 0.01), LB, UB)
    assert_same_result(res, reference(point, (1.5, 0.01), LB, UB))
    assert res.converged
    bounds = [i for i in range(2) if pinned in (None, i)]
    assert all(res.x[i] == expected[i] for i in bounds)
    np.testing.assert_allclose(res.x, expected, atol=1e-10)
    assert projected_gradient_norm(res.x, real_gradient(point, res.x), LB, UB) < 1e-9
    # the start is free; once a trial reaches the bound, every later one stays on it
    first = next(k for k, x in enumerate(points) if all(x[i] == expected[i] for i in bounds))
    assert first > 0 and all(x[i] == expected[i] for x in points[first:] for i in bounds)


def test_start_on_bound_with_outward_gradient_stays_pinned():
    # the optimum has b = -0.5; the start sits on b = 0 with the gradient
    # pointing out of the box, so b steps by 0 at every trial
    point = linear((3.7, -0.5))
    assert real_gradient(point, (2.0, 0.0))[1] > 0
    watched, points = recording(point)
    res = least_squares_trf(watched, (2.0, 0.0), LB, UB)
    assert_same_result(res, reference(point, (2.0, 0.0), LB, UB))
    assert res.converged
    assert len(points) > 2 and all(x[1] == 0.0 for x in points)
    assert res.x[0] == pytest.approx(3.7, abs=1e-10)
    assert res.cost == pytest.approx(0.5 * abs(ALPHA) ** 2 * 0.25, rel=1e-12)


def test_iteration_cap_reports_not_converged(monkeypatch):
    monkeypatch.setattr(trf, "_GTOL", 0.0)
    monkeypatch.setattr(trf, "_XTOL", 0.0)
    monkeypatch.setattr(trf, "_MAX_ITER", 2)
    res = solve_checked(linear((3.7, 0.2)), (15.0, 1.9), LB, UB)
    assert not res.converged
    assert res.iterations == 2


def reciprocal(bad):
    """point of f = 1/(2 - eps) - 1, 0 at eps = 1 + j0; f and df/da are non-finite from a = 1.5."""
    def point(a, b):
        if a >= 1.5:
            return complex(bad, 0.0), complex(bad, 0.0)
        return 1.0 / (2.0 - complex(a, -b)) - 1.0, 1.0 / (2.0 - complex(a, -b)) ** 2

    return point


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trial_is_rejected_and_damping_grows(bad):
    # the nearly undamped step from a = 0 lands near a = 2, past the finite region
    point = reciprocal(bad)
    watched, trials = recording(point)
    lb, ub = (-INF, -INF), (INF, INF)
    res = least_squares_trf(watched, (0.0, 0.0), lb, ub)
    assert_same_result(res, reference(point, (0.0, 0.0), lb, ub))
    # no non-finite point is ever accepted
    assert np.isfinite(res.cost)
    rejected = [k for k, (a, _) in enumerate(trials[1:]) if a >= 1.5]
    assert rejected == list(range(len(rejected))) and len(rejected) >= 2
    # each rejected trial steps from a = 0 by -g / (H + lam) with the start's
    # g and H, and lam grows by 2, 4, 8, ...
    f, s = point(0.0, 0.0)
    g, H = diagonal_gradient(s, f)
    lams = [-g[0] / a - H for a, _ in trials[1: len(rejected) + 2]]
    assert [lams[k + 1] / lams[k] for k in range(len(rejected))] == pytest.approx(
        [2.0 ** (k + 1) for k in range(len(rejected))], rel=1e-6)
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-9) and res.x[1] == 0.0


PROBLEMS = {
    "inside": lambda: (linear((3.7, 0.2)), (1.5, 0.01), LB, UB),
    "corner": lambda: (linear((0.4, 3.0)), (1.5, 0.01), LB, UB),
    "start-pinned": lambda: (linear((3.7, -0.5)), (2.0, 0.0), LB, UB),
    "reciprocal": lambda: (reciprocal(np.nan), (0.0, 0.0), (-INF, -INF), (INF, INF)),
}


def thin_slab_sweep(seed, backing):
    """A seeded noisy 40-step sweep of a 1-5 mm slab at a Fig. 5 truth, and its geometry."""
    rng = np.random.default_rng(seed)
    geom = SlabGeometry(float(rng.uniform(1e-3, 5e-3)), 0.25, backing)
    truth = ComplexPermittivity(*((2.0, 0.1), (3.0, 0.15), (7.0, 0.3))[seed])
    m = np.arange(40)
    phase = np.exp(2j * (2.0 * np.pi * 79e9 / SPEED_OF_LIGHT) * (0.25 + m * 1e-4))
    noise = (1.0 + 5e-4 * rng.standard_normal(40)) * np.exp(0.014j * rng.standard_normal(40))
    return effective_reflection(truth, geom, 79e9) * phase * noise, geom


def fit_ideal_problem(monkeypatch, seed, backing):
    """fit_ideal's (point, lb, ub) on thin_slab_sweep(seed, backing): its reduced
    residual sqrt(M) (F - z*) with the slope sqrt(M) F', and its box."""
    gammas, geom = thin_slab_sweep(seed, backing)
    problem = []

    def capturing_solve(point, x0, lb, ub):
        problem[:] = [point, lb, ub]
        return least_squares_trf(point, x0, lb, ub)

    monkeypatch.setattr(estimator, "least_squares_trf", capturing_solve)
    fit_ideal(gammas, geom, 1e-4, 79e9)
    return problem


@pytest.mark.parametrize("name", [*PROBLEMS, "fit_ideal"])
def test_point_is_asked_once_at_the_start_and_once_per_trial(monkeypatch, name):
    # one call gives f and df/da: the start's, then one per trial step,
    # accepted or rejected, and none more
    if name == "fit_ideal":
        point, lb, ub = fit_ideal_problem(monkeypatch, 1, METAL)
        problems = [(point, x0, lb, ub) for x0 in estimator.AUTO_STARTS]
    else:
        problems = [PROBLEMS[name]()]
    for point, x0, lb, ub in problems:
        watched, points = recording(point)
        res = least_squares_trf(watched, x0, lb, ub)
        assert res.iterations > 0
        assert len(points) == 1 + res.iterations


@pytest.mark.parametrize("backing", [METAL, ComplexPermittivity(4.0, 0.4)])
@pytest.mark.parametrize("seed", range(3))
def test_fit_ideal_starts_match_the_reference_loop_bit_for_bit(monkeypatch, backing, seed):
    # fit_ideal's reduced residual sqrt(M) (F - z*) and its slope, solved from
    # every auto start, including those the fit itself stops before
    point, lb, ub = fit_ideal_problem(monkeypatch, seed, backing)
    for x0 in estimator.AUTO_STARTS:
        solve_checked(point, x0, lb, ub)


def test_reference_loop_solves_a_general_problem_with_either_linalg():
    # the oracle itself, on a real residual that is not holomorphic
    t = np.linspace(0.0, 2.0, 25)
    y = 2.0 * np.exp(-1.3 * t)

    def fun(x):
        return x[0] * np.exp(-x[1] * t) - y

    def jac(x):
        return np.column_stack([np.exp(-x[1] * t), -x[0] * t * np.exp(-x[1] * t)])

    for linalg in (PLAIN_DOUBLES, NUMPY_LAPACK):
        res = reference_least_squares_trf(fun, jac, (1.0, 0.1), (0.0, 0.0), (10.0, 10.0), linalg)
        assert res.converged
        np.testing.assert_allclose(res.x, [2.0, 1.3], atol=1e-8)


def test_plain_matmul_is_matmul_to_rounding():
    rng = np.random.default_rng(30)
    A, B, v = rng.standard_normal((5, 3)), rng.standard_normal((3, 4)), rng.standard_normal(3)
    for a, b in ((A, B), (A, v), (v, B), (v, v)):
        got = plain_matmul(a, b)
        assert np.shape(got) == np.shape(a @ b)
        np.testing.assert_allclose(got, a @ b, rtol=1e-14, atol=1e-14)


def test_numerical_jacobian_against_analytic():
    def fun(x):
        return np.array([np.sin(x[0]) * x[1], x[0] ** 2 - x[1]])

    x = np.array([0.7, 1.9])
    lb = np.array([-INF, -INF])
    ub = np.array([INF, INF])
    J = numerical_jacobian(fun, x, lb, ub)
    expected = np.array(
        [[np.cos(x[0]) * x[1], np.sin(x[0])], [2 * x[0], -1.0]]
    )
    np.testing.assert_allclose(J, expected, atol=1e-6)


def test_numerical_jacobian_one_sided_at_bound():
    def fun(x):
        return np.array([x[0] ** 2])

    x = np.array([0.0])
    J = numerical_jacobian(fun, x, np.array([0.0]), np.array([INF]))
    assert J[0, 0] == pytest.approx(0.0, abs=1e-5)


def test_numerical_jacobian_one_sided_at_upper_bound():
    def fun(x):
        return np.array([x[0] ** 2])

    x = np.array([1.0])
    J = numerical_jacobian(fun, x, np.array([-INF]), np.array([1.0]))
    assert J[0, 0] == pytest.approx(2.0, abs=1e-5)  # backward difference 2 - h


SPECIALS = (-INF, -1.5, -0.0, 0.0, 2.0, INF, np.nan)


def test_float_clip_picks_numpy_zeros_and_nans():
    # np.maximum and np.minimum return the second operand on a tie, so a
    # signed zero comes from the bound, and pass a nan from either side
    for v, lo, hi in itertools.product(SPECIALS, repeat=3):
        expected = np.minimum(np.maximum(np.array([v]), lo), hi)[0]
        assert np.array([trf._clip(v, lo, hi)]).tobytes() == np.array([expected]).tobytes()


@np.errstate(invalid="ignore")  # inf - inf
def test_projected_gradient_norm_matches_numpy_on_special_values():
    for x, g in itertools.product(itertools.product(SPECIALS, repeat=2), repeat=2):
        x, g = np.array(x), np.array(g)
        lb, ub = np.array([-1.5, 0.0]), np.array([2.0, INF])
        got = projected_gradient_norm(x, g, lb, ub)
        assert type(got) is float
        assert np.array([got]).tobytes() == np.array(
            [reference_projected_gradient_norm(x, g, lb, ub)]).tobytes()


@np.errstate(invalid="ignore", over="ignore")  # inf - inf and inf * 0 in the reference loop
def test_special_starts_match_the_reference_loop_bit_for_bit():
    # the loop's clip, pinning and projected-gradient test on two named
    # floats against numpy's on arrays: signed zeros, infinities and nans
    # (whose gradient test never passes) as starts, in three boxes; the
    # optimum (0.4, 3.0) lies outside two of them
    point = linear((0.4, 3.0))
    for x0 in itertools.product(SPECIALS, repeat=2):
        for lb, ub in ((LB, UB), ((-INF, -INF), (INF, INF)), ((-1.5, 0.0), (2.0, INF))):
            solve_checked(point, x0, lb, ub)
