"""Bounded Levenberg-Marquardt least-squares solver on known problems."""

import numpy as np
import pytest

from permslab import trf
from permslab.trf import (
    least_squares_trf,
    numerical_jacobian,
    projected_gradient_norm,
)

INF = np.inf


def gradient(fun, jac, x):
    """J^T f at x, the gradient of 0.5*|f|^2."""
    return jac(x).T @ fun(x)


def test_linear_unbounded_matches_normal_equations():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    expected = np.linalg.lstsq(A, y, rcond=None)[0]

    res = least_squares_trf(
        lambda x: A @ x - y,
        lambda x: A,
        np.zeros(3),
        np.array([-INF] * 3),
        np.array([INF] * 3),
    )
    assert res.converged
    np.testing.assert_allclose(res.x, expected, atol=1e-10)


def test_bounded_projection_problem():
    # min |x - t|^2 with t outside the box: solution is the clipped target
    t = np.array([5.0, -3.0, 0.4])
    lb = np.array([0.0, 0.0, 0.0])
    ub = np.array([1.0, 1.0, 1.0])
    res = least_squares_trf(
        lambda x: x - t, lambda x: np.eye(3), np.array([0.5, 0.5, 0.5]), lb, ub
    )
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 0.0, 0.4], atol=1e-9)


def test_nonlinear_exponential_recovery():
    t = np.linspace(0.0, 2.0, 25)
    truth = np.array([2.0, 1.3])
    y = truth[0] * np.exp(-truth[1] * t)

    def fun(x):
        return x[0] * np.exp(-x[1] * t) - y

    def jac(x):
        return np.column_stack([np.exp(-x[1] * t), -x[0] * t * np.exp(-x[1] * t)])

    res = least_squares_trf(
        fun, jac, np.array([1.0, 0.1]), np.array([0.0, 0.0]), np.array([10.0, 10.0])
    )
    assert res.converged
    np.testing.assert_allclose(res.x, truth, atol=1e-8)


def test_active_lower_bound_solution():
    # unconstrained optimum at x = -1; bound forces x = 0
    fun, jac = lambda x: np.array([x[0] + 1.0]), lambda x: np.array([[1.0]])
    lb, ub = np.array([0.0]), np.array([INF])
    res = least_squares_trf(fun, jac, np.array([0.7]), lb, ub)
    assert res.converged
    assert res.x[0] == pytest.approx(0.0, abs=1e-9)
    assert projected_gradient_norm(res.x, gradient(fun, jac, res.x), lb, ub) < 1e-9


def test_rank_deficient_problem_converges():
    # residual depends only on x0 + x1: a flat valley
    rng = np.random.default_rng(2)
    A = rng.standard_normal((15, 1))
    y = rng.standard_normal(15)

    def fun(x):
        return (A @ np.array([[x[0] + x[1]]])).ravel() - y

    def jac(x):
        return np.column_stack([A.ravel(), A.ravel()])

    res = least_squares_trf(
        fun, jac, np.array([0.0, 0.0]), np.array([-INF, -INF]), np.array([INF, INF])
    )
    # the flat direction leaves x underdetermined; the cost must still
    # reach the analytic optimum
    t_best = np.linalg.lstsq(A, y, rcond=None)[0][0]
    cost_best = 0.5 * np.sum((A.ravel() * t_best - y) ** 2)
    assert res.converged
    assert res.cost == pytest.approx(cost_best, rel=1e-12)


def test_iteration_cap_reports_not_converged(monkeypatch):
    monkeypatch.setattr(trf, "_GTOL", 0.0)
    monkeypatch.setattr(trf, "_XTOL", 0.0)
    monkeypatch.setattr(trf, "_MAX_ITER", 2)
    res = least_squares_trf(
        lambda x: np.array([x[0] ** 2 + 1.0, x[0] - 3.0]),
        lambda x: np.array([[2 * x[0]], [1.0]]),
        np.array([50.0]),
        np.array([-INF]),
        np.array([INF]),
    )
    assert not res.converged
    assert res.iterations == 2


def test_start_on_bound_with_outward_gradient_stays_pinned():
    # unconstrained optimum at x = -1; the start sits on the lower bound
    res = least_squares_trf(
        lambda x: np.array([x[0] + 1.0]),
        lambda x: np.array([[1.0]]),
        np.array([0.0]),
        np.array([0.0]),
        np.array([INF]),
    )
    assert res.converged
    assert res.x[0] == 0.0
    assert res.cost == pytest.approx(0.5, rel=1e-15)


def test_one_variable_pinned_the_other_free():
    # coupled quadratic: x0 wants to exceed its upper bound 1, x1 is free
    A = np.array([[2.0, 0.5], [0.5, 1.0], [0.0, 1.0]])
    y = np.array([6.0, 2.0, -1.0])
    lb = np.array([0.0, -INF])
    ub = np.array([1.0, INF])
    fun, jac = lambda x: A @ x - y, lambda x: A
    res = least_squares_trf(fun, jac, np.array([0.2, 0.0]), lb, ub)
    assert res.converged
    assert res.x[0] == 1.0
    # with x0 = 1 fixed, x1 solves the remaining 1-D least squares problem
    x1 = np.dot(A[:, 1], y - A[:, 0]) / np.dot(A[:, 1], A[:, 1])
    assert res.x[1] == pytest.approx(x1, abs=1e-10)
    assert projected_gradient_norm(res.x, gradient(fun, jac, res.x), lb, ub) < 1e-9


def test_variable_pinned_partway_with_rejected_steps(monkeypatch):
    # Rosenbrock with x0 <= 0.5: the path starts free, runs into the bound
    # and stays pinned there, and the damping rejects some trial steps,
    # which reuse the J^T J of their point
    systems = []
    solve = np.linalg.solve

    def recording_solve(A, b):
        systems.append((A.copy(), b.copy()))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", recording_solve)
    jac_points = []

    def jac(x):
        jac_points.append(x.copy())
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    def fun(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    lb = np.array([-5.0, -5.0])
    ub = np.array([0.5, 5.0])
    res = least_squares_trf(fun, jac, np.array([-1.2, 1.0]), lb, ub)
    assert res.converged
    assert res.x[0] == 0.5
    assert res.x[1] == pytest.approx(0.25, abs=1e-10)
    # x0 is free at first and pinned from some step on; a pinned x0 is
    # decoupled with a unit diagonal and a zero right-hand side, so its
    # step is exactly 0 and x1 solves its own damped equation
    pinned = [A[0, 1] == 0.0 and A[1, 0] == 0.0 and A[0, 0] == 1.0 and b[0] == 0.0
              for A, b in systems]
    assert not pinned[0] and pinned[-1] and pinned == sorted(pinned)
    assert all(solve(A, b)[0] == 0.0 for (A, b), p in zip(systems, pinned) if p)
    assert res.iterations > len(jac_points) - 1  # some trial steps were rejected
    assert projected_gradient_norm(res.x, gradient(fun, jac, res.x), lb, ub) < 1e-9


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
