"""The general bounded Levenberg-Marquardt loop of ``trf_reference`` on known problems.

``permslab.trf`` is checked bit for bit against this loop, so the loop
itself is checked here: on real residuals with known answers, with either
linear algebra, and its plain-double elimination against LAPACK.
"""

import itertools
import math

import numpy as np
import pytest
from permslab import trf
from permslab.trf import numerical_jacobian

from trf_reference import (
    NUMPY_LAPACK,
    PLAIN_DOUBLES,
    eliminate,
    plain_matmul,
    projected_gradient_norm,
    reference_least_squares_trf,
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

    res = reference_least_squares_trf(
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
    res = reference_least_squares_trf(
        lambda x: x - t, lambda x: np.eye(3), np.array([0.5, 0.5, 0.5]), lb, ub
    )
    assert res.converged
    np.testing.assert_allclose(res.x, [1.0, 0.0, 0.4], atol=1e-9)


def test_nonlinear_exponential_recovery():
    fun, jac, x0, lb, ub = _exponential()
    res = reference_least_squares_trf(fun, jac, x0, lb, ub)
    assert res.converged
    np.testing.assert_allclose(res.x, [2.0, 1.3], atol=1e-8)


def test_active_lower_bound_solution():
    # unconstrained optimum at x = -1; bound forces x = 0
    fun, jac = lambda x: np.array([x[0] + 1.0]), lambda x: np.array([[1.0]])
    lb, ub = np.array([0.0]), np.array([INF])
    res = reference_least_squares_trf(fun, jac, np.array([0.7]), lb, ub)
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

    res = reference_least_squares_trf(
        fun, jac, np.array([0.0, 0.0]), np.array([-INF, -INF]), np.array([INF, INF])
    )
    # the flat direction leaves x underdetermined; the cost must still
    # reach the analytic optimum
    t_best = np.linalg.lstsq(A, y, rcond=None)[0][0]
    cost_best = 0.5 * np.sum((A.ravel() * t_best - y) ** 2)
    assert res.converged
    assert res.cost == pytest.approx(cost_best, rel=1e-12)


def test_one_variable_pinned_the_other_free():
    # coupled quadratic: x0 wants to exceed its upper bound 1, x1 is free
    fun, jac, x0, lb, ub = _coupled_pinned()
    A, y = jac(x0), -fun(np.zeros(2))
    res = reference_least_squares_trf(fun, jac, x0, lb, ub)
    assert res.converged
    assert res.x[0] == 1.0
    # with x0 = 1 fixed, x1 solves the remaining 1-D least squares problem
    x1 = np.dot(A[:, 1], y - A[:, 0]) / np.dot(A[:, 1], A[:, 1])
    assert res.x[1] == pytest.approx(x1, abs=1e-10)
    assert projected_gradient_norm(res.x, gradient(fun, jac, res.x), lb, ub) < 1e-9


def test_variable_pinned_partway_with_rejected_steps():
    # Rosenbrock with x0 <= 0.5: the path starts free, runs into the bound
    # and stays pinned there, and the damping rejects some trial steps,
    # which reuse the J^T J of their point
    systems = []

    def recording_eliminate(A, b):
        systems.append((np.array(A), np.array(b)))
        return eliminate(A, b)

    fun, jac, x0, lb, ub = _rosenbrock_pinned()
    jac_points = []

    def recorded_jac(x):
        jac_points.append(x.copy())
        return jac(x)

    res = reference_least_squares_trf(fun, recorded_jac, x0, lb, ub,
                                      (plain_matmul, recording_eliminate))
    assert res.converged
    assert res.x[0] == 0.5
    assert res.x[1] == pytest.approx(0.25, abs=1e-10)
    # x0 is free at first and pinned from some step on; a pinned x0 is
    # decoupled with a unit diagonal and a zero right-hand side, so its
    # step is exactly 0 and x1 solves its own damped equation
    pinned = [A[0, 1] == 0.0 and A[1, 0] == 0.0 and A[0, 0] == 1.0 and b[0] == 0.0
              for A, b in systems]
    assert not pinned[0] and pinned[-1] and pinned == sorted(pinned)
    assert all(eliminate(A, b)[0] == 0.0 for (A, b), p in zip(systems, pinned) if p)
    assert res.iterations > len(jac_points) - 1  # some trial steps were rejected
    assert projected_gradient_norm(res.x, gradient(fun, jac, res.x), lb, ub) < 1e-9


def _exponential():
    t = np.linspace(0.0, 2.0, 25)
    y = 2.0 * np.exp(-1.3 * t)

    def fun(x):
        return x[0] * np.exp(-x[1] * t) - y

    def jac(x):
        return np.column_stack([np.exp(-x[1] * t), -x[0] * t * np.exp(-x[1] * t)])

    return fun, jac, np.array([1.0, 0.1]), np.array([0.0, 0.0]), np.array([10.0, 10.0])


def _rosenbrock_pinned():
    def fun(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jac(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    return fun, jac, np.array([-1.2, 1.0]), np.array([-5.0, -5.0]), np.array([0.5, 5.0])


def _linear(seed, rank_one):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((20, 3))
    if rank_one:
        A = np.column_stack([A[:, 0], A[:, 0]])
    y = rng.standard_normal(20)
    n = A.shape[1]
    return (lambda x: A @ x - y, lambda x: A, np.zeros(n),
            np.full(n, -INF), np.full(n, INF))


def _coupled_pinned():
    A = np.array([[2.0, 0.5], [0.5, 1.0], [0.0, 1.0]])
    y = np.array([6.0, 2.0, -1.0])
    return (lambda x: A @ x - y, lambda x: A, np.array([0.2, 0.0]),
            np.array([0.0, -INF]), np.array([1.0, INF]))


def _numerical_exponential():
    fun, _, x0, lb, ub = _exponential()
    return fun, lambda x: numerical_jacobian(fun, x, lb, ub), x0, lb, ub


# every problem the tests above solve, plus the finite-difference Jacobian path
PROBLEMS = {
    "linear": lambda: _linear(1, rank_one=False),
    "projection": lambda: (lambda x: x - np.array([5.0, -3.0, 0.4]), lambda x: np.eye(3),
                           np.array([0.5, 0.5, 0.5]), np.zeros(3), np.ones(3)),
    "exponential": _exponential,
    "active_lower_bound": lambda: (lambda x: np.array([x[0] + 1.0]), lambda x: np.array([[1.0]]),
                                   np.array([0.7]), np.array([0.0]), np.array([INF])),
    "rank_deficient": lambda: _linear(2, rank_one=True),
    "start_pinned": lambda: (lambda x: np.array([x[0] + 1.0]), lambda x: np.array([[1.0]]),
                             np.array([0.0]), np.array([0.0]), np.array([INF])),
    "one_pinned_one_free": _coupled_pinned,
    "rosenbrock_pinned": _rosenbrock_pinned,
    "numerical_jacobian": _numerical_exponential,
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_plain_double_loop_matches_numpy_loop(name):
    # the two linear algebras round differently but take the same path
    fun, jac, x0, lb, ub = PROBLEMS[name]()
    plain = reference_least_squares_trf(fun, jac, x0, lb, ub, PLAIN_DOUBLES)
    lapack = reference_least_squares_trf(fun, jac, x0, lb, ub, NUMPY_LAPACK)
    assert plain.converged
    assert (plain.iterations, plain.converged) == (lapack.iterations, lapack.converged)
    np.testing.assert_allclose(plain.x, lapack.x, rtol=1e-12, atol=1e-12)
    assert plain.cost == pytest.approx(lapack.cost, rel=1e-9, abs=1e-24)


@pytest.mark.parametrize("linalg", [PLAIN_DOUBLES, NUMPY_LAPACK], ids=["plain", "lapack"])
def test_iteration_cap_reports_not_converged(monkeypatch, linalg):
    monkeypatch.setattr(trf, "_GTOL", 0.0)
    monkeypatch.setattr(trf, "_XTOL", 0.0)
    monkeypatch.setattr(trf, "_MAX_ITER", 2)
    res = reference_least_squares_trf(
        lambda x: np.array([x[0] ** 2 + 1.0, x[0] - 3.0]),
        lambda x: np.array([[2 * x[0]], [1.0]]),
        np.array([50.0]),
        np.array([-INF]),
        np.array([INF]),
        linalg,
    )
    assert not res.converged
    assert res.iterations == 2


def damped_system(H, g, lam, free):
    """The system of a reference loop step: a pinned row is the identity's, 0 on the right."""
    ids = range(len(g))
    A = [[H[i][j] + lam * (i == j) if free[i] and free[j] else float(i == j) for j in ids]
         for i in ids]
    return A, [-g[i] * free[i] for i in ids]


def damped_systems():
    """Seeded damped systems: n = 1, 2, 3, a random and a rank-one J, lam
    from 1e-12 to 1e12 times J^T J's largest diagonal entry, every pinned pattern."""
    rng = np.random.default_rng(29)
    for n, rank_one in itertools.product((1, 2, 3), (False, True)):
        J = rng.standard_normal((20, n))
        if rank_one:
            J = np.outer(J[:, 0], rng.standard_normal(n))
        H, g = (J.T @ J).tolist(), (J.T @ rng.standard_normal(20)).tolist()
        patterns = list(itertools.product((True, False), repeat=n))
        for e, free in itertools.product(range(-12, 13), patterns):
            yield (*damped_system(H, g, 10.0 ** e * max(H[i][i] for i in range(n)), free), free)


def test_solve_matches_lapack_within_its_error_bound():
    # Both solves are backward stable (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., Thm 9.4): each solves (A + dA) p = b
    # exactly with |dA| <= 3n u |L||U| to first order. For a positive
    # definite A, || |L||U| ||_2 <= n ||A||_2 without pivoting (|L||U| is
    # |R^T||R| for the Cholesky factor R), and LAPACK's partial pivoting can
    # raise that by at most its growth factor, 2^(n-1) <= 4 for n <= 3. So
    # each step is within 4 * 3n^2 kappa_2(A) u of the exact one, relative,
    # and the two are within twice that of each other.
    u = np.finfo(float).eps / 2
    count = 0
    for A, b, free in damped_systems():
        n = len(b)
        lapack = np.linalg.solve(np.array(A), np.array(b))
        bound = 2 * 4 * 3 * n**2 * np.linalg.cond(np.array(A)) * u
        p = eliminate(A, b)
        assert all(pi == 0.0 for pi, f in zip(p, free) if not f)
        assert np.linalg.norm(p - lapack) <= bound * np.linalg.norm(lapack), (A, b)
        count += 1
    assert count == 2 * 25 * (2 + 4 + 8)


def test_solve_of_an_overflowed_damping_is_non_finite():
    # lam = inf puts inf on the free diagonal and, as lam * 0, nan off it;
    # with two or more free variables the free step is non-finite, as
    # numpy's is, so the reference loop rejects the trial; a pinned one stays 0
    H = [[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 3.0]]
    g = [0.7, -0.4, 0.1]
    for free in itertools.product((True, False), repeat=3):
        if sum(free) < 2:
            continue
        A, b = damped_system(H, g, INF, free)
        lapack = np.linalg.solve(np.array(A), np.array(b))
        p = eliminate(A, b)
        assert not np.isfinite(p[list(free)]).any()
        assert not np.isfinite(lapack[list(free)]).any()
        assert all(pi == 0.0 for pi, f in zip(p, free) if not f)


@pytest.mark.parametrize("A, b, nan", [
    ([[0.0]], [1.0], [True]),
    ([[0.0]], [0.0], [True]),
    ([[0.0, 0.0], [0.0, 0.0]], [0.0, 0.0], [True, True]),
    ([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], [True, True]),  # the second pivot becomes 0
    ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]], [1.0, 1.0, 0.0],
     [True, True, True]),  # a 0 pivot above a nonzero entry
    ([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]], [1.0, 0.0, 3.0],
     [True, False, True]),
    ([[2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [4.0, 1.0, 3.0], [False, True, False]),
])
def test_solve_zero_pivot_gives_nan_not_an_error(A, b, nan):
    # np.linalg.solve raises on these exactly singular systems; eliminate
    # takes a zero pivot as nan, so every component it reaches is nan and
    # the rest are solved as before
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array(A), np.array(b))
    p = eliminate(A, b)
    assert [math.isnan(pi) for pi in p] == nan
    assert all(pi == bi / A[i][i] for i, (pi, bi) in enumerate(zip(p, b)) if not nan[i])


@pytest.mark.parametrize("A, b, expected", [
    ([[3.0]], [1.0], ["0x1.5555555555555p-2"]),
    ([[0.7, 0.3], [0.3, 5.0]], [0.6, -1.3], ["0x1.fcff3fcff3fd1p-1", "-0x1.4751d4751d476p-2"]),
    ([[1.0 + 2**-30, 1.0], [1.0, 1.0 + 2**-30]], [0.3, 0.1],
     ["0x1.9999999ccccccp+26", "-0x1.9999998ffffffp+26"]),
    ([[4.1, 0.3, -0.2], [0.3, 2.7, 0.45], [-0.2, 0.45, 1.9]], [0.6, -1.3, 0.25],
     ["0x1.9a8efdf60c142p-3", "-0x1.1a1631499200fp-1", "0x1.21f7173d45cbbp-2"]),
    ([[4.1, 0.0, -0.2], [0.0, 1.0, 0.0], [-0.2, 0.0, 1.9]], [0.6, -0.0, 0.25],
     ["0x1.3a7793a7793a8p-3", "-0x0.0p+0", "0x1.2e9352e9352eap-3"]),
])
def test_solve_is_the_same_double_arithmetic_on_every_cpu(A, b, expected):
    # the oracle's step solve is IEEE double arithmetic on Python floats,
    # with no BLAS or LAPACK kernel to pick fused or reordered operations,
    # so its bits are pinned here and CI runs this on a second CPU architecture
    assert [float(pi).hex() for pi in eliminate(A, b)] == expected
