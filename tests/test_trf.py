"""Bounded Levenberg-Marquardt least-squares solver on known problems."""

import itertools
import math

import numpy as np
import pytest

from permslab import METAL, SPEED_OF_LIGHT, ComplexPermittivity, SlabGeometry, effective_reflection
from permslab import estimator, fit_ideal, trf
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
    solve = trf._solve

    def recording_solve(A, b):
        systems.append((np.array(A), np.array(b)))
        return solve(A, b)

    monkeypatch.setattr(trf, "_solve", recording_solve)
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
    assert all(solve(A.tolist(), b.tolist())[0] == 0.0
               for (A, b), p in zip(systems, pinned) if p)
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


def reference_projected_gradient_norm(x, g, lb, ub) -> float:
    """The all-numpy projected-gradient norm the solver's float loop must reproduce."""
    return float(np.abs(x - np.minimum(np.maximum(x - g, lb), ub)).max())


def reference_least_squares_trf(fun, jac, x0, lb, ub):
    """The all-numpy loop the float loop of trf replaced, kept as its bit-for-bit oracle.

    Its one step solve is trf._solve, the solve the float loop runs.
    """
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    f = np.asarray(fun(x), dtype=float)
    J = np.asarray(jac(x), dtype=float)
    cost = 0.5 * float(f @ f)
    g, JtJ = J.T @ f, J.T @ J
    eye = np.eye(x.size)
    lam = 1e-3 * float(JtJ.diagonal().max())
    growth = 2.0
    converged = False
    iteration = 0

    while True:
        if reference_projected_gradient_norm(x, g, lb, ub) < trf._GTOL:
            converged = True
            break
        if iteration >= trf._MAX_ITER:
            break
        iteration += 1
        free = ~(((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0)))
        A = np.where(free & free[:, None], JtJ + lam * eye, eye)
        p = np.array(trf._solve(A.tolist(), (-g * free).tolist()))
        x_new = np.minimum(np.maximum(x + p, lb), ub)
        step = x_new - x
        f_new = np.asarray(fun(x_new), dtype=float)
        cost_new = 0.5 * float(f_new @ f_new)
        small_step = math.sqrt(step @ step) < trf._XTOL * (trf._XTOL + math.sqrt(x @ x))

        if cost_new < cost:  # False for a non-finite residual
            predicted = -float(g @ step + 0.5 * (step @ JtJ @ step))
            rho = min((cost - cost_new) / predicted, 1.0) if predicted > 0 else 0.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            growth = 2.0
            x, f, cost = x_new, f_new, cost_new
            J = np.asarray(jac(x), dtype=float)
            g, JtJ = J.T @ f, J.T @ J
        else:
            lam *= growth
            growth *= 2.0

        if small_step:
            converged = True
            break

    return trf.LeastSquaresResult(x=x, cost=cost, iterations=iteration, converged=converged)


def assert_same_result(res, ref):
    assert isinstance(res.x, np.ndarray)
    assert res.x.tobytes() == ref.x.tobytes()
    assert float(res.cost).hex() == float(ref.cost).hex()
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)


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
def test_float_loop_matches_numpy_loop_bit_for_bit(name):
    fun, jac, x0, lb, ub = PROBLEMS[name]()
    assert_same_result(least_squares_trf(fun, jac, x0, lb, ub),
                       reference_least_squares_trf(fun, jac, x0, lb, ub))


def test_float_loop_matches_numpy_loop_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(trf, "_GTOL", 0.0)
    monkeypatch.setattr(trf, "_XTOL", 0.0)
    monkeypatch.setattr(trf, "_MAX_ITER", 2)
    problem = (lambda x: np.array([x[0] ** 2 + 1.0, x[0] - 3.0]),
               lambda x: np.array([[2 * x[0]], [1.0]]),
               np.array([50.0]), np.array([-INF]), np.array([INF]))
    res = least_squares_trf(*problem)
    assert not res.converged
    assert_same_result(res, reference_least_squares_trf(*problem))


def thin_slab_sweep(seed, backing):
    """A seeded noisy 40-step sweep of a 1-5 mm slab at a Fig. 5 truth, and its geometry."""
    rng = np.random.default_rng(seed)
    geom = SlabGeometry(float(rng.uniform(1e-3, 5e-3)), 0.25, backing)
    truth = ComplexPermittivity(*((2.0, 0.1), (3.0, 0.15), (7.0, 0.3))[seed])
    m = np.arange(40)
    phase = np.exp(2j * (2.0 * np.pi * 79e9 / SPEED_OF_LIGHT) * (0.25 + m * 1e-4))
    noise = (1.0 + 5e-4 * rng.standard_normal(40)) * np.exp(0.014j * rng.standard_normal(40))
    return effective_reflection(truth, geom, 79e9) * phase * noise, geom


@pytest.mark.parametrize("backing", [METAL, ComplexPermittivity(4.0, 0.4)])
@pytest.mark.parametrize("seed", range(3))
def test_fit_ideal_starts_match_numpy_loop_bit_for_bit(monkeypatch, backing, seed):
    # fit_ideal's reduced residual sqrt(M) (F - z*) from every auto start
    gammas, geom = thin_slab_sweep(seed, backing)
    x0s = []
    solve = estimator.least_squares_trf

    def checked_solve(fun, jac, x0, lb, ub):
        ref = reference_least_squares_trf(fun, jac, x0, lb, ub)
        res = solve(fun, jac, x0, lb, ub)
        assert_same_result(res, ref)
        x0s.append(tuple(x0))
        return res

    monkeypatch.setattr(estimator, "least_squares_trf", checked_solve)
    fit_ideal(gammas, geom, 1e-4, 79e9)
    assert x0s == list(estimator.AUTO_STARTS)


@pytest.mark.parametrize("name", [*sorted(PROBLEMS), "fit_ideal"])
def test_jac_is_called_only_at_the_latest_fun_point(monkeypatch, name):
    # fit_ideal's jac reuses the F' of the point its fun saw last
    at_latest = []

    def watched_solve(fun, jac, x0, lb, ub):
        latest = []

        def watched_fun(x):
            latest[:] = [x.tobytes()]
            return fun(x)

        def watched_jac(x):
            at_latest.append(x.tobytes() == latest[0])
            return jac(x)

        return least_squares_trf(watched_fun, watched_jac, x0, lb, ub)

    if name == "fit_ideal":
        monkeypatch.setattr(estimator, "least_squares_trf", watched_solve)
        gammas, geom = thin_slab_sweep(1, METAL)
        fit_ideal(gammas, geom, 1e-4, 79e9)
    else:
        watched_solve(*PROBLEMS[name]())
    assert at_latest and all(at_latest)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_trial_is_rejected_and_damping_grows(monkeypatch, bad):
    # f = 1/(2 - x) - 1 is 0 at x = 1; the nearly undamped step from 0 lands
    # near x = 2, and from x = 1.5 on fun returns a non-finite residual
    systems = []
    solve = trf._solve

    def recording_solve(A, b):
        systems.append((np.array(A), np.array(b)))
        return solve(A, b)

    monkeypatch.setattr(trf, "_solve", recording_solve)
    trials, jac_points = [], []

    def fun(x):
        trials.append(float(x[0]))
        return np.array([1.0 / (2.0 - x[0]) - 1.0 if x[0] < 1.5 else bad])

    def jac(x):
        jac_points.append(float(x[0]))
        return np.array([[1.0 / (2.0 - x[0]) ** 2]])

    res = least_squares_trf(fun, jac, np.array([0.0]), np.array([-INF]), np.array([INF]))
    assert trials[1] >= 1.5  # the first trial step went past the finite region
    # no non-finite point is ever accepted: jac runs only at accepted points
    assert all(x < 1.5 for x in jac_points) and np.isfinite(res.cost)
    # the rejected trials reuse their point's J^T J and right-hand side with a growing lam
    rejected = [i for i, x in enumerate(trials[1:]) if x >= 1.5]
    assert rejected == list(range(len(rejected))) and len(rejected) >= 2
    diagonals = [A[0, 0] for A, _ in systems[: len(rejected) + 1]]
    assert diagonals == sorted(set(diagonals))
    assert len({b.tobytes() for _, b in systems[: len(rejected) + 1]}) == 1
    assert res.converged
    assert res.x[0] == pytest.approx(1.0, abs=1e-9)
    assert_same_result(res, reference_least_squares_trf(
        fun, jac, np.array([0.0]), np.array([-INF]), np.array([INF])))


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


def damped_system(H, g, lam, free):
    """The system of a least_squares_trf step: a pinned row is the identity's, 0 on the right."""
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
        p = trf._solve([row[:] for row in A], b[:])
        assert all(pi == 0.0 for pi, f in zip(p, free) if not f)
        assert np.linalg.norm(np.array(p) - lapack) <= bound * np.linalg.norm(lapack), (A, b)
        count += 1
    assert count == 2 * 25 * (2 + 4 + 8)


def test_solve_of_an_overflowed_damping_is_non_finite():
    # lam = inf puts inf on the free diagonal and, as lam * 0, nan off it;
    # with two or more free variables the free step is non-finite, as
    # numpy's is, so least_squares_trf rejects the trial; a pinned one stays 0
    H = [[2.0, 0.5, -0.3], [0.5, 1.0, 0.2], [-0.3, 0.2, 3.0]]
    g = [0.7, -0.4, 0.1]
    for free in itertools.product((True, False), repeat=3):
        if sum(free) < 2:
            continue
        A, b = damped_system(H, g, INF, free)
        lapack = np.linalg.solve(np.array(A), np.array(b))
        p = trf._solve(A, b)
        assert not np.isfinite([pi for pi, f in zip(p, free) if f]).any()
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
    # np.linalg.solve raises on these exactly singular systems; _solve takes
    # a zero pivot as nan, so every component it reaches is nan and the rest
    # are solved as before
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(np.array(A), np.array(b))
    p = trf._solve([row[:] for row in A], b[:])
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
    # the step solve is IEEE double arithmetic on Python floats, with no BLAS
    # or LAPACK kernel to pick fused or reordered operations, so its bits are
    # pinned here and CI runs this on a second CPU architecture
    assert [pi.hex() for pi in trf._solve(A, b)] == expected
