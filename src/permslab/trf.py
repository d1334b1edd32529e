"""Bound-constrained nonlinear least squares by a bounded Levenberg-Marquardt loop.

Dense, small-problem solver for min 0.5*|f(x)|^2 subject to
lb <= x <= ub. Each iteration fixes every variable that sits on a bound
with its gradient pointing out of the box, solves the damped normal
equations (J^T J + lam I) p = -g over the remaining free variables,
clips x + p to the box and accepts the step if the cost falls. The
damping follows Nielsen's update (Madsen, Nielsen & Tingleff, "Methods
for Non-Linear Least Squares Problems", 2004): an accepted step scales
lam by max(1/3, 1 - (2 rho - 1)^3), rho being the actual over the
predicted cost reduction; a rejected step, or one whose residual is not
finite, doubles lam, then quadruples it, and so on.

Termination (reported via ``converged``):
  * projected-gradient infinity norm below ``_GTOL``, or
  * step norm below ``_XTOL * (_XTOL + |x|)``.

The problems are tiny (fit_ideal's has n = 2), so numpy's per-call cost
would outweigh its arithmetic. The elementwise work of a step therefore
runs on Python floats over range(n): the projected-gradient norm, the
free mask, the damped matrix, its solve, the clip to the box and the
step. numpy keeps what its rounding decides or a caller sees: the fun
and jac values, J^T f, J^T J, the dot products f.f, s.s and x.x and the
predicted reduction. The float clip picks signed zeros and passes nans
as np.minimum(np.maximum(v, lb), ub) does, so the iterates are those of
the all-numpy loop bit for bit.

The damped system is solved by Gaussian elimination without pivoting
(``_solve``). It is symmetric positive definite whenever it is reached:
a pinned variable's row and column are the identity's, and the free
block is J^T J + lam I with lam > 0. Elimination without pivoting is
backward stable for such systems (Golub & Van Loan, Matrix
Computations, section 4.2), so the step's error bound is of the order
of LAPACK's partially pivoted one, and, being plain double arithmetic,
the step is the same on every CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_GTOL = 1e-10  # projected-gradient infinity-norm tolerance
_XTOL = 1e-12  # relative step tolerance
_MAX_ITER = 500  # cap on the number of trial steps


@dataclass
class LeastSquaresResult:
    """Solver output: solution, cost, trial steps taken and whether a tolerance fired."""

    x: np.ndarray
    cost: float
    iterations: int
    converged: bool


def _clip(v, lo, hi):
    """np.minimum(np.maximum(v, lo), hi) on floats: a nan propagates, a tie keeps the bound."""
    v = v if v > lo or v != v else lo
    return v if v < hi or v != v else hi


def projected_gradient_norm(x, g, lb, ub) -> float:
    """Infinity norm of x - P(x - g), the box-projected gradient; nan if any entry is nan."""
    norm = 0.0
    for xi, gi, lo, hi in zip(x, g, lb, ub):
        d = abs(xi - _clip(xi - gi, lo, hi))
        if d > norm or d != d:  # a nan stays, as in numpy's max
            norm = d
    return float(norm)


def _solve(A, b):
    """Solve A p = b by Gaussian elimination without pivoting; overwrites A and b, returns p.

    A is a list of n row lists and b a list of n floats. An entry of A
    that is 0 is skipped as a multiplier, so a row and column of the
    identity with a 0 right-hand side give a component of exactly 0,
    even when the other rows hold nans. A zero pivot is taken as nan:
    its component, and every one it reaches, comes out nan, a
    non-finite step that least_squares_trf rejects (np.linalg.solve
    raises LinAlgError on such a system).
    """
    n = len(b)
    for k in range(n):
        pivot = A[k][k] or math.nan
        for i in range(k + 1, n):
            if A[i][k]:
                m = A[i][k] / pivot
                for j in range(k + 1, n):
                    A[i][j] -= m * A[k][j]
                b[i] -= m * b[k]
    for k in reversed(range(n)):
        b[k] /= A[k][k] or math.nan
        for i in range(k):
            if A[i][k]:
                b[i] -= A[i][k] * b[k]
    return b


def least_squares_trf(fun, jac, x0, lb, ub):
    """Minimize 0.5*|fun(x)|^2 subject to lb <= x <= ub.

    J^T J is formed once per accepted point and reused by the rejected
    trial steps from it.

    Args:
        fun: residual callable, x -> (m,) array.
        jac: Jacobian callable, x -> (m, n) array.
        x0: starting point; clipped to the box.
        lb, ub: bound arrays, -inf/inf entries allowed.

    Returns:
        LeastSquaresResult; ``converged`` is True when either tolerance
        fired, False when the iteration cap was exhausted.
    """
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    f = np.asarray(fun(x), dtype=float)
    J = np.asarray(jac(x), dtype=float)
    cost = 0.5 * float(f @ f)
    g, JtJ = J.T @ f, J.T @ J
    lam = 1e-3 * float(JtJ.diagonal().max())
    growth = 2.0
    converged = False
    iteration = 0
    # float mirrors of x, g, J^T J and the bounds
    lo, hi, xs, gs, H = lb.tolist(), ub.tolist(), x.tolist(), g.tolist(), JtJ.tolist()
    ids = range(x.size)
    step_floor = _XTOL * (_XTOL + math.sqrt(x @ x))

    while True:
        if projected_gradient_norm(xs, gs, lo, hi) < _GTOL:
            converged = True
            break
        if iteration >= _MAX_ITER:
            break
        iteration += 1
        # a pinned variable's row and column are the identity's and its
        # right-hand side 0, so its step is 0 and the free ones solve
        # (J^T J + lam I) p = -g among themselves; lam * (i == j) is
        # lam * eye, a nan off the diagonal once lam overflows
        free = [not (xs[i] <= lo[i] and gs[i] > 0 or xs[i] >= hi[i] and gs[i] < 0) for i in ids]
        A = [[H[i][j] + lam * (i == j) if free[i] and free[j] else float(i == j) for j in ids]
             for i in ids]
        p = _solve(A, [-gs[i] * free[i] for i in ids])
        xs_new = [_clip(xs[i] + p[i], lo[i], hi[i]) for i in ids]
        x_new = np.array(xs_new)
        step = np.array([xs_new[i] - xs[i] for i in ids])
        f_new = np.asarray(fun(x_new), dtype=float)
        cost_new = 0.5 * float(f_new @ f_new)
        small_step = math.sqrt(step @ step) < step_floor

        if cost_new < cost:  # False for a non-finite residual
            # the reduction the linear model predicts for the clipped step;
            # rho >= 1 already gives the smallest factor, 1/3
            predicted = -float(g @ step + 0.5 * (step @ JtJ @ step))
            rho = min((cost - cost_new) / predicted, 1.0) if predicted > 0 else 0.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            growth = 2.0
            x, xs, f, cost = x_new, xs_new, f_new, cost_new
            J = np.asarray(jac(x), dtype=float)
            g, JtJ = J.T @ f, J.T @ J
            gs, H = g.tolist(), JtJ.tolist()
            step_floor = _XTOL * (_XTOL + math.sqrt(x @ x))
        else:
            lam *= growth
            growth *= 2.0

        if small_step:
            converged = True
            break

    return LeastSquaresResult(x=x, cost=cost, iterations=iteration, converged=converged)


def numerical_jacobian(fun, x, lb, ub):
    """Central finite-difference Jacobian with relative step 1e-6, one-sided at a bound."""
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(x.size):
        h = 1e-6 * max(1.0, abs(x[i]))
        hi = min(h, (ub[i] - x[i]))
        lo = min(h, (x[i] - lb[i]))
        if hi <= 0.0:  # pinned at the upper bound
            hi, lo = 0.0, h
        if lo <= 0.0:
            lo, hi = 0.0, max(hi, h)
        xp = x.copy()
        xp[i] += hi
        xm = x.copy()
        xm[i] -= lo
        columns.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (hi + lo))
    return np.column_stack(columns)
