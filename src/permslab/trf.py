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


def projected_gradient_norm(x, g, lb, ub) -> float:
    """Infinity norm of x - P(x - g), the box-projected gradient."""
    return float(np.abs(x - np.minimum(np.maximum(x - g, lb), ub)).max())


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
    eye = np.eye(x.size)
    lam = 1e-3 * float(JtJ.diagonal().max())
    growth = 2.0
    converged = False
    iteration = 0

    while True:
        if projected_gradient_norm(x, g, lb, ub) < _GTOL:
            converged = True
            break
        if iteration >= _MAX_ITER:
            break
        iteration += 1
        # a pinned variable's row and column are the identity's and its
        # right-hand side 0, so its step is 0 and the free ones solve
        # (J^T J + lam I) p = -g among themselves
        free = ~(((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0)))
        A = np.where(free & free[:, None], JtJ + lam * eye, eye)
        p = np.linalg.solve(A, -g * free)
        x_new = np.minimum(np.maximum(x + p, lb), ub)
        step = x_new - x
        f_new = np.asarray(fun(x_new), dtype=float)
        cost_new = 0.5 * float(f_new @ f_new)
        small_step = math.sqrt(step @ step) < _XTOL * (_XTOL + math.sqrt(x @ x))

        if cost_new < cost:  # False for a non-finite residual
            # the reduction the linear model predicts for the clipped step;
            # rho >= 1 already gives the smallest factor, 1/3
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
