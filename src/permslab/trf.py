"""Bounded Levenberg-Marquardt for one complex unknown of a holomorphic residual.

Minimizes 0.5*|f(x)|^2 subject to lb <= x <= ub, where x = (a, b) and
the complex residual f is holomorphic in a - jb: with s = df/da,
df/db = -j s. Taken as the real 2-vector (Re f, Im f), f has the
gradient g = (Re(conj(s) f), -Im(conj(s) f)) and the Gauss-Newton
matrix J^T J = |s|^2 I, so the damped normal equations
(J^T J + lam I) p = -g are diagonal. Each iteration pins every variable
that sits on a bound with its gradient pointing out of the box; a free
variable steps by -g_i / (|s|^2 + lam), a pinned one by 0. x + p is
clipped to the box and accepted if the cost falls. The damping follows
Nielsen's update (Madsen, Nielsen & Tingleff, "Methods for Non-Linear
Least Squares Problems", 2004): an accepted step scales lam by
max(1/3, 1 - (2 rho - 1)^3), rho being the actual over the predicted
cost reduction; a rejected step, or one whose residual is not finite,
doubles lam, then quadruples it, and so on.

Termination (reported via ``converged``):
  * projected-gradient infinity norm below ``_GTOL``, or
  * step norm below ``_XTOL * (_XTOL + |x|)``.

Every step is computed on Python floats, one rounding per operation:
no BLAS kernel or C compiler can fuse or reorder it, so the iterates
are the same double arithmetic on every CPU. They are bit for bit those
of the general n-variable loop on the real 2-vector form with its dot
products summed left to right, up to a lam that overflows to inf: there
that loop's lam * I puts nan off the diagonal and its step is nan,
where this step is 0 and ends the loop on the step tolerance. The float
clip picks signed zeros and passes nans as np.minimum(np.maximum(v, lb),
ub) does.
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


def _gradient(s, f):
    """g = (Re(conj(s) f), -Im(conj(s) f)) and |s|^2, on the floats of s = df/da and f."""
    sr, si, fr, fi = s.real, s.imag, f.real, f.imag
    return (sr * fr + si * fi, si * fr - sr * fi), sr * sr + si * si


def least_squares_trf(fun, jac, x0, lb, ub):
    """Minimize 0.5*|fun(x)|^2 subject to lb <= x <= ub, x = (a, b).

    Args:
        fun: residual callable, x -> complex f, holomorphic in a - jb;
            x is a list of two floats.
        jac: x -> df/da as a complex number; it is asked only at the
            point fun saw last.
        x0: starting (a, b); clipped to the box.
        lb, ub: (a, b) bounds, -inf/inf entries allowed.

    Returns:
        LeastSquaresResult; ``converged`` is True when either tolerance
        fired, False when the iteration cap was exhausted.
    """
    lb, ub = [float(v) for v in lb], [float(v) for v in ub]
    x = [_clip(float(v), lo, hi) for v, lo, hi in zip(x0, lb, ub)]
    f = fun(x)
    cost = 0.5 * (f.real * f.real + f.imag * f.imag)
    g, H = _gradient(jac(x), f)
    lam = 1e-3 * H
    growth = 2.0
    converged = False
    iteration = 0
    step_floor = _XTOL * (_XTOL + math.sqrt(x[0] * x[0] + x[1] * x[1]))

    while True:
        if projected_gradient_norm(x, g, lb, ub) < _GTOL:
            converged = True
            break
        if iteration >= _MAX_ITER:
            break
        iteration += 1
        # a pinned variable, on a bound with its gradient pointing out, steps by 0
        x_new = [_clip(xi + (0.0 if xi <= lo and gi > 0 or xi >= hi and gi < 0
                             else -gi / (H + lam)), lo, hi)
                 for xi, gi, lo, hi in zip(x, g, lb, ub)]
        f_new = fun(x_new)
        cost_new = 0.5 * (f_new.real * f_new.real + f_new.imag * f_new.imag)
        da, db = x_new[0] - x[0], x_new[1] - x[1]
        small_step = math.sqrt(da * da + db * db) < step_floor

        if cost_new < cost:  # False for a non-finite residual
            # the reduction the linear model predicts for the clipped step;
            # rho >= 1 already gives the smallest factor, 1/3
            predicted = -(g[0] * da + g[1] * db + 0.5 * (da * H * da + db * H * db))
            rho = min((cost - cost_new) / predicted, 1.0) if predicted > 0 else 0.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            growth = 2.0
            x, f, cost = x_new, f_new, cost_new
            g, H = _gradient(jac(x), f)
            step_floor = _XTOL * (_XTOL + math.sqrt(x[0] * x[0] + x[1] * x[1]))
        else:
            lam *= growth
            growth *= 2.0

        if small_step:
            converged = True
            break

    return LeastSquaresResult(x=np.array(x), cost=cost, iterations=iteration, converged=converged)


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
