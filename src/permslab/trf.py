"""Bounded Levenberg-Marquardt for one complex unknown of a holomorphic residual.

Minimizes 0.5*|f(a, b)|^2 subject to lb <= (a, b) <= ub, where the
complex residual f is holomorphic in a - jb: with s = df/da,
df/db = -j s. The caller passes one point evaluator, (a, b) -> (f, s),
the interface a Newton inversion of f would also take, and the loop
asks it once per trial point. Taken as the real 2-vector (Re f, Im f),
f has the gradient g = (Re(conj(s) f), -Im(conj(s) f)) and the
Gauss-Newton matrix J^T J = |s|^2 I, computed once per accepted point,
so the damped normal equations (J^T J + lam I) p = -g are diagonal.
Each iteration pins every variable that sits on a bound with its
gradient pointing out of the box; a free variable steps by
-g_i / (|s|^2 + lam), a pinned one by 0. (a, b) + p is clipped to the
box and accepted if the cost falls. The damping follows
Nielsen's update (Madsen, Nielsen & Tingleff, "Methods for Non-Linear
Least Squares Problems", 2004): an accepted step scales lam by
max(1/3, 1 - (2 rho - 1)^3), rho being the actual over the predicted
cost reduction; a rejected step, or one whose residual is not finite,
doubles lam, then quadruples it, and so on.

Termination (reported via ``converged``):
  * projected-gradient infinity norm below ``_GTOL``, or
  * step norm below ``_XTOL * (_XTOL + |(a, b)|)``.

Every step is computed on Python floats, one rounding per operation,
with a and b as two named floats rather than vectors: no BLAS kernel or
C compiler can fuse or reorder it, so the iterates are the same double
arithmetic on every CPU. They are bit for bit those of the general
n-variable loop on the real 2-vector form with its dot products summed
left to right, up to a lam that overflows to inf: there that loop's
lam * I puts nan off the diagonal and its step is nan, where this step
is 0 and ends the loop on the step tolerance. The float clip picks
signed zeros and passes nans as np.minimum(np.maximum(v, lb), ub) does,
and the projected-gradient test fails on a nan entry as numpy's max
passes it on.
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
    """Solver output: solution (a, b), cost, trial steps taken and whether a tolerance fired."""

    x: tuple[float, float]
    cost: float
    iterations: int
    converged: bool


def _clip(v, lo, hi):
    """np.minimum(np.maximum(v, lo), hi) on floats: a nan propagates, a tie keeps the bound."""
    v = v if v > lo or v != v else lo
    return v if v < hi or v != v else hi


def least_squares_trf(point, x0, lb, ub):
    """Minimize 0.5*|f(a, b)|^2 subject to lb <= (a, b) <= ub.

    Args:
        point: (a, b) -> (f, df/da), the complex residual, holomorphic
            in a - jb, and its slope, from one call on two floats.
        x0: starting (a, b); clipped to the box.
        lb, ub: (a, b) bounds, -inf/inf entries allowed.

    Returns:
        LeastSquaresResult with x the two floats (a, b); ``converged``
        is True when either tolerance fired, False when the iteration
        cap was exhausted.
    """
    (lo_a, lo_b), (hi_a, hi_b) = [float(v) for v in lb], [float(v) for v in ub]
    a, b = _clip(float(x0[0]), lo_a, hi_a), _clip(float(x0[1]), lo_b, hi_b)
    f, s = point(a, b)
    cost = 0.5 * (f.real * f.real + f.imag * f.imag)
    iteration = 0
    moved = True

    while True:
        if moved:  # the start or an accepted point: g = (Re(conj(s) f), -Im(conj(s) f)), H = |s|^2
            fr, fi, sr, si = f.real, f.imag, s.real, s.imag
            ga, gb, H = sr * fr + si * fi, si * fr - sr * fi, sr * sr + si * si
            lam = 1e-3 * H if iteration == 0 else lam  # the start's lam is 1e-3 |s|^2
            growth = 2.0
            step_floor = _XTOL * (_XTOL + math.sqrt(a * a + b * b))
            moved = False
        # the infinity norm of x - P(x - g), the box-projected gradient: a nan entry fails it
        stationary = (abs(a - _clip(a - ga, lo_a, hi_a)) < _GTOL
                      and abs(b - _clip(b - gb, lo_b, hi_b)) < _GTOL)
        if stationary or iteration >= _MAX_ITER:
            return LeastSquaresResult((a, b), cost, iteration, stationary)
        iteration += 1
        # a pinned variable, on a bound with its gradient pointing out, steps by 0
        pa = 0.0 if a <= lo_a and ga > 0 or a >= hi_a and ga < 0 else -ga / (H + lam)
        pb = 0.0 if b <= lo_b and gb > 0 or b >= hi_b and gb < 0 else -gb / (H + lam)
        a_new, b_new = _clip(a + pa, lo_a, hi_a), _clip(b + pb, lo_b, hi_b)
        f_new, s_new = point(a_new, b_new)
        cost_new = 0.5 * (f_new.real * f_new.real + f_new.imag * f_new.imag)
        da, db = a_new - a, b_new - b
        small_step = math.sqrt(da * da + db * db) < step_floor

        if cost_new < cost:  # False for a non-finite residual
            # the reduction the linear model predicts for the clipped step;
            # rho >= 1 already gives the smallest factor, 1/3
            predicted = -(ga * da + gb * db + 0.5 * (da * H * da + db * H * db))
            rho = min((cost - cost_new) / predicted, 1.0) if predicted > 0 else 0.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            a, b, f, s, cost, moved = a_new, b_new, f_new, s_new, cost_new, True
        else:
            lam *= growth
            growth *= 2.0

        if small_step:
            return LeastSquaresResult((a, b), cost, iteration, True)


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
