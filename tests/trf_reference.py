"""The general n-variable bounded Levenberg-Marquardt loop: the oracle for ``permslab.trf``.

``permslab.trf`` runs this loop for one complex unknown of a holomorphic
residual, where J^T J is |df/da|^2 I and every step is diagonal. This is
the loop it came from, on numpy arrays for any real residual: the same
free mask, clip, damping and tolerances, with its products and step
solve taken from a ``linalg`` pair (matmul, solve):

* ``PLAIN_DOUBLES``: each dot product summed left to right on Python
  floats and the step solved by Gaussian elimination without pivoting.
  On the real 2-vector form of a holomorphic residual (``real_form``)
  this is permslab.trf's arithmetic bit for bit.
* ``NUMPY_LAPACK``: numpy's ``@`` (BLAS, which may fuse multiply-adds)
  and ``np.linalg.solve``.

``projected_gradient_norm`` and ``diagonal_gradient`` give, on Python
floats, the stopping measure and the gradient that ``permslab.trf``'s
loop takes inline on its two variables, for the tests to check
solutions and steps with.
"""

import functools
import math
import operator

import numpy as np

from permslab import trf


def plain_matmul(a, b):
    """a @ b for 1-D and 2-D float arrays, each product rounded and summed left to right."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = np.atleast_2d(a).tolist()
    cols = (b[:, None] if b.ndim == 1 else b).T.tolist()
    out = np.array([[functools.reduce(operator.add, map(operator.mul, r, c)) for c in cols]
                    for r in rows])
    out = out[:, 0] if b.ndim == 1 else out
    return out[0] if a.ndim == 1 else out


def eliminate(A, b):
    """Solve A p = b by Gaussian elimination without pivoting, on Python floats.

    An entry of A that is 0 is skipped as a multiplier, so a row and
    column of the identity with a 0 right-hand side give a component of
    exactly 0, even when the other rows hold nans. A zero pivot is taken
    as nan: its component, and every one it reaches, comes out nan, a
    non-finite step that the loop rejects.
    """
    A, b = np.asarray(A, dtype=float).tolist(), np.asarray(b, dtype=float).tolist()
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
    return np.array(b)


PLAIN_DOUBLES = (plain_matmul, eliminate)
NUMPY_LAPACK = (np.matmul, np.linalg.solve)


def real_form(point):
    """point(a, b) -> (f, df/da), f holomorphic in a - jb, as a real 2-vector and 2x2 J."""
    def real_fun(x):
        f, _ = point(*x.tolist())
        return np.array([f.real, f.imag])

    def real_jac(x):
        _, s = point(*x.tolist())
        return np.array([[s.real, s.imag], [s.imag, -s.real]])  # d/db = -j d/da

    return real_fun, real_jac


def projected_gradient_norm(x, g, lb, ub) -> float:
    """Infinity norm of x - P(x - g), the box-projected gradient; nan if any entry is nan."""
    norm = 0.0
    for xi, gi, lo, hi in zip(x, g, lb, ub):
        d = abs(xi - trf._clip(xi - gi, lo, hi))
        if d > norm or d != d:  # a nan stays, as in numpy's max
            norm = d
    return float(norm)


def diagonal_gradient(s, f):
    """g = (Re(conj(s) f), -Im(conj(s) f)) and |s|^2, on the floats of s = df/da and f."""
    sr, si, fr, fi = s.real, s.imag, f.real, f.imag
    return (sr * fr + si * fi, si * fr - sr * fi), sr * sr + si * si


def reference_projected_gradient_norm(x, g, lb, ub) -> float:
    """The all-numpy projected-gradient norm of the loop."""
    return float(np.abs(x - np.minimum(np.maximum(x - g, lb), ub)).max())


def reference_least_squares_trf(fun, jac, x0, lb, ub, linalg=PLAIN_DOUBLES):
    """Minimize 0.5*|fun(x)|^2 over lb <= x <= ub for a real residual (m,) and Jacobian (m, n)."""
    matmul, solve = linalg
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    x = np.minimum(np.maximum(np.asarray(x0, dtype=float), lb), ub)
    f = np.asarray(fun(x), dtype=float)
    J = np.asarray(jac(x), dtype=float)
    cost = 0.5 * float(matmul(f, f))
    g, JtJ = matmul(J.T, f), matmul(J.T, J)
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
        # a pinned variable's row and column are the identity's and its
        # right-hand side 0; lam * eye is nan off the diagonal once lam overflows
        free = ~(((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0)))
        A = np.where(free & free[:, None], JtJ + lam * eye, eye)
        p = solve(A, -g * free)
        x_new = np.minimum(np.maximum(x + p, lb), ub)
        step = x_new - x
        f_new = np.asarray(fun(x_new), dtype=float)
        cost_new = 0.5 * float(matmul(f_new, f_new))
        small_step = (math.sqrt(matmul(step, step))
                      < trf._XTOL * (trf._XTOL + math.sqrt(matmul(x, x))))

        if cost_new < cost:  # False for a non-finite residual
            predicted = -float(matmul(g, step) + 0.5 * matmul(matmul(step, JtJ), step))
            rho = min((cost - cost_new) / predicted, 1.0) if predicted > 0 else 0.0
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            growth = 2.0
            x, f, cost = x_new, f_new, cost_new
            J = np.asarray(jac(x), dtype=float)
            g, JtJ = matmul(J.T, f), matmul(J.T, J)
        else:
            lam *= growth
            growth *= 2.0

        if small_step:
            converged = True
            break

    return trf.LeastSquaresResult(x=x, cost=cost, iterations=iteration, converged=converged)


def assert_same_result(res, ref):
    """Bit identity of a solver result, whose x is two floats, and a reference loop's:
    x bytes, cost hex, iterations and converged."""
    assert type(res.x) is tuple and [type(v) for v in res.x] == [float, float]
    assert np.array(res.x).tobytes() == ref.x.tobytes()
    assert float(res.cost).hex() == float(ref.cost).hex()
    assert (res.iterations, res.converged) == (ref.iterations, ref.converged)
