"""Permittivity fitting from stepped-distance reflection sweeps.

A sweep records calibrated complex reflection coefficients Gamma(m),
m = 0..M-1, taken while the reference distance grows by a small step dl
per measurement. The model is

    Gamma(m) = (1 - sqrt(a - jb)) / (1 + sqrt(a - jb)) * e^{j(c - C1 m)}

with C1 = 2*pi*f0*2*dl/c the known per-step round-trip phase advance,
and unknowns a (eps'), b (eps''), and c, a single phase offset that
absorbs the reference-position mismatch. The fit minimizes the summed
squared real and imaginary residuals under box bounds a >= 1, b >= 0.

Identifiability: the model depends on (a, b, c) only through the
product z = r(a, b) * e^{jc}, so any single-frequency sweep pins exactly
two real degrees of freedom and the least-squares solutions form a
one-parameter family. fit_permittivity computes z in closed form (a
mean) and reports the feasible family member nearest an anchor (a, b):
the first entry of ``starts``, or (1.5, 0.01) for ``starts="auto"``.
Pass explicit ``starts`` to anchor the answer to prior knowledge.

Both fits reduce their sweep in one place, ``_reduce``: under a unit
derotation d(m) it returns the mean z* = mean_m Gamma(m) d(m), |z*| and
the floor |Gamma - z* conj(d)|^2, and every model w conj(d) then has the
squared residual norm floor + M |w - z*|^2. The sweep fit uses
d = e^{+j C1 m} and reports w = |r(a, b)| e^{j arg z*}; fit_ideal, which
has no phase offset, uses d = conj(p_m) and runs the bounded
Levenberg-Marquardt solver of trf on the two numbers sqrt(M) (F(a - jb) - z*)
from each start. The degenerate and overflow rules of both fits are
those of ``_reduce``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .em import (
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    SlabGeometry,
    air_face_reflection,
    complex_sqrt_lossy,
    effective_reflection_and_slope,
)
from .errors import (AliasingError, DegenerateDataError, DegenerateRegressionError,
                     InfeasibleFitError, NoConvergenceError)
from .trf import least_squares_trf

# (a, b) starts of fit_ideal's "auto" policy, a-major; the first is fit_permittivity's anchor
AUTO_STARTS = tuple((a, b) for a in (1.5, 3.0, 6.0, 12.0) for b in (0.01, 0.5))


def wrap_phase(c: float) -> float:
    """Wrap an angle to [-pi, pi)."""
    return (c + math.pi) % (2.0 * math.pi) - math.pi


def step_phase_advance(carrier: float, step: float) -> float:
    """Per-step phase constant C1 = 2*pi*f0 * 2*dl / c, in radians."""
    return 2.0 * math.pi * carrier * 2.0 * step / SPEED_OF_LIGHT


def check_step(step: float, carrier: float) -> None:
    """Raise unless step and carrier are > 0 and the per-step phase advance is below pi."""
    if not step > 0.0:
        raise ValueError(f"step must be > 0, got {step}")
    if not carrier > 0.0:
        raise ValueError(f"carrier must be > 0, got {carrier}")
    if (c1 := step_phase_advance(carrier, step)) >= math.pi:
        raise AliasingError(f"per-step phase advance {c1:.3f} rad >= pi; "
                            "reduce the step below a quarter wavelength")


@dataclass(frozen=True)
class SdiDataset:
    """Calibrated reflection sweep: Gamma(m), step size and carrier.

    Attributes:
        gammas: M complex reflection coefficients, m = 0..M-1.
        step: distance increment dl per measurement, meters.
        carrier: frequency f0 used in the per-step phase factor, Hz.
    """

    gammas: np.ndarray
    step: float
    carrier: float

    def __post_init__(self):
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=complex))
        if self.gammas.ndim != 1 or self.gammas.size < 3:
            raise ValueError("need at least 3 reflection samples")
        if not np.all(np.isfinite(self.gammas)):
            raise ValueError("reflection samples must be finite")
        check_step(self.step, self.carrier)

    @property
    def step_count(self) -> int:
        return int(self.gammas.size)

    @property
    def step_phase(self) -> float:
        return step_phase_advance(self.carrier, self.step)


@dataclass(frozen=True)
class FitBounds:
    """Box bounds of the fit: a in [1, a_max], b in [0, b_max], both finite.

    The phase offset is fitted unbounded and wrapped to [-pi, pi) on
    report, so no bound is stored for it.
    """

    a_max: float = 100.0
    b_max: float = 50.0

    def __post_init__(self):
        if not self.a_max > 1.0:
            raise ValueError("a_max must be > 1")
        if not self.b_max > 0.0:
            raise ValueError("b_max must be > 0")
        if self.a_max == math.inf:
            raise ValueError("a_max must be finite")
        if self.b_max == math.inf:
            raise ValueError("b_max must be finite")


@dataclass(frozen=True)
class FitResult:
    """Fitted permittivity, phase offset and convergence diagnostics.

    ``residual_norm`` is the 2-norm of the stacked Re/Im residual
    vector; its square is the minimized objective.
    """

    permittivity: ComplexPermittivity
    phase_offset: float
    residual_norm: float
    iterations: int
    converged: bool


def front_face_reflection(a: float, b: float) -> complex:
    """Air-to-material reflection (1 - sqrt(a - jb)) / (1 + sqrt(a - jb))."""
    return air_face_reflection(complex_sqrt_lossy(ComplexPermittivity(a, b)))


def model_gamma(a: float, b: float, c: float, m, c1: float):
    """Model reflection coefficient at step index m (scalar or array)."""
    theta = c - c1 * np.asarray(m, dtype=float)
    return front_face_reflection(a, b) * np.exp(1j * theta)


def residuals(params, data: SdiDataset) -> np.ndarray:
    """Interleaved [Re, Im] residuals (measured - model), length 2M."""
    a, b, c = params
    model = model_gamma(a, b, c, np.arange(data.step_count), data.step_phase)
    return (data.gammas - model).view(float)


def jacobian(params, data: SdiDataset) -> np.ndarray:
    """Analytic (2M, 3) Jacobian of the residual vector w.r.t. (a, b, c).

    Uses dr/da = -1 / (s (1+s)^2) and dr/db = j / (s (1+s)^2) for
    s = sqrt(a - jb); the phase-offset column is the 90-degree rotation
    of the model.
    """
    a, b, c = params
    s = complex_sqrt_lossy(ComplexPermittivity(a, b))
    r = air_face_reflection(s)
    dr_da = -1.0 / (s * (1.0 + s) ** 2)
    dr_db = 1j / (s * (1.0 + s) ** 2)
    m = np.arange(data.step_count)
    phase = np.exp(1j * (c - data.step_phase * m))
    derivs = np.array((dr_da * phase, dr_db * phase, 1j * r * phase))
    # rows interleave Re/Im as in residuals; C order keeps J.T @ J's rounding
    return np.ascontiguousarray((-derivs).view(float).T)


def _unit_circle_roots(quartics: np.ndarray) -> np.ndarray:
    """Roots of a stack of quartics, Newton-polished, projected onto |w| = 1.

    A root off the circle projects to an ordinary point of the circle,
    so keeping it adds a candidate but never a wrong answer.
    """
    companion = np.zeros((len(quartics), 4, 4), dtype=complex)
    companion[:, 0, :] = -quartics[:, 1:] / quartics[:, :1]
    companion[:, 1:, :-1] = np.eye(3)
    w = np.linalg.eigvals(companion)
    with np.errstate(all="ignore"):  # double and far-off roots
        for _ in range(2):
            p, dp = quartics[:, :1], 0.0
            for k in range(1, 5):
                dp = dp * w + p
                p = p * w + quartics[:, k : k + 1]
            step = p / dp
            w = np.where(np.isfinite(step), w - step, w)
    return (w / np.abs(w)).ravel()


def _box_ends(big_c: float, big_r: float, a_max: float) -> tuple[complex, ...]:
    """The points a - jb where the family circle s = C + R w meets a = 1, a_max and b = 0.

    As C^2 - R^2 = 1, a = 1 + 2CR x + 2R^2 x^2 and b = -2R Im(w) (C + R x)
    with x = Re w, so b >= 0 where Im w <= 0. There a = 1 only at w = -j,
    b = 0 only at w = 1 (w = -1 has a < 1), and a = a_max at the root
    x <= 1 of 2R^2 x^2 + 2CR x = a_max - 1, written without cancellation.
    """
    a_top, d, x = 1.0 + 2.0 * big_r * (big_c + big_r), a_max - 1.0, math.nan
    if a_max <= a_top:  # the a at w = 1; a larger a_max is not reached (that end is nan)
        x = min(d / (big_r * (big_c + math.sqrt(big_c * big_c + 2.0 * d))), 1.0)
    b_at_a_max = 2.0 * big_r * math.sqrt((1.0 - x) * (1.0 + x)) * (big_c + big_r * x)
    return 1.0 - 2j * big_c * big_r, a_max - 1j * b_at_a_max, a_top


@np.errstate(over="ignore")  # distances to a far anchor overflow to inf, which still ranks last
def _nearest_members(rhos, anchors, bounds: FitBounds) -> list:
    """Per rho, the feasible (a, b) with |r(a, b)| = rho nearest its anchor (a0, b0).

    Under s = (1 - r) / (1 + r) the family |r| = rho is the circle
    s = C + R w, |w| = 1, and eps = s^2. The member is the nearest feasible
    stationary point of |s^2 - eps0|^2 or end of a feasible arc: a root of
    the stationary quartic in w, one of ``_box_ends``, or a root of the
    b = b_max quartic, ties to the first. Both quartics (below divided by
    R^2) of all rhos are one stack. As a - 1 = 2R x (C + R x) with
    x = Re w (see ``_box_ends``), a root is feasible only if x >= 0, up
    to 1e-10. A rho with none of these points in the box, or whose
    quartics overflow, gets an InfeasibleFitError.
    """
    quartics, ends, circles = [], [], []
    for rho, (a0, b0) in zip(rhos, anchors):
        # Python scalars: numpy rounds x**2 and complex / float differently
        big_c = (1.0 + rho * rho) / (1.0 - rho * rho)
        big_r = 2.0 * rho / (1.0 - rho * rho)
        k = 2.0 * big_c / big_r
        # g = 0 would lower the degree; an ulp-sized g keeps the same roots
        g = (big_c * big_c - complex(a0, -b0)) / big_r**2 or 1e-16
        quartics += ([2 * g.conjugate(), k * (1 + g.conjugate()), 0, -k * (1 + g), -2 * g],
                     [1, k, 2j * bounds.b_max / big_r**2, -k, -1])
        ends.append(_box_ends(big_c, big_r, bounds.a_max))
        circles.append((big_c, big_r, a0, b0))
    quartics = np.array(quartics, dtype=complex).reshape(-1, 10)
    finite = np.isfinite(quartics).all(axis=1)
    w = _unit_circle_roots(np.where(finite[:, None], quartics, 1).reshape(-1, 5)).reshape(-1, 8)
    big_c, big_r, a0, b0 = np.array(circles).reshape(-1, 4).T[:, :, None]
    # the sign of Re w, not a rounded a, drops the roots near w = -1, where C + R w
    # cancels and eps keeps no digits once C >> 1
    eps = (big_c + big_r * np.where(w.real > -1e-10, w, np.nan)) ** 2
    eps = np.concatenate((eps[:, :4], np.array(ends).reshape(-1, 3), eps[:, 4:]), axis=1)
    # rounding of eps = s^2 at a point s of the circle, |s| <= C + R
    tol = 1e-13 * (big_c + big_r) * np.sqrt(np.abs(eps))
    a, b = eps.real, -eps.imag  # b is -0.0 where eps is real; the + 0.0 below makes it 0.0
    ok = (a > 1.0 - tol) & (a < bounds.a_max + tol) & (b > -tol) & (b < bounds.b_max + tol)
    a, b = np.clip(a, 1.0, bounds.a_max), np.clip(b, 0.0, bounds.b_max) + 0.0
    dist = np.where(ok, (a - a0) ** 2 + (b - b0) ** 2, np.inf)
    # the first feasible point at the least distance, also when every distance overflows
    pick = np.arange(len(dist)), np.argmax(ok & (dist == dist.min(axis=1, keepdims=True)), axis=1)
    a, b, ok = a[pick].tolist(), b[pick].tolist(), ok[pick] & finite
    return [(x, y) if kept else InfeasibleFitError(
        f"no root of the family |r| = {rho:.17g} in the box" if solved
        else f"the root quartics of the family |r| = {rho:.17g} overflow for this anchor and box")
        for x, y, kept, rho, solved in zip(a, b, ok, rhos, finite)]


def _largest_reflection_corner(bounds: FitBounds) -> tuple[float, float]:
    """The (a, b) in the box with the largest |r(a, b)|.

    With eps = a - jb, d log r / d eps = 1 / (s (eps - 1)), so
    d log|r| / da = Re(1 / (s (eps - 1))) and d log|r| / db =
    Im(1 / (s (eps - 1))). For a >= 1, b > 0 the angle of s (eps - 1)
    lies in (-3 pi / 4, 0) and grows with a, so |r| grows with b and,
    along b = b_max, first falls and then rises with a. The maximum is
    therefore at (1, b_max) or (a_max, b_max).
    """
    corners = ((1.0, bounds.b_max), (bounds.a_max, bounds.b_max))
    return max(corners, key=lambda ab: abs(front_face_reflection(*ab)))


def _start_list(starts) -> list[tuple]:
    """The starts of a fit: AUTO_STARTS for "auto", else the given tuples as floats.

    Raises:
        ValueError: an unknown policy, an empty list, or a start that is
            not 2 or 3 finite numbers, (a, b) or (a, b, c).
    """
    if isinstance(starts, str):
        if starts != "auto":
            raise ValueError(f"unknown start policy {starts!r}")
        return list(AUTO_STARTS)
    start_list = []
    for s in starts:
        try:
            start = tuple(map(float, s))
        except (TypeError, ValueError):
            start = ()
        if len(start) not in (2, 3) or not all(map(math.isfinite, start)):
            raise ValueError(
                f"a start is 2 or 3 finite numbers, (a, b) or (a, b, c); got {s!r}"
            )
        start_list.append(start)
    if not start_list:
        raise ValueError("empty start list")
    return start_list


def _pick_winner(norms, data_norm: float) -> int:
    """Lowest residual norm; numerical ties go to the earliest start.

    Exact-fit runs stop with residual norms anywhere between machine
    noise and the gradient tolerance, so residual norms within a band
    of 1e-9 (1 + ||Gamma||) are treated as equal. This keeps the winning
    start reproducible when the objective has a flat direction.
    """
    cutoff = min(norms) + 1e-9 * (1.0 + data_norm)
    return next(i for i, rn in enumerate(norms) if rn <= cutoff)


@np.errstate(over="ignore", invalid="ignore")  # an overflow fails only its own row
def _reduce(gammas: np.ndarray, derotation: np.ndarray):
    """Reduce each row of a (T, M) sweep stack Gamma under a unit derotation d(m).

    Returns per row, as lists: z* = mean_m Gamma(m) d(m), |z*|, the floor
    |Gamma - z* conj(d)|^2, and the PermslabError that fails the row's fit
    or None. As |d| = 1, every model w conj(d) has
    |Gamma - w conj(d)|^2 = floor + M |w - z*|^2, so a fit ranks and
    reports its models by that identity without forming them. A row fails
    when every sample is below 1e-12, when |z*| overflows, or when
    |Gamma|^2 = floor + M |z*|^2 does.
    """
    z = np.mean(gammas * derotation, axis=1)
    floor = np.sum(np.abs(gammas - z[:, None] * derotation.conj()) ** 2, axis=1)
    rho = np.hypot(z.real, z.imag)  # equals abs(complex) bit for bit; np.abs does not
    norm_sq = floor + gammas.shape[1] * rho * rho
    errors = [
        DegenerateDataError("all reflection samples below 1e-12") if dead
        else InfeasibleFitError("the sweep mean overflows") if not math.isfinite(r)
        else InfeasibleFitError("the residual norm overflows") if not math.isfinite(n)
        else None
        for dead, r, n in zip(np.all(np.abs(gammas) < 1e-12, axis=1), rho, norm_sq)
    ]
    return z.tolist(), rho.tolist(), floor.tolist(), errors


def _fit_rows(gammas: np.ndarray, c1: float, anchors, bounds: FitBounds) -> list:
    """fit_permittivity on each row of a (T, M) sweep stack, one (a0, b0) anchor per row.

    Returns per row (a, b, c, residual norm) or the PermslabError its fit raises.
    """
    z, rho, floor, errors = _reduce(gammas, np.exp(1j * c1 * np.arange(gammas.shape[1])))
    corner = _largest_reflection_corner(bounds)
    r_max = abs(front_face_reflection(*corner))
    fits = [
        error or (corner if r >= r_max else (1.0, 0.0) if r < 1e-100 else None)
        for error, r in zip(errors, rho)
    ]  # rho < 1e-100: the whole family lies within 4 rho of (1, 0)
    rows = [t for t, fit in enumerate(fits) if fit is None]  # left to the family search
    members = iter(_nearest_members([rho[t] for t in rows], [anchors[t] for t in rows], bounds))
    fits = [next(members) if fit is None else fit for fit in fits]
    for t, fit in enumerate(fits):
        if isinstance(fit, tuple):
            # the model r e^{jc} conj(d) with c = arg z* - arg r is |r| e^{j arg z*} conj(d)
            r = front_face_reflection(*fit)
            c = wrap_phase(cmath.phase(z[t]) - cmath.phase(r))
            fits[t] = (*fit, c, math.sqrt(floor[t] + gammas.shape[1] * (abs(r) - rho[t]) ** 2))
    return fits


def fit_permittivity(
    data: SdiDataset,
    bounds: FitBounds = FitBounds(),
    starts="auto",
) -> FitResult:
    """Fit (a, b, c) to a reflection sweep in closed form.

    The model is linear in z = r(a, b) e^{jc}, so the least-squares
    optimum is z* = mean_m Gamma(m) e^{+j C1 m}. The largest |r| in
    the box, r_max, is attained at (1, b_max) or (a_max, b_max),
    whichever is larger; at |z*| >= r_max the fit returns that corner.
    Otherwise the data leave one parameter combination free
    (see module docstring), and the reported (a, b) is the feasible
    member of the family |r(a, b)| = |z*| nearest the anchor, found
    exactly among the roots of two quartics and three closed-form box
    ends (``_nearest_members``); c = arg z* - arg r(a, b). With the floor
    |Gamma - z* e^{-j C1 m}|^2 of ``_reduce``, ``residual_norm`` is
    sqrt(floor + M (|r(a, b)| - |z*|)^2), the norm of the full residual
    by the identity there; the model rows are never formed.

    The anchor is the (a, b) of the first entry of ``starts``; with
    ``starts="auto"`` it is (1.5, 0.01). The result has ``iterations``
    0 and ``converged`` True.

    Raises:
        DegenerateDataError: all reflection samples are ~0 (free space).
        InfeasibleFitError: the sweep mean or the residual norm overflows,
            or no root of the family lands in the box.
    """
    anchor = _start_list(starts)[0][:2]
    fit = _fit_rows(data.gammas[None], data.step_phase, [anchor], bounds)[0]
    if isinstance(fit, Exception):
        raise fit
    a, b, c, residual_norm = fit
    return FitResult(ComplexPermittivity(a, b), phase_offset=c, residual_norm=residual_norm,
                     iterations=0, converged=True)


def fit_ideal(
    gammas_at_radar,
    geom: SlabGeometry,
    step: float,
    freq: float,
    bounds: FitBounds = FitBounds(),
    starts="auto",
) -> FitResult:
    """Fit (a, b) when the absolute standoff and slab geometry are known.

    Model: Gamma(m) = e^{j 2 k1 (l + m dl)} * Gamma_face(a, b) with the
    full multi-bounce slab reflection at the front face. No phase offset
    is fitted, so there is no gauge family, but the fit inherits every
    micrometer of standoff error as phase bias; it exists as the
    idealized baseline, not the practical path.

    The data pin only the complex front-face reflection, and on a thin
    slab that reflection repeats as the round trip through the slab
    gains whole turns of phase: distinct permittivities (for example
    7 - j0.3 and about 12.48 - j0.467 on a 2.046 mm metal-backed slab)
    fit a noiseless sweep exactly. Each (a, b) start, the (a, b) of an
    (a, b, c) start included, runs the bounded solver of ``trf``; the
    lowest residual wins and numerical ties go to the earliest start,
    so the start order picks among such solutions.

    ``_reduce`` with d = conj(p_m), p_m = e^{j 2 k1 (l + m dl)}, gives
    z* = mean_m Gamma(m) conj(p_m) and the floor |Gamma - z* p|^2 that no
    (a, b) removes, and |Gamma - F p|^2 = floor + M |F - z*|^2 exactly, so
    each solve works on sqrt(M) (F - z*), whose gradient and J^T J are
    those of the full residual; F is holomorphic in a - jb, so dF/da = F'
    and dF/db = -j F'. Each point the solver tries gets F and F' from one
    call of ``em.effective_reflection_and_slope``; the Jacobian takes the
    F' of the last point the residual saw, the only point ``trf`` asks it
    about. Starts are ranked, and ``residual_norm`` is reported, as
    sqrt(floor + M |F - z*|^2), the full residual's norm.

    Returns a FitResult with ``phase_offset`` fixed at 0. A negative
    ``step`` is a stage that moves toward the radar.

    Known defect: when |z*| is 1e16 or more (and below the overflow
    rule), a change of |F - z*| moves the cost by less than its last
    bit, so every step is rejected and the first start comes back
    unchanged with ``converged`` True: 1.5 - j0.01 for an on-model sweep
    1e16 p_m over a 2 mm metal-backed slab, where 1e12 p_m moves to about
    2.02 - j0.

    Raises:
        ValueError: ``gammas_at_radar`` is empty, not 1-D or not finite,
            ``step`` is not finite, or ``freq`` is not finite and > 0.
        DegenerateDataError: all reflection samples are ~0 (free space).
        InfeasibleFitError: the sweep mean or the residual norm overflows.
        NoConvergenceError: no start converged within the iteration cap.
    """
    if not math.isfinite(step):
        raise ValueError(f"step must be finite, got {step}")
    if not 0.0 < freq < math.inf:
        raise ValueError(f"freq must be finite and > 0, got {freq}")
    gammas = np.asarray(gammas_at_radar, dtype=complex)
    if gammas.ndim != 1 or gammas.size == 0:
        raise ValueError(f"reflection samples must be 1-D and not empty, got shape {gammas.shape}")
    if not np.all(np.isfinite(gammas)):
        raise ValueError("reflection samples must be finite")
    k1 = 2.0 * math.pi * freq / SPEED_OF_LIGHT
    phase = np.exp(2j * k1 * (geom.standoff + np.arange(gammas.size) * step))
    # z and floor_sq come as Python scalars, which keep fun's arithmetic cheaper than numpy's
    (z,), (rho,), (floor_sq,), (error,) = _reduce(gammas[None], phase.conj())
    if error:
        raise error
    root_m = math.sqrt(gammas.size)
    slope = 0j  # F' at the last point fun saw, the only point trf asks jac about

    def fun(x):
        nonlocal slope
        face, slope = effective_reflection_and_slope(ComplexPermittivity(*x.tolist()), geom, freq)
        d = root_m * (face - z)
        return np.array((d.real, d.imag))

    lb = np.array([1.0, 0.0])
    ub = np.array([bounds.a_max, bounds.b_max])

    def jac(_x):
        s = root_m * slope
        return np.array(((s.real, s.imag), (s.imag, -s.real)))  # d/db = -j d/da

    runs = [
        least_squares_trf(fun, jac, np.array(s0[:2]), lb, ub) for s0 in _start_list(starts)
    ]
    if not any(r.converged for r in runs):
        raise NoConvergenceError("no start converged within the iteration cap")

    norms = [math.sqrt(floor_sq + 2.0 * r.cost) for r in runs]
    # ||Gamma||^2 = floor + M |z*|^2, the identity of _reduce
    best = _pick_winner(norms, math.sqrt(floor_sq + gammas.size * rho * rho))
    win = runs[best]
    return FitResult(ComplexPermittivity(*win.x.tolist()), phase_offset=0.0,
                     residual_norm=norms[best], iterations=win.iterations, converged=win.converged)


def phase_slope_diagnostic(data: SdiDataset) -> tuple[float, float]:
    """Linearity check of the unwrapped sweep phase against displacement.

    Returns:
        (slope, r_squared): slope in degrees per millimeter of stage
        travel, and the coefficient of determination of the linear
        regression.

    Raises:
        DegenerateRegressionError: all phases identical (no progression),
            or a stage travel so short that the displacement variance
            underflows to 0 or the slope is not finite.
    """
    phases = np.unwrap(np.angle(data.gammas))
    if np.all(phases == phases[0]):
        raise DegenerateRegressionError("constant phase, no slope to regress")
    x = np.arange(data.step_count) * data.step
    dx, dp = x - x.mean(), phases - phases.mean()
    sxx = float(dx @ dx)
    slope_rad_per_m = float(dx @ dp) / sxx if sxx > 0.0 else math.inf
    if not math.isfinite(slope_rad_per_m):
        raise DegenerateRegressionError(f"step {data.step} m is too short to regress a slope")
    resid = dp - slope_rad_per_m * dx
    # 1 - SS_res / SS_tot, not Sxy^2 / (Sxx Syy): the latter rounds above 1 on exact lines
    r_squared = 1.0 - float(resid @ resid) / float(dp @ dp)
    return math.degrees(slope_rad_per_m) / 1000.0, r_squared
