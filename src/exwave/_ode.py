"""Embedded Dormand-Prince 5(4) integrator with PI step control and dense output.

Small, dependency-free (pure Python on tuples of floats, every sum taken in
a fixed order) and fully deterministic: identical inputs give
bit-identical trajectories.  The repeat-run tests rely on it
(``test_report_json_deterministic``, ``test_repeated_runs_byte_identical``,
``test_verify_table_matches_table1``), and so does every ``cmp`` of CLI or
demo output between two versions of the package.  Supports a
single terminal event located on the dense interpolant by :func:`bisect`,
the package's one bracketing root loop (ITP); every root finder uses it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Callable

__all__ = ["IntegrationFailure", "DenseSolution", "OdeResult", "bisect", "solve_dopri5"]

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
# the 5th-order weights; the 7th stage is f at the new state (FSAL)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# quartic dense-output coefficients (Shampine's interpolant for the pair
# above): one row per stage, one weight per power of x
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)
_EPS = math.ulp(1.0)

_SAFETY = 0.9
_ALPHA = 0.17
_BETA = 0.04
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 1_000_000    # attempted steps per solve


class IntegrationFailure(RuntimeError):
    """Step-size underflow, step budget exhausted or a non-finite step;
    carries diagnostics."""

    def __init__(self, message, t, y, h, nsteps):
        super().__init__(f"{message} at t={float(t)!r} (h={float(h)!r}, steps={nsteps})")
        self.t = t
        self.y = tuple(y)
        self.h = h
        self.nsteps = nsteps


class DenseSolution:
    """Piecewise-quartic interpolant over the accepted steps: ``ts`` and
    ``ys`` hold the step points and states, ``qs`` each step's dense
    coefficients, one 4-tuple per component."""

    def __init__(self, ts, ys, qs):
        self.ts, self.ys, self.qs = ts, ys, qs

    def __call__(self, t: float) -> tuple:
        """The state at t, by Horner's rule on the step that holds t."""
        i = min(max(bisect_right(self.ts, t) - 1, 0), len(self.qs) - 1)
        h = self.ts[i + 1] - self.ts[i]
        x = (t - self.ts[i]) / h
        return tuple(yc + h * (x * (q0 + x * (q1 + x * (q2 + x * q3))))
                     for yc, (q0, q1, q2, q3) in zip(self.ys[i], self.qs[i]))


def bisect(f, lo, hi, f_lo, width, f_hi):
    """Shrink [lo, hi], across which f changes sign (f(lo) = f_lo, f(hi) =
    f_hi), to at most ``width`` or to adjacent floats, in at most 200
    evaluations of f.

    Points are ITP's (Oliveira & Takahashi, ACM TOMS 47(1), 2020; kappa1 =
    0.2 / (hi - lo), kappa2 = 2, n0 = 1): at most one evaluation more than
    bisection (two for a ``width`` below the float spacing), superlinear on
    a smooth simple root.  An infinite end value gives the midpoint; an exact
    0 of f ends the search at that point and its neighbour inside; a NaN
    raises ValueError naming the point.  No bracket of finite floats
    overflows.
    """
    if not lo < hi:
        raise ValueError(f"bisect needs lo < hi, got lo={lo!r}, hi={hi!r}")
    if f_lo != f_lo:
        raise ValueError(f"bisect: f({lo!r}) is NaN, so no sign brackets the root")
    if f_lo == 0.0:
        return lo, math.nextafter(lo, hi)
    if f_hi != f_hi:
        raise ValueError(f"bisect: f({hi!r}) is NaN, so no sign brackets the root")
    h0 = 0.5 * hi - 0.5 * lo
    reach = 2.0   # half-width allowed after j steps, in units of h0: 2^(n0 - j)
    for _ in range(200):
        h = 0.5 * hi - 0.5 * lo
        mid = lo + h
        if hi - lo <= width or mid in (lo, hi):
            break
        if f_hi == 0.0:   # an exact root: its lower neighbour and it bracket it
            return math.nextafter(hi, lo), hi
        x = lo + h * (2.0 * f_lo / (f_lo - f_hi)) if f_lo != f_hi else mid   # regula falsi
        if lo < x < hi:
            step = mid - x
            delta = 0.4 * h * (h / h0)   # kappa1 (hi - lo)^2
            x = x + math.copysign(delta, step) if delta <= abs(step) else mid
            r = max(h0 * (reach - h / h0), 0.0)   # how far from mid the point may lie
            if abs(x - mid) > r:
                x = mid - math.copysign(r, step)
        else:
            x = mid
        reach *= 0.5
        f_x = f(x)
        if f_x != f_x:
            raise ValueError(f"bisect: f({x!r}) is NaN, so no sign brackets the root")
        # signs, not f_lo * f_x, which underflows to 0 for tiny values
        if f_x != 0.0 and (f_x < 0.0) == (f_lo < 0.0):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return lo, hi


# status is "finished" or "event"; sol is the DenseSolution over [t0, t]
OdeResult = namedtuple("OdeResult", "status t y sol nsteps")


def _stage(y, h, weights, ks):
    """y + h * sum_j weights[j] * ks[j], componentwise.  Each sum reads
    component c of every stage in place and is added left to right from 0.0."""
    out = []
    for c, yc in enumerate(y):
        total = 0.0
        for w, k in zip(weights, ks):
            total += w * k[c]
        out.append(yc + h * total)
    return tuple(out)


def _dense(ks):
    """Each component's four dense-output coefficients sum_j _P[j][m] * ks[j],
    m = 0..3, added over the stages left to right from 0.0."""
    out = []
    for c in range(len(ks[0])):
        q0 = q1 = q2 = q3 = 0.0
        for (p0, p1, p2, p3), k in zip(_P, ks):
            v = k[c]
            q0 += p0 * v
            q1 += p1 * v
            q2 += p2 * v
            q3 += p3 * v
        out.append((q0, q1, q2, q3))
    return tuple(out)


def _rms(v, scale):
    """Root mean square of v / scale; x * x overflows to inf, never raises."""
    total = 0.0
    for a, s in zip(v, scale):
        x = a / s
        total += x * x
    return math.sqrt(total / len(scale))


def _finite(fy, t, y, h):
    """fy = f(t, y); IntegrationFailure naming it unless it is finite."""
    if not all(map(math.isfinite, fy)):
        raise IntegrationFailure(f"non-finite f(t, y) = {tuple(map(float, fy))!r}", t, y, h, 0)
    return fy


def _initial_step(f, t0, y0, f0, tol, max_step):
    _finite(f0, t0, y0, 0.0)
    scale = [tol + tol * abs(v) for v in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    if not (math.isfinite(d0) and math.isfinite(d1)):
        raise ValueError(f"tol={tol!r} is too small for the initial state y0={y0!r}, "
                         "or y0 too large: its scaled norm overflows")
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = tuple(a + h0 * b for a, b in zip(y0, f0))
    f1 = _finite(f(t0 + h0, y1), t0 + h0, y1, h0)
    d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    h = min(100 * h0, h1, max_step)
    if h < 16.0 * _EPS * max(abs(t0), 1.0):   # the solver's underflow floor
        raise ValueError(f"tol={tol!r} is too small for the initial state: "
                         f"its first step h={float(h)!r} underflows")
    return h


def solve_dopri5(f: Callable, t0: float, t1: float, y0, tol: float,
                 max_step: float = math.inf, event: Callable | None = None) -> OdeResult:
    """Integrate y' = f(t, y) from t0 to t1, with ``tol`` as both the
    relative and the absolute error tolerance.  ``f`` takes a float and a
    tuple of floats and returns a sequence of floats.  ValueError unless tol
    is finite and positive, t0 is finite and t1 exceeds it by more than the
    step floor, so the solution holds at least one step.

    ``event(t, y)`` terminates the run at its first sign change, located to
    machine precision on the dense interpolant.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if not (math.isfinite(t0) and t1 - t0 > 16.0 * _EPS * max(abs(t1), 1.0)):
        raise ValueError(f"solve_dopri5 needs finite t0 < t1 beyond roundoff, "
                         f"got t0={t0!r}, t1={t1!r}")
    y = tuple(float(v) for v in y0)
    t = float(t0)
    k1 = f(t, y)
    h = _initial_step(f, t, y, k1, tol, max_step)
    err_old = 1e-4
    ts = [t]
    ys = [y]
    qs = []
    g_prev = float(event(t, y)) if event is not None else None
    nsteps = 0
    zero = (0.0,) * len(y)
    while t < t1:
        if t1 - t <= 16.0 * _EPS * max(abs(t1), 1.0):
            t = t1  # reached the endpoint to roundoff; y stands for y(t1)
            break
        if nsteps >= _MAX_STEPS:
            raise IntegrationFailure("step budget exhausted", t, y, h, nsteps)
        if h < 16.0 * _EPS * max(abs(t), 1.0):
            raise IntegrationFailure("step size underflow", t, y, h, nsteps)
        h_step = min(h, t1 - t)
        nsteps += 1
        ks = [k1]
        try:
            for i in range(1, 6):
                ks.append(f(t + _C[i] * h_step, _stage(y, h_step, _A[i], ks)))
            y_new = _stage(y, h_step, _B, ks)
            ks.append(f(t + h_step, y_new))
        except OverflowError:   # a float ** in f overflowed
            raise IntegrationFailure("non-finite step", t, y, h_step, nsteps) from None
        # h * sum_j _E[j] * ks[j]: 0.0 + x is x but for the sign of a zero
        err = _rms(_stage(zero, h_step, _E, ks),
                   [tol + tol * max(abs(a), abs(b)) for a, b in zip(y, y_new)])
        if not (all(map(math.isfinite, y_new)) and math.isfinite(err)):
            # NaN compares False with everything, so it would pass as accepted
            raise IntegrationFailure("non-finite step", t, y, h_step, nsteps)
        if err > 1.0:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
            continue
        t_new = t + h_step
        ts.append(t_new)
        ys.append(y_new)
        qs.append(_dense(ks))
        if event is not None:
            g_new = float(event(t_new, y_new))
            if g_prev is not None and g_prev * g_new < 0.0:
                sol = DenseSolution(ts, ys, qs)
                lo, hi = bisect(lambda s: float(event(s, sol(s))), t, t_new, g_prev,
                                4.0 * _EPS * max(abs(t_new), 1.0), g_new)
                te = 0.5 * (lo + hi)
                return OdeResult("event", te, sol(te), sol, nsteps)
            g_prev = g_new
        t = t_new
        y = y_new
        k1 = ks[6]  # FSAL
        factor = _SAFETY * err ** (-_ALPHA) * err_old ** _BETA if err > 0 else _MAX_FACTOR
        h = min(h_step * min(_MAX_FACTOR, max(_MIN_FACTOR, factor)), max_step)
        err_old = max(err, 1e-10)
    sol = DenseSolution(ts, ys, qs)
    return OdeResult("finished", t, y, sol, nsteps)
