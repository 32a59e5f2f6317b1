"""Finite-difference simulator for the radial nonlinear wave equation.

The field is evolved as w = r^2 u, which satisfies

    (d_tt - d_rr) w = r^2 F(u) - 2 u,    F(u) = |u|^(4/3) u  (or 0),

with no first-order term, so a plain leapfrog stencil on a uniform r-grid is
second-order accurate.  With c2 = (dt/dr)^2 and the source written as
r^2 F(u) - 2 u = w (r^(-8/3) |w|^(4/3) - 2/r^2), the step is taken in the
folded form

    w_next = c2 (w[i+1] + w[i-1]) - w_prev + w (alpha |w|^(4/3) + gamma),
    alpha = dt^2 r^(-8/3),    gamma = 2 - 2 c2 - 2 dt^2 / r^2,

with alpha and gamma computed once per run and |w|^(4/3) = (cbrt w)^4.
That is ten passes over the row per step, nine at cfl = 1, where the
multiply by c2 = 1.0 is skipped (x * 1.0 is x), plus one BLAS dot for the
blow-up guard; the exact max/min test runs only when that sum of squares
exceeds the guard squared (see ``_exceeds_guard``).  Every level, level 0
included, passes that one guard, and the run ignores overflow, so an
overflow anywhere becomes an inf that the guard reports, never a numpy
warning.  About 5 ns per point-step on an 8001-node row at cfl = 1: 5.0 to
5.6 in three traced runs (``pdesim.ns_per_point_step`` of ``bench/run.py
--trace 1``; 2-vCPU VM, Python 3.11, numpy 2.4.6).
At cfl = 1 the d'Alembert part is w[i+1] + w[i-1] - w_prev, so it is
transported along grid diagonals up to the rounding of the additions, and
the -2u potential term sits in gamma.  That is what the characteristic-ray
integral and the discrete finite-speed check rely on.
``Trajectory.discrete_residual`` keeps the textbook stencil
(w[i+1] - 2 w + w[i-1]) / dr^2, an independent check of the folded step.

A run with ``boundary_values`` pins both end nodes to that closed form, after
which the whole grid is usable; a run without it freezes them at level 0,
and only the shrinking domain of dependence [r_min + t, r_max - t] is
trusted.  ``extract_outgoing`` and ``characteristic_integral`` refuse to read
outside it; ``energy`` and ``virial`` integrate the range they are given,
trusted or not, and raise ValueError rather than return a number that is not
finite.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple

import numpy as np

from .nonlinearity import SIGMA4

__all__ = [
    "SimConfig",
    "Trajectory",
    "BlowUpTruncation",
    "ConeCoverageError",
    "simulate",
    "energy",
    "extract_outgoing",
    "outgoing_levels",
    "characteristic_integral",
    "virial",
    "smooth_cutoff",
]


# Work budget of one run, checked by SimConfig before anything is allocated;
# 10^10 point-steps take a few minutes.
MAX_STEPS = 1_000_000
MAX_POINT_STEPS = 10 ** 10
# |w| = r^2 |u| past this value (or non-finite) truncates the run as blow-up.
BLOWUP_GUARD = 1e12
_GUARD_SQUARED = BLOWUP_GUARD ** 2


class ConeCoverageError(RuntimeError):
    """Extraction asked for more light-cone range than the run provides;
    ``required_T`` and ``required_r_max`` give a run that provides it, its
    other settings unchanged (None where none does)."""

    def __init__(self, message, required_T=None, required_r_max=None):
        if required_r_max is not None:
            message += (f"; the run needs T >= {required_T:.12g} and "
                        f"r_max >= {required_r_max:.12g}")
        super().__init__(message)
        self.required_T = required_T
        self.required_r_max = required_r_max


BlowUpTruncation = namedtuple("BlowUpTruncation", "time radius")


class SimConfig(namedtuple("SimConfig", "r_min r_max dr T cfl nonlinearity boundary_values",
                           defaults=(1.0, "focusing", None))):
    """Grid, nonlinearity ("focusing" or "linear") and end values of one run.

    The run takes n_t = round(T/dt) steps of dt = cfl * dr, so it ends at
    round(T/dt) * dt, which can lie up to dt/2 past T or short of it.
    ``boundary_values`` is the exact u(r, t) the ends are pinned to; without
    it they are frozen (see the module docstring).  The constructor checks
    every field, and ``_make``, so ``_replace`` too, goes through it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not all(map(math.isfinite, (self.r_min, self.r_max, self.dr, self.T, self.cfl))):
            raise ValueError("r_min, r_max, dr, T and cfl must be finite")
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.dr <= 0 or self.T <= 0:
            raise ValueError("dr and T must be positive")
        n = (self.r_max - self.r_min) / self.dr
        if abs(n - round(n)) > 1e-9 * max(n, 1.0):
            raise ValueError("dr must divide r_max - r_min")
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.nonlinearity not in ("focusing", "linear"):
            raise ValueError("nonlinearity must be 'focusing' or 'linear'")
        steps = self.T / self.dt
        if steps > MAX_STEPS:
            raise ValueError(f"T/dt = {steps:.3g} steps exceeds the budget of {MAX_STEPS}")
        if steps * (n + 1) > MAX_POINT_STEPS:
            raise ValueError(f"{steps * (n + 1):.3g} point-steps exceed the budget "
                             f"of {MAX_POINT_STEPS:.0e}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def dt(self):
        return self.cfl * self.dr

    @property
    def n_r(self):
        return int(round((self.r_max - self.r_min) / self.dr))

    @property
    def n_t(self):
        return int(round(self.T / self.dt))

    def grid(self):
        """Radii and level times of a run that does not blow up."""
        return (self.r_min + self.dr * np.arange(self.n_r + 1),
                self.dt * np.arange(self.n_t + 1))


class Trajectory:
    """Time history of w = r^2 u on the grid, with derived-field accessors.

    ``w`` holds the levels the run kept, one row each, and ``rows[n]`` is the
    row of level n (-1 if level n was not kept).  Every read of a level goes
    through :meth:`w_level`.
    """

    def __init__(self, cfg, r, times, w, u1_initial, blowup, rows):
        self.cfg = cfg
        self.r = r
        self.times = times
        self.w = w                    # shape (kept levels, len(r))
        self.rows = rows
        self.u1_initial = u1_initial
        self.blowup = blowup

    def level(self, t: float) -> int:
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        n = int(round(t / self.cfg.dt))
        if n < 0 or n >= len(self.times) or abs(self.times[n] - t) > 0.5 * self.cfg.dt:
            raise ValueError(f"time {t} is not stored in the trajectory")
        return n

    def w_level(self, n):
        """w at level n; ValueError unless the run kept that level."""
        if not 0 <= n < len(self.times) or self.rows[n] < 0:
            raise ValueError(f"level {n} was not kept by the simulation")
        return self.w[self.rows[n]]

    def u_level(self, n):
        return self.w_level(n) / self.r ** 2

    def ut_level(self, n):
        """Velocity at level n: centered in time, exact data at n = 0."""
        if n == 0:
            return self.u1_initial.copy()
        if n >= len(self.times) - 1:
            raise ValueError("no forward level available for a centered velocity")
        return _wt_level(self, n) / self.r ** 2

    def discrete_residual(self, i: int, n: int) -> float:
        """Leapfrog residual at an interior stencil; zero up to roundoff."""
        cfg = self.cfg
        if not (1 <= i < len(self.r) - 1 and 1 <= n < len(self.times) - 1):
            raise ValueError("stencil must be interior in space and time")
        w_prev, w, w_next = (self.w_level(m) for m in (n - 1, n, n + 1))
        lap = (w[i + 1] - 2.0 * w[i] + w[i - 1]) / cfg.dr ** 2
        src = _source(w[i:i + 1], self.r[i:i + 1] ** 2, cfg)[0]
        return float(w_next[i] - 2.0 * w[i] + w_prev[i] - cfg.dt ** 2 * (lap + src))


def _trusted_bounds(cfg, t):
    """Radial interval whose values are unpolluted by the ends."""
    if cfg.boundary_values is not None:
        return cfg.r_min, cfg.r_max
    return cfg.r_min + t, cfg.r_max - t


def _coefficient(w, a, b, out=None):
    """a |w|^(4/3) + b pointwise, with |w|^(4/3) = (cbrt w)^4; a = None (the
    linear equation) gives b itself.  The one definition of the nonlinearity:
    the source is w times this at (a, b) = _source_coefficients(r2, cfg).
    simulate calls it with the (a, b) it makes once per run; _source, which
    makes them again, serves only the oracles discrete_residual and
    characteristic_integral."""
    if a is None:
        return b
    out = np.cbrt(w, out=out)
    np.square(out, out=out)
    np.square(out, out=out)
    np.multiply(out, a, out=out)
    return np.add(out, b, out=out)


def _source_coefficients(r2, cfg):
    """(a, b) with r^2 F(u) - 2 u = w (a |w|^(4/3) + b) at u = w / r2:
    a = r^(-8/3) (None for the linear equation) and b = -2 / r^2."""
    a = r2 ** (-4.0 / 3.0) if cfg.nonlinearity == "focusing" else None
    return a, -2.0 / r2


def _source(w, r2, cfg):
    """r^2 F(u) - 2 u at u = w / r2, r2 = r^2, evaluated pointwise."""
    return w * _coefficient(w, *_source_coefficients(r2, cfg))


def _exceeds_guard(row):
    """True when an entry of the row is non-finite or larger than BLOWUP_GUARD
    in magnitude.

    The sum of squares, one BLAS ddot, filters first: only a row whose sum is
    not <= BLOWUP_GUARD**2 (NaN and inf included) gets the exact max/min
    test.  The filter never passes a row the exact test would trip.  Every
    term is non-negative, so a rounded sum, in any order and with or without
    FMA, is never below its largest rounded term; and for |w| >=
    nextafter(BLOWUP_GUARD, inf) the square w * w rounds above the double
    BLOWUP_GUARD**2 = 1e24.  The verdict is therefore the exact test's for
    any BLAS and thread count.
    """
    if np.dot(row, row) <= _GUARD_SQUARED:
        return False
    hi, lo = row.max(), row.min()
    return not (np.isfinite(hi) and np.isfinite(lo)) or max(hi, -lo) > BLOWUP_GUARD


def simulate(d, cfg: SimConfig, levels=None) -> Trajectory:
    """Leapfrog evolution of the data pair on the configured grid.

    The first step is the Taylor expansion
    w^1 = w^0 + dt * r^2 u1 + (dt^2/2) (D_rr w^0 + source), which keeps the
    scheme time-reversal symmetric: data (0, u1) run forward and with -u1
    give exactly opposite fields.  Every level passes the one blow-up guard
    before it is kept, and an overflow in any level is an inf that the guard
    reports.  Data that are not finite on the grid raise ValueError, and so
    does a level 0 past the guard (w = r^2 u0 beyond ``BLOWUP_GUARD``).

    ``levels`` lists the level indices to keep (default: all of them); the
    memory held is one grid row per kept level plus a few work rows.  A run
    truncated by the blow-up guard keeps the requested levels it reached.
    """
    r, times = cfg.grid()
    u0g = np.asarray(d.u0(r), dtype=float)
    u1g = np.asarray(d.u1(r), dtype=float)
    if not (np.all(np.isfinite(u0g)) and np.all(np.isfinite(u1g))):
        raise ValueError("initial data are not finite on the grid")
    dt = cfg.dt
    n_t = cfg.n_t
    kept = range(n_t + 1) if levels is None else sorted(set(map(operator.index, levels)))
    if kept and not 0 <= kept[0] <= kept[-1] <= n_t:
        raise ValueError(f"levels to keep must lie in 0..{n_t}")
    rows = np.full(n_t + 1, -1)
    rows[kept] = np.arange(len(kept))
    store = np.empty((len(kept), len(r)))

    # The closed form is called on Python floats, which it evaluates faster
    # than numpy scalars and to the same bits.
    r_lo, r_hi = float(r[0]), float(r[-1])
    t_levels = times.tolist()

    def end_value(x, t):
        u = cfg.boundary_values(x, t)
        if not math.isfinite(u):   # else the guard would report it as blow-up
            raise ValueError(f"boundary_values is {float(u)!r} at r={x!r}, t={t!r}")
        return x ** 2 * u

    r2 = r ** 2
    n_levels = n_t + 1
    blowup = None
    with np.errstate(over="ignore"):   # an overflow is an inf, which the guard reports
        w_curr = r2 * u0g
        if _exceeds_guard(w_curr):
            raise ValueError(f"initial data exceed the blow-up guard: |r^2 u0| > {BLOWUP_GUARD:g}")
        if rows[0] >= 0:
            store[rows[0]] = w_curr
        # The folded step of the module docstring, in place on three rotating
        # rows and one interior work row.  It writes interiors only, so frozen
        # ends keep the level-0 values that all three rows start with.
        w_prev, w_next = w_curr.copy(), w_curr.copy()
        a, b = _source_coefficients(r2[1:-1], cfg)
        c2 = (dt / cfg.dr) ** 2
        alpha = None if a is None else (dt * dt) * a
        gamma = (2.0 - 2.0 * c2) + (dt * dt) * b
        f = np.empty_like(gamma)
        for n in range(n_t):
            nxt, w = w_next[1:-1], w_curr[1:-1]
            if n == 0:   # the Taylor step, D_rr w + source in acc
                acc = (w_curr[2:] - 2.0 * w + w_curr[:-2]) / cfg.dr ** 2
                acc += w * _coefficient(w, a, b)
                nxt[:] = w + dt * r2[1:-1] * u1g[1:-1] + 0.5 * dt * dt * acc
            else:
                np.add(w_curr[2:], w_curr[:-2], out=nxt)
                if c2 != 1.0:  # x * 1.0 is x, so cfl = 1 skips a row pass
                    np.multiply(nxt, c2, out=nxt)
                np.subtract(nxt, w_prev[1:-1], out=nxt)
                np.multiply(w, _coefficient(w, alpha, gamma, out=f), out=f)
                np.add(nxt, f, out=nxt)
            if cfg.boundary_values is not None:
                w_next[0] = end_value(r_lo, t_levels[n + 1])
                w_next[-1] = end_value(r_hi, t_levels[n + 1])
            if _exceeds_guard(w_next):
                loc = int(np.argmax(np.abs(w_next)))
                blowup = BlowUpTruncation(time=t_levels[n + 1], radius=float(r[loc]))
                n_levels = n + 1
                break
            if rows[n + 1] >= 0:
                store[rows[n + 1]] = w_next
            w_prev, w_curr, w_next = w_curr, w_next, w_prev
    rows = rows[:n_levels]
    return Trajectory(cfg, r, times[:n_levels], store[: np.count_nonzero(rows >= 0)], u1g,
                      blowup=blowup, rows=rows)


def energy(tr: Trajectory, t: float, R: float) -> float:
    """Exterior energy of the simulated field at time t:

        sigma4 * int_R^{r_max} (u_r^2/2 + u_t^2/2 - (3/10)|u|^(10/3)) rho^4 drho.

    The potential term is included only for the focusing equation, so the
    quantity is the conserved one for whichever equation was simulated.  A
    request for the final stored level falls back one step (the centered
    velocity needs a forward level).  An R that is not finite or lies off the
    grid [r_min, r_max] raises ValueError, and so does an energy that is not finite.
    """
    if not math.isfinite(R):
        raise ValueError(f"R must be finite, got {R}")
    if not tr.r[0] <= R <= tr.r[-1]:
        raise ValueError(f"R={R} outside the grid [{tr.r[0]}, {tr.r[-1]}]")
    u, ut, ur = _fields(tr, t)
    with np.errstate(over="ignore", invalid="ignore"):   # _finite reports it
        dens = 0.5 * ur ** 2 + 0.5 * ut ** 2
        if tr.cfg.nonlinearity == "focusing":
            dens = dens - 0.3 * np.abs(u) ** (10.0 / 3.0)
        dens = dens * tr.r ** 4
        mask = tr.r >= R - 1e-12
        e = SIGMA4 * float(np.trapezoid(dens[mask], tr.r[mask]))
    return _finite("energy", t, e)


def _finite(name, t, value):
    """value, or ValueError naming the quantity and t if it is not finite."""
    if not math.isfinite(value):
        raise ValueError(f"{name} at t={t!r} is not finite: {value!r}")
    return value


def _fields(tr, t):
    """(u, u_t, u_r) at time t; a request for the final stored level falls
    back one step, since the centered velocity needs a forward level."""
    n = tr.level(t)
    if n == len(tr.times) - 1 and n > 0:
        n -= 1
    u = tr.u_level(n)
    return u, tr.ut_level(n), np.gradient(u, tr.cfg.dr)


def _wt_level(tr, n):
    if n == 0:
        return tr.r ** 2 * tr.u1_initial
    return (tr.w_level(n + 1) - tr.w_level(n - 1)) / (2.0 * tr.cfg.dt)


def _cone_bounds(cfg, s):
    """(T, r_max on the grid) with which a run like cfg passes every check of
    :func:`_outgoing_samples` at s.  The first sample t1 must reach 8 dt,
    and with pinned ends t1/4 + s must reach r_min, each with a level of
    slack for the rounding to levels; the last level but one and the cone,
    r_max - s pinned or (r_max - s - dr) / 2 frozen, must reach t1.  Both
    bounds fall as s grows wherever t1/4 + s bounds t1."""
    dt = cfg.dt
    t1 = 9.0 * dt
    if cfg.boundary_values is None:
        r_max = s + cfg.dr + 2.0 * t1
    else:
        t1 = max(t1, 4.0 * (cfg.r_min - s) + 5.0 * dt)
        r_max = s + t1
    n = math.ceil((r_max - cfg.r_min) / cfg.dr - 1e-9)
    return t1 + 2.0 * dt, cfg.r_min + max(n, 1) * cfg.dr


def _outgoing_samples(cfg, n_levels, s):
    """(level, t + s) of the three samples :func:`extract_outgoing` takes for
    G_+(s) on a run of ``n_levels`` levels; ConeCoverageError, naming the T
    and r_max a run needs, if the light cone of the grid is too short."""
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s}")
    r, times = cfg.grid()
    times = times[:n_levels]
    dt = cfg.dt
    t_grid_max = times[-1] - dt                    # centered velocity needs n+1
    if cfg.boundary_values is not None:
        t_cone = r[-1] - s
    else:
        t_cone = 0.5 * (r[-1] - s - cfg.dr)        # need t + s <= r_max - t
        if s < cfg.r_min + cfg.dr:
            raise ConeCoverageError(
                f"s={s} is inside the inner pollution band (s < r_min + dr); "
                "pin the ends with boundary_values")
    t1 = min(t_grid_max, t_cone)
    if t1 < 8.0 * dt:
        raise ConeCoverageError("insufficient light-cone coverage for extraction",
                                *_cone_bounds(cfg, s))
    samples = []
    for t_target in (t1, 0.5 * t1, 0.25 * t1):
        n = int(round(t_target / dt))
        n = max(1, min(n, len(times) - 2))
        if times[n] + s > min(r[-1], cfg.r_max):   # rounded past a pinned cone's end
            n -= 1
        t_n = times[n]
        r_target = t_n + s
        lo, hi = _trusted_bounds(cfg, t_n)
        if r_target < max(r[0], lo) or r_target > min(r[-1], hi):
            raise ConeCoverageError("sampling ray leaves the grid or trusted region",
                                    *_cone_bounds(cfg, s))
        samples.append((n, r_target))
    return samples


def outgoing_levels(cfg: SimConfig, n_levels: int, s: float):
    """Levels :func:`extract_outgoing` reads for G_+(s) on a run of
    ``n_levels`` levels: n - 1 and n + 1 around each sample (n >= 1)."""
    return sorted({m for n, _ in _outgoing_samples(cfg, n_levels, s) for m in (n - 1, n + 1)})


def extract_outgoing(tr: Trajectory, s: float) -> float:
    """Outgoing profile value G_+(s) read off the simulation.

    Samples r^2 u_t at r = t + s on the three well-separated retarded times
    t1, t1/2, t1/4 (t1 the largest usable one) and extrapolates the exact
    1/(t+s) tail away with a quadratic fit in x = 1/(t+s).  Samples are only
    taken inside the trusted region; with frozen ends that requires
    s >= r_min (the inner pollution front travels on the same diagonals as
    the sampling ray).
    """
    samples = [(x, float(np.interp(x, tr.r, _wt_level(tr, n))))
               for n, x in _outgoing_samples(tr.cfg, len(tr.times), s)]
    xs = np.array([1.0 / t for t, _ in samples])
    vals = np.array([v for _, v in samples])
    coef = np.linalg.solve(np.vander(xs, 3, increasing=True), vals)
    return float(coef[0])


def characteristic_integral(tr: Trajectory, R_prime: float):
    """Both sides of the ray identity obtained by integrating the w-equation
    along r = t + 1:

        (w_t - w_r)(R', R'-1) - (w_t - w_r)(1, 0)
            = int_1^{R'} (r^2 F(u) - 2 u)(r, r-1) dr.

    Requires cfl = 1 and a grid containing r = 1 so the ray passes through
    nodes.  Returns (left side, right side).
    """
    cfg = tr.cfg
    if not (math.isfinite(R_prime) and R_prime > 1.0):
        raise ValueError(f"R_prime must be finite and past the ray foot r = 1, got {R_prime}")
    if cfg.cfl != 1.0:
        raise ValueError("the ray passes through grid nodes only at cfl = 1")
    offset = (1.0 - cfg.r_min) / cfg.dr
    if abs(offset - round(offset)) > 1e-9:
        raise ValueError("grid must contain the ray foot r = 1")
    i0 = int(round(offset))
    if not (1 <= i0 < len(tr.r) - 1):
        raise ValueError("r = 1 must be an interior grid node")
    steps = (R_prime - 1.0) / cfg.dr
    if abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"R_prime={R_prime} is not a grid node on the ray")
    n_ray = int(round(steps))
    i_end = i0 + n_ray
    if i_end >= len(tr.r) - 1 or n_ray + 1 >= len(tr.times):
        raise ValueError("trajectory does not cover the ray up to R_prime "
                         f"(needs T >= {R_prime - 1.0 + cfg.dt} and r_max > {R_prime + cfg.dr})")
    t_end = tr.times[n_ray]
    lo, hi = _trusted_bounds(cfg, t_end)
    if tr.r[i_end] > hi + 1e-12:
        raise ValueError("ray endpoint outside the trusted region; enlarge r_max")

    def psi(i, n):
        wt = _wt_level(tr, n)[i]
        w = tr.w_level(n)
        wr = (w[i + 1] - w[i - 1]) / (2.0 * cfg.dr)
        return wt - wr

    lhs = psi(i_end, n_ray) - psi(i0, 0)
    idx = i0 + np.arange(n_ray + 1)
    ray_r = tr.r[idx]
    ray_w = np.array([tr.w_level(n)[i] for n, i in enumerate(idx)])
    rhs = float(np.trapezoid(_source(ray_w, ray_r ** 2, cfg), ray_r))
    return float(lhs), rhs


def _cutoff(x):
    """(phi, phi') for phi = ramp^2 with a quintic-smoothstep ramp."""
    x = np.asarray(x, dtype=float)
    tau = np.clip(x - 2.0, 0.0, 1.0)
    ramp = 1.0 - (10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5)
    dramp = 30.0 * tau ** 2 - 60.0 * tau ** 3 + 30.0 * tau ** 4
    return ramp * ramp, np.where((x > 2.0) & (x < 3.0), -2.0 * ramp * dramp, 0.0)


def smooth_cutoff(x):
    """phi = ramp^2 with a quintic-smoothstep ramp: 1 for x <= 2, 0 for x >= 3."""
    return _cutoff(x)[0]


def virial(tr: Trajectory, t: float, scale: float):
    """Localized mass J and its first two time derivatives at time t:

        J   = int |u|^2 phi(|x|/scale) dx,
        J'  = 2 int u u_t phi dx,
        J'' = 2 int (u_t^2 - |u_r|^2 + |u|^{10/3}) phi dx
              - 2 int u u_r phi'(|x|/scale) / scale dx,

    with the cutoff of :func:`smooth_cutoff` held at the fixed ``scale``
    (so for stationary data J is constant and J' vanishes).  The |u|^{10/3}
    term is present only for the focusing equation.  All integrals are grid
    quadratures over [r_min, r_max]; the caller keeps the field supported
    inside the grid.  A value that is not finite raises ValueError.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be finite and positive, got {scale}")
    if 3.0 * scale > tr.r[-1] + 1e-12:
        raise ValueError("cutoff ramp [2*scale, 3*scale] exceeds the grid")
    u, ut, ur = _fields(tr, t)
    phi, dphi = _cutoff(tr.r / scale)
    r4 = tr.r ** 4

    def quad(values):
        return SIGMA4 * float(np.trapezoid(values, tr.r))

    with np.errstate(over="ignore", invalid="ignore"):   # _finite reports it
        j = quad(u * u * phi * r4)
        jp = 2.0 * quad(u * ut * phi * r4)
        core = ut ** 2 - ur ** 2
        if tr.cfg.nonlinearity == "focusing":
            core = core + np.abs(u) ** (10.0 / 3.0)
        jpp = 2.0 * quad(core * phi * r4) - 2.0 * quad(u * ur * dphi / scale * r4)
    return tuple(_finite(name, t, v) for name, v in zip(("J", "J'", "J''"), (j, jp, jpp)))
