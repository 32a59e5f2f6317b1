"""Finite-difference simulator for the radial nonlinear wave equation.

The field is evolved as w = r^2 u, which satisfies

    (d_tt - d_rr) w = r^2 F(u) - 2 u,    F(u) = |u|^(4/3) u  (or 0),

with no first-order term, so a plain leapfrog stencil on a uniform r-grid is
second-order accurate and, at cfl = 1, transports the d'Alembert part exactly
along grid diagonals.  That exactness is what the characteristic-ray integral
and the discrete finite-speed check rely on.

Two boundary policies: ``domain-of-dependence`` freezes the end nodes and
only the shrinking region [r_min + t, r_max - t] is trusted (diagnostics
refuse to read outside it); ``dirichlet-exact`` pins the ends to a supplied
closed form, after which the whole grid is usable.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

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
    "characteristic_integral",
    "virial",
    "smooth_cutoff",
]


class ConeCoverageError(RuntimeError):
    """Extraction asked for more light-cone range than the grid provides."""

    def __init__(self, message, required_r_max):
        super().__init__(f"{message}; the run needs r_max >= {required_r_max}")
        self.required_r_max = required_r_max


@dataclass(frozen=True)
class BlowUpTruncation:
    time: float
    radius: float


@dataclass(frozen=True)
class SimConfig:
    r_min: float
    r_max: float
    dr: float
    T: float
    cfl: float = 1.0
    nonlinearity: str = "focusing"            # "focusing" or "linear"
    boundary: str = "domain-of-dependence"    # or "dirichlet-exact"
    boundary_values: Callable | None = None   # u(r, t) for dirichlet-exact
    blowup_guard: float = 1e12

    def __post_init__(self):
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
        if self.boundary not in ("domain-of-dependence", "dirichlet-exact"):
            raise ValueError("unknown boundary policy")
        if self.boundary == "dirichlet-exact" and self.boundary_values is None:
            raise ValueError("dirichlet-exact needs boundary_values")

    @property
    def dt(self):
        return self.cfl * self.dr

    @property
    def n_r(self):
        return int(round((self.r_max - self.r_min) / self.dr))

    @property
    def n_t(self):
        return int(round(self.T / self.dt))


class Trajectory:
    """Time history of w = r^2 u on the grid, with derived-field accessors."""

    def __init__(self, cfg, r, times, w, u1_initial, blowup=None):
        self.cfg = cfg
        self.r = r
        self.times = times
        self.w = w                    # shape (len(times), len(r))
        self.u1_initial = u1_initial
        self.blowup = blowup

    def level(self, t: float) -> int:
        n = int(round(t / self.cfg.dt))
        if n < 0 or n >= len(self.times) or abs(self.times[n] - t) > 0.5 * self.cfg.dt:
            raise ValueError(f"time {t} is not stored in the trajectory")
        return n

    def u_level(self, n):
        return self.w[n] / self.r ** 2

    def ut_level(self, n):
        """Velocity at level n: centered in time, exact data at n = 0."""
        if n == 0:
            return self.u1_initial.copy()
        if n >= len(self.times) - 1:
            raise ValueError("no forward level available for a centered velocity")
        return (self.w[n + 1] - self.w[n - 1]) / (2.0 * self.cfg.dt) / self.r ** 2

    def ur_level(self, n):
        u = self.u_level(n)
        out = np.empty_like(u)
        out[1:-1] = (u[2:] - u[:-2]) / (2.0 * self.cfg.dr)
        out[0] = (u[1] - u[0]) / self.cfg.dr
        out[-1] = (u[-1] - u[-2]) / self.cfg.dr
        return out

    def trusted_bounds(self, t: float):
        """Radial interval whose values are unpolluted by the boundary policy."""
        if self.cfg.boundary == "dirichlet-exact":
            return self.cfg.r_min, self.cfg.r_max
        return self.cfg.r_min + t, self.cfg.r_max - t

    def trusted_mask(self, t: float):
        lo, hi = self.trusted_bounds(t)
        return (self.r >= lo - 1e-12) & (self.r <= hi + 1e-12)

    def discrete_residual(self, i: int, n: int) -> float:
        """Leapfrog residual at an interior stencil; zero up to roundoff."""
        cfg = self.cfg
        if not (1 <= i < len(self.r) - 1 and 1 <= n < len(self.times) - 1):
            raise ValueError("stencil must be interior in space and time")
        lap = (self.w[n][i + 1] - 2.0 * self.w[n][i] + self.w[n][i - 1]) / cfg.dr ** 2
        return float(self.w[n + 1][i] - 2.0 * self.w[n][i] + self.w[n - 1][i]
                     - cfg.dt ** 2 * (lap + _source(self.w[n][i:i + 1], self.r[i:i + 1], cfg)[0]))


def _source(w, r, cfg):
    """r^2 F(w/r^2) - 2 w / r^2 evaluated pointwise."""
    u = w / r ** 2
    out = -2.0 * u
    if cfg.nonlinearity == "focusing":
        out = out + r ** 2 * (np.abs(u) ** (4.0 / 3.0) * u)
    return out


def simulate(d, cfg: SimConfig) -> Trajectory:
    """Leapfrog evolution of the data pair on the configured grid.

    The first step is the Taylor expansion
    w^1 = w^0 + dt * r^2 u1 + (dt^2/2) (D_rr w^0 + source), which keeps the
    scheme time-reversal symmetric: data (0, u1) run forward and with -u1
    give exactly opposite fields.
    """
    r = cfg.r_min + cfg.dr * np.arange(cfg.n_r + 1)
    u0g = np.asarray(d.u0(r), dtype=float)
    u1g = np.asarray(d.u1(r), dtype=float)
    dt = cfg.dt
    n_t = cfg.n_t
    times = dt * np.arange(n_t + 1)

    def boundary_fill(w_arr, w_before, t):
        if cfg.boundary == "dirichlet-exact":
            w_arr[0] = r[0] ** 2 * cfg.boundary_values(r[0], t)
            w_arr[-1] = r[-1] ** 2 * cfg.boundary_values(r[-1], t)
        else:
            w_arr[0] = w_before[0]
            w_arr[-1] = w_before[-1]

    w_prev = r ** 2 * u0g
    levels = [w_prev.copy()]
    lap = np.zeros_like(w_prev)
    lap[1:-1] = (w_prev[2:] - 2.0 * w_prev[1:-1] + w_prev[:-2]) / cfg.dr ** 2
    w_curr = w_prev + dt * r ** 2 * u1g + 0.5 * dt * dt * (lap + _source(w_prev, r, cfg))
    boundary_fill(w_curr, w_prev, times[1] if n_t >= 1 else 0.0)
    blowup = None
    if n_t >= 1:
        levels.append(w_curr.copy())
    for n in range(1, n_t):
        w_next = np.empty_like(w_curr)
        w_next[1:-1] = (2.0 * w_curr[1:-1] - w_prev[1:-1]
                        + dt * dt * ((w_curr[2:] - 2.0 * w_curr[1:-1] + w_curr[:-2]) / cfg.dr ** 2
                                     + _source(w_curr[1:-1], r[1:-1], cfg)))
        boundary_fill(w_next, w_curr, times[n + 1])
        peak = np.max(np.abs(w_next))
        if not np.isfinite(peak) or peak > cfg.blowup_guard:
            loc = int(np.argmax(np.abs(w_next)))
            blowup = BlowUpTruncation(time=float(times[n + 1]), radius=float(r[loc]))
            break
        levels.append(w_next.copy())
        w_prev, w_curr = w_curr, w_next
    w = np.array(levels)
    return Trajectory(cfg, r, times[: len(levels)], w, u1g, blowup=blowup)


def energy(tr: Trajectory, t: float, R: float) -> float:
    """Exterior energy of the simulated field at time t:

        sigma4 * int_R^{r_max} (u_r^2/2 + u_t^2/2 - (3/10)|u|^(10/3)) rho^4 drho.

    The potential term is included only for the focusing equation, so the
    quantity is the conserved one for whichever equation was simulated.  A
    request for the final stored level falls back one step (the centered
    velocity needs a forward level).
    """
    n = tr.level(t)
    if n == len(tr.times) - 1 and n > 0:
        n -= 1
    if R < tr.r[0] or R > tr.r[-1]:
        warnings.warn(f"R={R} outside the grid; clamped")
        R = min(max(R, tr.r[0]), tr.r[-1])
    u = tr.u_level(n)
    ut = tr.ut_level(n)
    ur = tr.ur_level(n)
    dens = 0.5 * ur ** 2 + 0.5 * ut ** 2
    if tr.cfg.nonlinearity == "focusing":
        dens = dens - 0.3 * np.abs(u) ** (10.0 / 3.0)
    dens = dens * tr.r ** 4
    mask = tr.r >= R - 1e-12
    return SIGMA4 * float(np.trapezoid(dens[mask], tr.r[mask]))


def _wt_level(tr, n):
    if n == 0:
        return tr.r ** 2 * tr.u1_initial
    return (tr.w[n + 1] - tr.w[n - 1]) / (2.0 * tr.cfg.dt)


def extract_outgoing(tr: Trajectory, s: float) -> float:
    """Outgoing profile value G_+(s) read off the simulation.

    Samples r^2 u_t at r = t + s on the three well-separated retarded times
    t1, t1/2, t1/4 (t1 the largest usable one) and extrapolates the exact
    1/(t+s) tail away with a quadratic fit in x = 1/(t+s).  Samples are only
    taken inside the trusted region of the boundary policy; under
    domain-of-dependence that requires s >= r_min (the inner pollution front
    travels on the same diagonals as the sampling ray).
    """
    cfg = tr.cfg
    dt = cfg.dt
    t_grid_max = tr.times[-1] - dt                 # centered velocity needs n+1
    if cfg.boundary == "dirichlet-exact":
        t_cone = tr.r[-1] - s
    else:
        t_cone = 0.5 * (tr.r[-1] - s - cfg.dr)     # need t + s <= r_max - t
        if s < cfg.r_min + cfg.dr:
            raise ConeCoverageError(
                f"s={s} is inside the inner pollution band (s < r_min + dr); "
                "use dirichlet-exact boundaries", tr.r[-1])
    t1 = min(t_grid_max, t_cone)
    t_needed = 8.0 * dt
    if t1 < t_needed:
        required = 2.0 * t_needed + s if cfg.boundary != "dirichlet-exact" else t_needed + s
        raise ConeCoverageError("insufficient light-cone coverage for extraction", required)
    samples = []
    for t_target in (t1, 0.5 * t1, 0.25 * t1):
        n = int(round(t_target / dt))
        n = max(1, min(n, len(tr.times) - 2))
        t_n = tr.times[n]
        r_target = t_n + s
        lo, hi = tr.trusted_bounds(t_n)
        if r_target < max(tr.r[0], lo) or r_target > min(tr.r[-1], hi):
            raise ConeCoverageError("sampling ray leaves the grid or trusted region",
                                    s + tr.times[-1])
        wt = _wt_level(tr, n)
        val = float(np.interp(r_target, tr.r, wt))
        samples.append((t_n + s, val))
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
    if cfg.cfl != 1.0:
        raise ValueError("the ray passes through grid nodes only at cfl = 1")
    offset = (1.0 - cfg.r_min) / cfg.dr
    if abs(offset - round(offset)) > 1e-9:
        raise ValueError("grid must contain the ray foot r = 1")
    i0 = int(round(offset))
    if not (1 <= i0 < len(tr.r) - 1):
        raise ValueError("r = 1 must be an interior grid node")
    n_ray = int(round((R_prime - 1.0) / cfg.dr))
    i_end = i0 + n_ray
    if i_end >= len(tr.r) - 1 or n_ray + 1 >= len(tr.times):
        raise ValueError("trajectory does not cover the ray up to R_prime "
                         f"(needs T >= {R_prime - 1.0 + cfg.dt} and r_max > {R_prime + cfg.dr})")
    t_end = tr.times[n_ray]
    lo, hi = tr.trusted_bounds(t_end)
    if tr.r[i_end] > hi + 1e-12:
        raise ValueError("ray endpoint outside the trusted region; enlarge r_max")

    def psi(i, n):
        wt = _wt_level(tr, n)[i]
        wr = (tr.w[n][i + 1] - tr.w[n][i - 1]) / (2.0 * cfg.dr)
        return wt - wr

    lhs = psi(i_end, n_ray) - psi(i0, 0)
    idx = i0 + np.arange(n_ray + 1)
    ray_r = tr.r[idx]
    ray_w = tr.w[np.arange(n_ray + 1), idx]
    rhs = float(np.trapezoid(_source(ray_w, ray_r, cfg), ray_r))
    return float(lhs), rhs


def smooth_cutoff(x):
    """phi = ramp^2 with a quintic-smoothstep ramp: 1 for x <= 2, 0 for x >= 3."""
    x = np.asarray(x, dtype=float)
    tau = np.clip(x - 2.0, 0.0, 1.0)
    ramp = 1.0 - (10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5)
    return ramp * ramp


def _cutoff_derivatives(x):
    x = np.asarray(x, dtype=float)
    tau = np.clip(x - 2.0, 0.0, 1.0)
    s = 10.0 * tau ** 3 - 15.0 * tau ** 4 + 6.0 * tau ** 5
    ds = 30.0 * tau ** 2 - 60.0 * tau ** 3 + 30.0 * tau ** 4
    d2s = 60.0 * tau - 180.0 * tau ** 2 + 120.0 * tau ** 3
    inside = (x > 2.0) & (x < 3.0)
    ramp = 1.0 - s
    phi = ramp * ramp
    dphi = np.where(inside, -2.0 * ramp * ds, 0.0)
    d2phi = np.where(inside, 2.0 * ds * ds - 2.0 * ramp * d2s, 0.0)
    return phi, dphi, d2phi


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
    inside the grid.
    """
    if 3.0 * scale > tr.r[-1] + 1e-12:
        raise ValueError("cutoff ramp [2*scale, 3*scale] exceeds the grid")
    n = tr.level(t)
    if n == len(tr.times) - 1 and n > 0:
        n -= 1
    u = tr.u_level(n)
    ut = tr.ut_level(n)
    ur = tr.ur_level(n)
    phi, dphi, _ = _cutoff_derivatives(tr.r / scale)
    r4 = tr.r ** 4

    def quad(values):
        return SIGMA4 * float(np.trapezoid(values, tr.r))

    j = quad(u * u * phi * r4)
    jp = 2.0 * quad(u * ut * phi * r4)
    core = ut ** 2 - ur ** 2
    if tr.cfg.nonlinearity == "focusing":
        core = core + np.abs(u) ** (10.0 / 3.0)
    jpp = 2.0 * quad(core * phi * r4) - 2.0 * quad(u * ur * dphi / scale * r4)
    return j, jp, jpp
