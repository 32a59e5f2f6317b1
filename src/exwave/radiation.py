"""Radiation-field toolkit for radial free waves in five space dimensions.

A finite-energy radial free wave is determined by its radiation profile G in
the incoming (past) time direction:

    u(r, t) = r^-3 * int_{t-r}^{t+r} (s - t) G(s) ds,

and the outgoing profile is the reflection G_+(s) = G(-s).  This module
converts between profiles and initial data, evaluates exterior energies and
their profile-side identity, computes the weighted moments (radiation
residues) tau_1, tau_2 and the asymptotic numbers alpha_1, alpha_2, applies
time translations, and evaluates the first-order (Born) correction to the
outgoing profile produced by a source term.

Profiles are stored in the incoming convention throughout; use
:meth:`RadiationProfile.reflect` where the outgoing profile is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nonlinearity import SIGMA4, ground_state
from .quadrature import integrate_adaptive, integrate_tail

__all__ = [
    "RadiationProfile",
    "RadialData",
    "ResiduePair",
    "free_wave",
    "free_wave_velocity",
    "free_wave_gradient",
    "positive_propagator",
    "data_from_profile",
    "profile_from_data",
    "exterior_energy",
    "exterior_energy_identity",
    "residues",
    "residue_flow",
    "asymptotic_numbers",
    "shift_profile",
    "nonlinear_profile_shift",
    "compute_c2",
]

_QTOL = 1e-11          # absolute tolerance for moment quadratures
_SPLINE_N = 4097       # samples for the fast moment engine of smooth profiles


def _cubic_spline(x, y):
    """scipy's CubicSpline, imported on first use: importing scipy.interpolate
    costs more than everything but the radiation commands compute."""
    from scipy.interpolate import CubicSpline

    return CubicSpline(x, y)


class RadiationProfile:
    """A radial radiation profile G(s) with declared support or decay.

    Construct with :meth:`from_function` (closed form) or
    :meth:`from_samples` (uniform grid, cubic interpolation).  ``smooth=True``
    enables a spline-based cumulative-moment engine that makes the induced
    initial-data handles vectorized and fast; leave it off for piecewise
    definitions such as indicator profiles, whose moments are then computed
    by support-clipped adaptive quadrature.
    """

    def __init__(self, fn, support=None, decay=None, smooth=False, breakpoints=(),
                 _spline=None):
        self._fn = fn
        self.support = None if support is None else (float(support[0]), float(support[1]))
        self.decay = decay
        if support is None and decay is None:
            raise ValueError("a profile needs a declared support or decay")
        if smooth and support is None:
            raise ValueError("the fast moment engine needs a compact support")
        self._smooth = smooth
        # declared interior knots where the profile may jump or kink; moment
        # integrals split there so every quadrature panel sees a smooth piece
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self._m0 = self._m1 = self._m2 = None
        self._norm = None
        if _spline is not None:
            self._install_moments(_spline)
        elif smooth:
            lo, hi = self.support
            s = np.linspace(lo, hi, _SPLINE_N)
            self._install_moments(_cubic_spline(s, self._fn(s)))

    def _install_moments(self, spline):
        s = spline.x
        self._m0 = spline.antiderivative()
        self._m1 = _cubic_spline(s, s * spline(s)).antiderivative()
        self._m2 = _cubic_spline(s, spline(s) ** 2).antiderivative()

    @classmethod
    def from_function(cls, fn, support=None, decay=None, smooth=False, breakpoints=()):
        return cls(fn, support=support, decay=decay, smooth=smooth,
                   breakpoints=breakpoints)

    @classmethod
    def from_samples(cls, s, values):
        s = np.asarray(s, dtype=float)
        values = np.asarray(values, dtype=float)
        if s.ndim != 1 or np.any(np.diff(s) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        spline = _cubic_spline(s, values)
        lo, hi = float(s[0]), float(s[-1])

        def fn(x):
            x = np.asarray(x, dtype=float)
            out = np.where((x >= lo) & (x <= hi), spline(np.clip(x, lo, hi)), 0.0)
            return out

        return cls(fn, support=(lo, hi), smooth=True, _spline=spline)

    @classmethod
    def zero(cls):
        return cls(lambda s: np.zeros_like(np.asarray(s, dtype=float)), support=(0.0, 0.0))

    # -- evaluation ---------------------------------------------------------

    def value(self, s):
        s_arr = np.asarray(s, dtype=float)
        out = np.asarray(self._fn(s_arr), dtype=float)
        if self.support is not None:
            lo, hi = self.support
            out = np.where((s_arr >= lo) & (s_arr <= hi), out, 0.0)
        return out if out.ndim else float(out)

    def __call__(self, s):
        return self.value(s)

    def _clip(self, a, b):
        if self.support is None:
            return a, b
        lo, hi = self.support
        return max(a, lo), min(b, hi)

    # -- moments ------------------------------------------------------------

    def _pieces(self, a, b):
        """Subintervals of [a, b] cut at the declared breakpoints."""
        knots = [a] + [x for x in self.breakpoints if a < x < b] + [b]
        return zip(knots[:-1], knots[1:])

    def _piecewise(self, fn, a, b):
        tol = _QTOL * max(1.0, b - a)
        return sum(integrate_adaptive(fn, lo, hi, tol) for lo, hi in self._pieces(a, b))

    def moment0(self, a, b):
        """int_a^b G(s) ds on a finite interval."""
        a, b = self._clip(a, b)
        if b <= a:
            return 0.0
        if self._m0 is not None:
            return float(self._m0(b) - self._m0(a))
        return self._piecewise(self._fn, a, b)

    def moment1(self, a, b):
        """int_a^b s G(s) ds on a finite interval."""
        a, b = self._clip(a, b)
        if b <= a:
            return 0.0
        if self._m1 is not None:
            return float(self._m1(b) - self._m1(a))
        return self._piecewise(lambda s: s * self._fn(s), a, b)

    def moment0_vec(self, a, b):
        """Vectorized moment0 over array endpoints (fast engine only)."""
        if self._m0 is None:
            return np.array([self.moment0(x, y) for x, y in zip(np.atleast_1d(a), np.atleast_1d(b))])
        lo, hi = self.support
        a = np.clip(np.asarray(a, dtype=float), lo, hi)
        b = np.clip(np.asarray(b, dtype=float), lo, hi)
        return self._m0(b) - self._m0(a)

    def moment1_vec(self, a, b):
        if self._m1 is None:
            return np.array([self.moment1(x, y) for x, y in zip(np.atleast_1d(a), np.atleast_1d(b))])
        lo, hi = self.support
        a = np.clip(np.asarray(a, dtype=float), lo, hi)
        b = np.clip(np.asarray(b, dtype=float), lo, hi)
        return self._m1(b) - self._m1(a)

    def _full_moment(self, which, tol=1e-10):
        """Limit of int_{-r}^{r} (s^which) G ds as r grows."""
        mom = self.moment0 if which == 0 else self.moment1
        if self.support is not None:
            r = max(abs(self.support[0]), abs(self.support[1]), 1.0)
            return mom(-r, r)
        if self.decay is None or self.decay <= 1.0:
            raise ValueError("asymptotic moments need compact support or declared decay > 1")
        r = 1.0
        prev = mom(-r, r)
        for _ in range(60):
            r *= 2.0
            cur = mom(-r, r)
            if abs(cur - prev) < tol:
                return cur
            prev = cur
        raise ValueError("asymptotic moment did not converge under cutoff doubling")

    # -- norms ---------------------------------------------------------------

    def l2_tail_sq(self, R):
        """int_{|s| > R} G(s)^2 ds."""
        if self._m2 is not None:
            lo, hi = self.support
            left = float(self._m2(min(-R, hi)) - self._m2(lo)) if -R > lo else 0.0
            right = float(self._m2(hi) - self._m2(max(R, lo))) if R < hi else 0.0
            return left + right

        def sq(s):
            v = self.value(s)
            return v * v

        if self.support is not None:
            lo, hi = self.support
            out = 0.0
            if -R > lo:
                out += self._piecewise(sq, lo, -R)
            if R < hi:
                out += self._piecewise(sq, R, hi)
            return out
        if self.decay is None or 2.0 * self.decay <= 1.0:
            raise ValueError("L2 tail needs compact support or declared decay")
        return (integrate_tail(sq, R, _QTOL, decay=2.0 * self.decay)
                + integrate_tail(lambda s: sq(-s), R, _QTOL, decay=2.0 * self.decay))

    @property
    def norm_l2(self):
        if self._norm is None:
            self._norm = float(np.sqrt(self.l2_tail_sq(0.0)))
        return self._norm

    # -- symmetries ----------------------------------------------------------

    def reflect(self):
        """The outgoing profile of the same free wave: s -> G(-s)."""
        fn = self._fn
        sup = None if self.support is None else (-self.support[1], -self.support[0])
        return RadiationProfile(lambda s: fn(-np.asarray(s, dtype=float)),
                                support=sup, decay=self.decay, smooth=self._smooth,
                                breakpoints=tuple(-b for b in self.breakpoints))

    def shifted(self, t0):
        """Profile of the time-translated wave u(., . + t0): s -> G(s + t0)."""
        fn = self._fn
        sup = None if self.support is None else (self.support[0] - t0, self.support[1] - t0)
        return RadiationProfile(lambda s: fn(np.asarray(s, dtype=float) + t0),
                                support=sup, decay=self.decay, smooth=self._smooth,
                                breakpoints=tuple(b - t0 for b in self.breakpoints))


@dataclass(frozen=True)
class RadialData:
    """Radial initial-data pair (u0, u1) with optional exact r^-3 tails.

    ``u0``, ``du0`` and ``u1`` are vectorized callables of r > 0.  When
    ``tail_radius`` is set, the data equal exactly

        u0(r) = tail_c0 * r^-3,   u1(r) = tail_c1 * r^-3   for r >= tail_radius,

    which is the generic far field of data with a compactly supported
    profile; tail integrals then close in closed form.
    """

    u0: Callable
    u1: Callable
    du0: Callable | None = None
    exterior_radius: float = 0.0
    compact_support_bound: float | None = None
    decay: float | None = None
    tail_radius: float | None = None
    tail_c0: float = 0.0
    tail_c1: float = 0.0
    grid: np.ndarray | None = None
    u0_samples: np.ndarray | None = None
    u1_samples: np.ndarray | None = None
    du0_reduced_accuracy: bool = False
    breakpoints: tuple = ()   # radii where u0/u1 may jump or kink

    @classmethod
    def from_samples(cls, r, u0_vals, u1_vals, compact_support_bound=None,
                     tail="none"):
        """Sampled data; u0' comes from the interpolant and is flagged.

        ``tail="none"`` treats the data as zero beyond the grid (compact);
        ``tail="r3"`` continues them with the generic far field c/r^3, the
        coefficients read off the last sample.  Below the grid the
        interpolant is extrapolated.
        """
        r = np.asarray(r, dtype=float)
        u0_vals = np.asarray(u0_vals, dtype=float)
        u1_vals = np.asarray(u1_vals, dtype=float)
        if r.ndim != 1 or np.any(np.diff(r) <= 0):
            raise ValueError("sample grid must be strictly increasing")
        s0 = _cubic_spline(r, u0_vals)
        s1 = _cubic_spline(r, u1_vals)
        d0 = s0.derivative()
        lo, hi = float(r[0]), float(r[-1])

        if tail == "r3":
            c0 = float(hi ** 3 * u0_vals[-1])
            c1 = float(hi ** 3 * u1_vals[-1])

            def extended(f, coef, power):
                def fn(x):
                    x = np.asarray(x, dtype=float)
                    inner = f(np.clip(x, lo, hi))
                    outer = coef * np.where(x > 0, x, 1.0) ** power
                    return np.where(x <= hi, inner, outer)
                return fn

            return cls(u0=extended(s0, c0, -3.0), u1=extended(s1, c1, -3.0),
                       du0=extended(d0, -3.0 * c0, -4.0),
                       tail_radius=hi, tail_c0=c0, tail_c1=c1, decay=3.0,
                       grid=r, du0_reduced_accuracy=True)
        if tail != "none":
            raise ValueError("tail must be 'none' or 'r3'")

        def clamped(f):
            def fn(x):
                x = np.asarray(x, dtype=float)
                return np.where((x >= lo) & (x <= hi), f(np.clip(x, lo, hi)), 0.0)
            return fn

        bound = hi if compact_support_bound is None else compact_support_bound
        return cls(u0=clamped(s0), u1=clamped(s1), du0=clamped(d0),
                   compact_support_bound=bound, grid=r, du0_reduced_accuracy=True)


@dataclass(frozen=True)
class ResiduePair:
    """Weighted moments (tau1, tau2) of a profile at a given radius."""

    tau1: float
    tau2: float
    radius: float


# -- free waves from profiles -------------------------------------------------


def _check_radius(r):
    if r <= 0:
        raise ValueError("radius must be positive")


def free_wave(G: RadiationProfile, r: float, t: float) -> float:
    """u(r, t) = r^-3 int_{t-r}^{t+r} (s - t) G(s) ds."""
    _check_radius(r)
    m1 = G.moment1(t - r, t + r)
    m0 = G.moment0(t - r, t + r)
    return (m1 - t * m0) / r ** 3


def free_wave_velocity(G: RadiationProfile, r: float, t: float) -> float:
    """Time derivative of :func:`free_wave`."""
    _check_radius(r)
    m0 = G.moment0(t - r, t + r)
    return (G.value(t + r) + G.value(t - r)) / r ** 2 - m0 / r ** 3


def free_wave_gradient(G: RadiationProfile, r: float, t: float) -> float:
    """Radial derivative of :func:`free_wave`."""
    _check_radius(r)
    u = free_wave(G, r, t)
    return -3.0 * u / r + (G.value(t + r) - G.value(t - r)) / r ** 2


def positive_propagator(u1, r: float, t: float, support=None) -> float:
    """Free evolution of (0, u1) for r > t >= 0 via the positive kernel

        u(r, t) = (1 / 4r^3) int_{r-t}^{r+t} rho (r^2 + rho^2 - t^2) u1(rho) drho.

    The kernel is nonnegative on its domain, so nonnegative u1 gives a
    nonnegative wave.
    """
    if not (r > t >= 0):
        raise ValueError("the kernel formula requires r > t >= 0")
    if t == 0:
        return 0.0
    lo, hi = r - t, r + t
    if support is not None:
        lo, hi = max(lo, support[0]), min(hi, support[1])
        if hi <= lo:
            return 0.0

    def integrand(rho):
        return rho * (r * r + rho * rho - t * t) * np.asarray(u1(rho), dtype=float)

    return integrate_adaptive(integrand, lo, hi, _QTOL * max(1.0, hi - lo)) / (4.0 * r ** 3)


# -- profile <-> data ----------------------------------------------------------


def data_from_profile(G: RadiationProfile, r_grid=None) -> RadialData:
    """Initial data of the free wave with incoming profile G:

        u0(r) = r^-3 int_{-r}^{r} s G ds,
        u1(r) = r^-2 [G(r) + G(-r)] - r^-3 int_{-r}^{r} G ds.
    """
    fast = G._m0 is not None

    def u0(r):
        r_arr = np.asarray(r, dtype=float)
        if fast:
            m1 = G.moment1_vec(-r_arr, r_arr)
        else:
            m1 = np.array([G.moment1(-x, x) for x in np.atleast_1d(r_arr)])
            m1 = m1.reshape(r_arr.shape) if r_arr.ndim else m1[0]
        out = m1 / r_arr ** 3
        return out if np.ndim(r) else float(out)

    def u1(r):
        r_arr = np.asarray(r, dtype=float)
        if fast:
            m0 = G.moment0_vec(-r_arr, r_arr)
        else:
            m0 = np.array([G.moment0(-x, x) for x in np.atleast_1d(r_arr)])
            m0 = m0.reshape(r_arr.shape) if r_arr.ndim else m0[0]
        out = (G.value(r_arr) + G.value(-r_arr)) / r_arr ** 2 - m0 / r_arr ** 3
        return out if np.ndim(r) else float(out)

    def du0(r):
        r_arr = np.asarray(r, dtype=float)
        out = -3.0 * np.asarray(u0(r_arr)) / r_arr + (G.value(r_arr) - G.value(-r_arr)) / r_arr ** 2
        return out if np.ndim(r) else float(out)

    tail_radius = tail_c0 = tail_c1 = None
    if G.support is not None:
        S = max(abs(G.support[0]), abs(G.support[1]))
        tail_radius = max(S, 1e-12)
        tail_c0 = G.moment1(-S, S)       # alpha_2
        tail_c1 = -G.moment0(-S, S)      # alpha_1
    grid = u0_samples = u1_samples = None
    if r_grid is not None:
        grid = np.asarray(r_grid, dtype=float)
        u0_samples = np.asarray(u0(grid), dtype=float)
        u1_samples = np.asarray(u1(grid), dtype=float)
    return RadialData(u0=u0, u1=u1, du0=du0, decay=3.0,
                      tail_radius=tail_radius,
                      tail_c0=0.0 if tail_c0 is None else tail_c0,
                      tail_c1=0.0 if tail_c1 is None else tail_c1,
                      grid=grid, u0_samples=u0_samples, u1_samples=u1_samples)


def _split_integral(fn, a, b, knots, tol=_QTOL):
    cuts = [a] + [x for x in sorted(knots) if a < x < b] + [b]
    return sum(integrate_adaptive(fn, lo, hi, tol) for lo, hi in zip(cuts[:-1], cuts[1:]))


def _u1_tail_integral(d: RadialData, s: float) -> float:
    """int_s^inf rho u1(rho) drho with the declared tail closed in exact form."""
    def integrand(rho):
        return rho * np.asarray(d.u1(rho), dtype=float)

    if d.tail_radius is not None:
        S = d.tail_radius
        if s >= S:
            return d.tail_c1 / s
        return _split_integral(integrand, s, S, d.breakpoints) + d.tail_c1 / S
    if d.compact_support_bound is not None:
        B = d.compact_support_bound
        if s >= B:
            return 0.0
        return _split_integral(integrand, s, B, d.breakpoints)
    if d.decay is not None and d.decay > 2.0:
        return integrate_tail(integrand, s, _QTOL, decay=d.decay - 1.0)
    raise ValueError("profile recovery needs a compact support bound, an exact tail, "
                     "or a declared decay exponent > 2")


def profile_from_data(d: RadialData, du0_step: float = 1e-5) -> RadiationProfile:
    """Incoming radiation profile of the data pair (u0, u1).

    The velocity part inverts through the outgoing-profile formula for
    (0, u1); the position part inverts the moment identity for u0, giving

        G_odd(s)  = s^2 u1(s)/2 - (1/2) int_s^inf rho u1(rho) drho,
        G_even(s) = (3 s u0(s) + s^2 u0'(s)) / 2,

    both for s > 0, with G(s) = G_even(s) + G_odd(s) and
    G(-s) = -G_even(s) + G_odd(s).  (The labels record the time parity of the
    generating data, not the parity in s.)  When no derivative handle exists,
    u0' falls back to centered differences and the result is flagged.
    """
    du0 = d.du0
    reduced = d.du0_reduced_accuracy
    if du0 is None:
        reduced = True
        u0 = d.u0

        def du0(r):
            r_arr = np.asarray(r, dtype=float)
            h = du0_step * np.maximum(1.0, np.abs(r_arr))
            return (np.asarray(u0(r_arr + h)) - np.asarray(u0(r_arr - h))) / (2.0 * h)

    def g_odd(s):
        return 0.5 * s * s * float(np.asarray(d.u1(s))) - 0.5 * _u1_tail_integral(d, s)

    def g_even(s):
        return 0.5 * (3.0 * s * float(np.asarray(d.u0(s))) + s * s * float(np.asarray(du0(s))))

    def fn(s):
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        out = np.empty_like(s_arr)
        for i, si in enumerate(s_arr):
            a = abs(si)
            if a == 0.0:
                out[i] = -0.5 * _u1_tail_integral(d, 0.0)  # limit of G_odd
            else:
                out[i] = g_even(a) + g_odd(a) if si > 0 else -g_even(a) + g_odd(a)
        return out if np.ndim(s) else out[0]

    support = None
    decay = None
    if d.compact_support_bound is not None:
        b = d.compact_support_bound
        support = (-b, b)
    elif d.tail_radius is not None:
        # beyond an exact c/r^3 far field the recovered profile vanishes
        # identically, so the support closes at the tail radius
        support = (-d.tail_radius, d.tail_radius)
    elif d.decay is not None:
        decay = d.decay - 1.0
    else:
        raise ValueError("profile recovery needs a support bound or declared decay")
    knots = sorted({k for b in d.breakpoints for k in (b, -b)})
    prof = RadiationProfile(fn, support=support, decay=decay, breakpoints=knots)
    prof.du0_reduced_accuracy = reduced
    return prof


# -- energies ------------------------------------------------------------------


def exterior_energy(d: RadialData, R: float) -> float:
    """Energy-space norm squared of the data outside radius R:

        sigma4 * int_R^inf (|u0'|^2 + |u1|^2) rho^4 drho.
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    if d.du0 is None:
        raise ValueError("exterior energy needs derivative access to u0")

    def density(rho):
        rho = np.asarray(rho, dtype=float)
        dv = np.asarray(d.du0(rho), dtype=float)
        v1 = np.asarray(d.u1(rho), dtype=float)
        return (dv * dv + v1 * v1) * rho ** 4

    if d.tail_radius is not None:
        S = max(d.tail_radius, R)
        bulk = integrate_adaptive(density, R, S, _QTOL) if S > R else 0.0
        # beyond S: u0 = c0 r^-3, u1 = c1 r^-3 exactly
        tail = 3.0 * d.tail_c0 ** 2 / S ** 3 + d.tail_c1 ** 2 / S
        return SIGMA4 * (bulk + tail)
    if d.compact_support_bound is not None:
        B = d.compact_support_bound
        if B <= R:
            return 0.0
        return SIGMA4 * integrate_adaptive(density, R, B, _QTOL)
    if d.decay is not None and d.decay > 1.5:
        return SIGMA4 * integrate_tail(density, R, _QTOL, decay=2.0 * d.decay - 2.0)
    raise ValueError("exterior energy needs a tail declaration")


def exterior_energy_identity(G: RadiationProfile, R: float) -> float:
    """Profile side of the exterior-energy identity:

        sigma4 * [ 2 ||G||^2_{L2(|s|>R)} + (1/R)(int_{-R}^R G)^2
                   + (3/R^3)(int_{-R}^R s G)^2 ].
    """
    if R <= 0:
        raise ValueError("radius must be positive")
    m0 = G.moment0(-R, R)
    m1 = G.moment1(-R, R)
    return SIGMA4 * (2.0 * G.l2_tail_sq(R) + m0 * m0 / R + 3.0 * m1 * m1 / R ** 3)


# -- residues and asymptotic numbers ------------------------------------------


def residues(G: RadiationProfile, R: float) -> ResiduePair:
    """tau1(R) = -R^(-1/2) int_{-R}^R G,  tau2(R) = sqrt(3) R^(-3/2) int_{-R}^R s G."""
    if R <= 0:
        raise ValueError("radius must be positive")
    m0 = G.moment0(-R, R)
    m1 = G.moment1(-R, R)
    return ResiduePair(tau1=-m0 / np.sqrt(R), tau2=np.sqrt(3.0) * m1 / R ** 1.5, radius=R)


def residue_flow(G_minus: RadiationProfile, G_plus: RadiationProfile, r: float):
    """Radial derivatives of the residues:

        tau1'(r) = -tau1/(2r) - r^(-1/2) [G_-(r) + G_+(r)],
        tau2'(r) = -3 tau2/(2r) + sqrt(3) r^(-1/2) [G_-(r) - G_+(r)].

    For a free wave supply G_plus = G_minus.reflect().  Both profiles must be
    continuous at r; a jump there is rejected.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    eps = 1e-8 * max(1.0, r)
    for G in (G_minus, G_plus):
        jump = abs(G.value(r + eps) - G.value(r - eps))
        scale = max(abs(G.value(r + eps)), abs(G.value(r - eps)), 1.0)
        if jump > 1e-5 * scale:
            raise ValueError(f"profile discontinuous at r={r}; derivative formula invalid")
    pair = residues(G_minus, r)
    gm = G_minus.value(r)
    gp = G_plus.value(r)
    d1 = -pair.tau1 / (2.0 * r) - (gm + gp) / np.sqrt(r)
    d2 = -3.0 * pair.tau2 / (2.0 * r) + np.sqrt(3.0) * (gm - gp) / np.sqrt(r)
    return float(d1), float(d2)


def asymptotic_numbers(G: RadiationProfile, tol: float = 1e-10):
    """alpha1 = -lim int_{-r}^{r} G,  alpha2 = lim int_{-r}^{r} s G."""
    return -G._full_moment(0, tol), G._full_moment(1, tol)


def shift_profile(G: RadiationProfile, t0: float) -> RadiationProfile:
    """Profile of the time-translated wave; asymptotic numbers map to
    (alpha1, alpha2 + alpha1 * t0)."""
    return G.shifted(t0)


# -- nonlinear profile shift ---------------------------------------------------


def nonlinear_profile_shift(Fsrc, s: float, *, t_support=None, r_support=None,
                            decay=None, tol: float = 1e-9) -> float:
    """First-order change of the outgoing profile caused by a source term:

        dG(s) = (1/2) int_0^inf (s+t)^2 Fsrc(t, t+s) dt
              - (1/2) int_0^inf int_{t+s}^inf rho Fsrc(t, rho) drho dt.

    ``Fsrc(t, r)`` takes (time, radius).  It must be compactly supported in
    both variables (``t_support``/``r_support``) or carry a declared decay
    in t; anything else is rejected.
    """
    if t_support is None and decay is None:
        raise ValueError("source needs t_support or a declared decay exponent")

    def along_ray(t):
        t_arr = np.asarray(t, dtype=float)
        vals = np.asarray(Fsrc(t_arr, t_arr + s), dtype=float)
        return (s + t_arr) ** 2 * vals

    def inner(t):
        lo = t + s
        if r_support is not None:
            lo, hi = max(lo, r_support[0]), r_support[1]
            if hi <= lo:
                return 0.0
            return integrate_adaptive(lambda rho: rho * np.asarray(Fsrc(t, rho), dtype=float),
                                      lo, hi, tol * 1e-2)
        return integrate_tail(lambda rho: rho * np.asarray(Fsrc(t, rho), dtype=float),
                              lo, tol * 1e-2, decay=decay + 1.0)

    def shell(t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array([inner(ti) for ti in t_arr])
        return out if np.ndim(t) else out[0]

    if t_support is not None:
        t_lo, t_hi = max(0.0, t_support[0]), t_support[1]
        ray_lo, ray_hi = t_lo, t_hi
        if r_support is not None:
            ray_lo = max(ray_lo, r_support[0] - s)
            ray_hi = min(ray_hi, r_support[1] - s)
        term1 = (0.5 * integrate_adaptive(along_ray, ray_lo, ray_hi, tol)
                 if ray_hi > ray_lo else 0.0)
        term2 = 0.5 * integrate_adaptive(shell, t_lo, t_hi, tol) if t_hi > t_lo else 0.0
    else:
        term1 = 0.5 * integrate_tail(along_ray, 0.0, tol, decay=decay - 2.0 if decay > 3.0 else 1.5)
        term2 = 0.5 * integrate_tail(shell, 0.0, tol, decay=decay)
    return term1 - term2


# -- the ground-state residue radius ------------------------------------------


def tau2_of_ground_state(r):
    """Second residue of the static pair (W, 0): sqrt(3) r^(3/2) W(r)."""
    r = np.asarray(r, dtype=float)
    w, _ = ground_state(r)
    out = np.sqrt(3.0) * r ** 1.5 * w
    return out if out.ndim else float(out)


def compute_c2(rho: float) -> float:
    """The radius on the decreasing branch (r > sqrt(15)) where the
    ground-state residue sqrt(3) r^(3/2) W(r) equals ``rho``."""
    r_peak = np.sqrt(15.0)
    peak = tau2_of_ground_state(r_peak)
    if not (0.0 < rho < peak):
        raise ValueError(f"rho must lie in (0, {peak}) to meet the decreasing branch")
    lo = r_peak
    hi = 2.0 * r_peak
    while tau2_of_ground_state(hi) > rho:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError("failed to bracket the residue radius")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tau2_of_ground_state(mid) > rho:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 4.0 * np.finfo(float).eps * hi:
            break
    return 0.5 * (lo + hi)
