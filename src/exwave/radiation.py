"""Radiation-field toolkit for radial free waves in five space dimensions.

A finite-energy radial free wave is determined by its radiation profile G in
the incoming (past) time direction:

    u(r, t) = r^-3 * int_{t-r}^{t+r} (s - t) G(s) ds,

and the outgoing profile is the reflection G_+(s) = G(-s).  This module
converts between profiles and initial data, computes the weighted moments
(radiation residues) tau_1, tau_2 and the asymptotic numbers alpha_1,
alpha_2, and applies time translations.  The exterior-energy tools built
on these maps live in :mod:`exwave.exterior`.  The data pair
:class:`RadialData` is defined in :mod:`exwave.radial_data`; this module
imports it on first access to ``exwave.radiation.RadialData``.

Profiles are stored in the incoming convention throughout; use
:meth:`RadiationProfile.reflect` where the outgoing profile is needed.

Everything here computes on floats, and the functions a user supplies (a
profile's ``fn``, a data pair's ``u0``, ``du0`` and ``u1``) are called on
floats.  A public function given an array evaluates it point by point
(``exwave._pointwise``), so an array gives bit for bit what its points give.
The quadrature is imported inside the functions that use it, so converting
a smooth or sampled profile loads no quadrature.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial
from typing import TYPE_CHECKING

from . import _pointwise
from ._spline import cubic_spline, linspace, product, times_x

if TYPE_CHECKING:
    from .radial_data import RadialData

__all__ = [
    "RadiationProfile",
    "RadialData",
    "ResiduePair",
    "check_radius",
    "free_wave",
    "free_wave_velocity",
    "free_wave_gradient",
    "data_from_profile",
    "profile_from_data",
    "residues",
    "asymptotic_numbers",
]

_QTOL = 1e-11          # absolute tolerance for moment quadratures
_SPLINE_N = 4097       # samples of fn for the spline moments of smooth profiles


def _piecewise(fn, a, b, knots, tol):
    """int_a^b fn, cut at the knots inside (a, b) so that every quadrature
    panel sees a smooth piece; each piece is integrated to ``tol``."""
    from .quadrature import integrate_adaptive

    cuts = [a] + [x for x in sorted(knots) if a < x < b] + [b]
    return sum(integrate_adaptive(fn, lo, hi, tol) for lo, hi in zip(cuts[:-1], cuts[1:]))


def _check_not_nan(*points, name="a profile point"):
    """ValueError, naming the input, for a NaN among the points, which no
    comparison would catch."""
    for x in points:
        if x != x:
            raise ValueError(f"{name} must not be NaN, got {x!r}")


def _dyadic_radii(R):
    """+-1, +-2, +-4, ... up to R.  Cut there, a wide window of a decaying
    profile keeps panels near 0 that a single panel's nodes would miss."""
    n = math.frexp(R)[1]   # 2^(n-1) <= R < 2^n; n = 0 for R = inf, so no radii
    return tuple(x for k in range(max(n, 0)) for x in (-2.0 ** k, 2.0 ** k))


class RadiationProfile:
    """A radial radiation profile G(s) with declared support or decay.

    Construct from a closed form (``fn`` takes a float) or with
    :meth:`from_samples` (cubic interpolation).  ``smooth=True`` samples
    fn at ``_SPLINE_N`` points of its support and takes every moment from
    the exact antiderivatives of the interpolant, each built on first use;
    leave it off for piecewise definitions such as indicator profiles,
    whose moments are then computed by support-clipped adaptive quadrature.
    """

    def __init__(self, fn, support=None, decay=None, smooth=False, breakpoints=(),
                 _spline=None):
        self._fn = fn
        if support is not None:
            support = tuple(float(x) for x in support)
            if len(support) != 2 or not -math.inf < support[0] <= support[1] < math.inf:
                raise ValueError(f"support must be two finite numbers lo <= hi, got {support!r}")
        if decay is not None and not math.isfinite(decay):
            raise ValueError(f"decay must be finite, got {decay!r}")
        self.support = support
        self.decay = decay
        if (support is None) == (decay is None):
            raise ValueError(f"a profile declares one of support and decay, "
                             f"got support={support!r}, decay={decay!r}")
        if smooth and support is None:
            raise ValueError("the spline moments need a compact support")
        self._smooth = smooth
        # declared interior knots where the profile may jump or kink; moment
        # integrals split there so every quadrature panel sees a smooth piece
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        _check_not_nan(*self.breakpoints, name="a breakpoint")
        if _spline is None and smooth:
            s = linspace(support[0], support[1], _SPLINE_N)
            _spline = cubic_spline(s, [fn(x) for x in s])
        self._spline = _spline
        self._antiderivatives = {}

    def _antiderivative(self, k):
        """The exact antiderivative m of S, s S (k = 1) or S^2 (k = 2) for the
        spline S, and its rise m(hi) - m(lo) over the support; built on first
        use."""
        pair = self._antiderivatives.get(k)
        if pair is None:
            S = self._spline
            m = (S if k == 0 else times_x(S) if k == 1 else product(S, S)).antiderivative()
            lo, hi = self.support
            pair = self._antiderivatives[k] = m, m.at(hi) - m.at(lo)
        return pair

    @classmethod
    def from_samples(cls, s, values):
        """The not-a-knot cubic interpolant of the samples on the strictly
        increasing grid s, zero outside it."""
        spline = cubic_spline(s, values)
        return cls(spline.at, support=(spline.x[0], spline.x[-1]), smooth=True,
                   _spline=spline)

    @classmethod
    def zero(cls):
        return cls(lambda s: 0.0, support=(0.0, 0.0))

    # -- evaluation ---------------------------------------------------------

    def value(self, s):
        """G(s), 0 outside the support; ValueError for a NaN s."""
        return _pointwise(self._checked_at, s)

    def _checked_at(self, s):
        _check_not_nan(s)
        return self._at(s)

    def _at(self, s):
        if self.support is not None and not self.support[0] <= s <= self.support[1]:
            return 0.0
        return float(self._fn(s))

    # -- moments ------------------------------------------------------------

    def _integrand(self, k):
        """s^k G(s) for k = 0, 1 and G(s)^2 for k = 2."""
        fn = self._fn

        def square(s):
            v = fn(s)
            return v * v

        return (fn, lambda s: s * fn(s), square)[k]

    def _clamp(self, a, b):
        """(a, b) clipped to the support, with b >= a, so that an empty
        interval gives 0."""
        if self.support is None:
            return a, b
        lo, hi = self.support
        # min(max(a, lo), hi) and min(max(b, a), hi), NaN and signed zeros
        # alike, without the builtin calls
        if a < lo:
            a = lo
        elif a > hi:
            a = hi
        if b < a:
            b = a
        elif b > hi:
            b = hi
        return a, b

    def _moment(self, k, a, b):
        """int_a^b of the k-th integrand (G, s G, G^2), 0 where b <= a."""
        return self._clamped_moment(k, *self._clamp(a, b))

    def _clamped_moment(self, k, a, b):
        """:meth:`_moment` for ends already clamped: a spline difference when
        the profile is smooth (the stored rise when the ends are the
        support's), else a quadrature split at the breakpoints."""
        if self._spline is not None:
            m, rise = self._antiderivative(k)
            if a == self.support[0] and b == self.support[1]:
                return rise
            return m.at(b) - m.at(a)
        if not b > a:
            return 0.0
        knots = self.breakpoints
        if self.support is None:
            knots += _dyadic_radii(max(-a, b))
        return _piecewise(self._integrand(k), a, b, knots, _QTOL * max(1.0, b - a))

    def _outside(self, k, R):
        """int over |s| > R of the k-th integrand; a decaying profile
        integrates each side to infinity in doubling shells."""
        if self.support is not None:
            lo, hi = self.support
            return self._moment(k, lo, -R) + self._moment(k, R, hi)
        from .quadrature import integrate_tail

        fn = self._integrand(k)
        decay = (self.decay, self.decay - 1.0, 2.0 * self.decay)[k]
        return (integrate_tail(fn, R, _QTOL, decay=decay)
                + integrate_tail(lambda s: fn(-s), R, _QTOL, decay=decay))

    def moment0(self, a, b):
        """int_a^b G(s) ds on a finite interval; ValueError for a NaN end."""
        _check_not_nan(a, b)
        return self._moment(0, a, b)

    def moment1(self, a, b):
        """int_a^b s G(s) ds on a finite interval; ValueError for a NaN end."""
        _check_not_nan(a, b)
        return self._moment(1, a, b)

    def moment0_vec(self, a, b):
        """moment0 elementwise over array endpoints, in the shape of the input."""
        return _pointwise(self.moment0, a, b)

    def moment1_vec(self, a, b):
        """moment1 elementwise over array endpoints, in the shape of the input."""
        return _pointwise(self.moment1, a, b)

    # -- norms ---------------------------------------------------------------

    def l2_tail_sq(self, R):
        """int_{|s| > R} G(s)^2 ds; ValueError unless R >= 0 (for R < 0 the
        two sides would overlap on [R, -R])."""
        if not R >= 0.0:
            raise ValueError(f"R must be nonnegative, got {R!r}")
        return self._outside(2, R)

    @property
    def norm_l2(self):
        return math.sqrt(self.l2_tail_sq(0.0))

    # -- symmetries ----------------------------------------------------------

    def reflect(self):
        """The outgoing profile of the same free wave: s -> G(-s)."""
        fn = self._fn
        sup = None if self.support is None else (-self.support[1], -self.support[0])
        return RadiationProfile(lambda s: fn(-s),
                                support=sup, decay=self.decay, smooth=self._smooth,
                                breakpoints=tuple(-b for b in self.breakpoints))

    def shifted(self, t0):
        """Profile of the time-translated wave u(., . + t0): s -> G(s + t0).

        The asymptotic numbers map to (alpha1, alpha2 + alpha1 * t0).
        ValueError for a t0 that is not finite."""
        if not math.isfinite(t0):
            raise ValueError(f"shift t0 must be finite, got {t0!r}")
        fn = self._fn
        sup = None if self.support is None else (self.support[0] - t0, self.support[1] - t0)
        return RadiationProfile(lambda s: fn(s + t0),
                                support=sup, decay=self.decay, smooth=self._smooth,
                                breakpoints=tuple(b - t0 for b in self.breakpoints))


class ResiduePair(namedtuple("ResiduePair", "tau1 tau2 radius")):
    """Weighted moments (tau1, tau2) of a profile at a given radius."""

    __slots__ = ()


# -- free waves from profiles -------------------------------------------------


def check_radius(r, power=3):
    """ValueError, naming r, unless r is a finite positive radius whose
    r**power (the formulas divide by it) neither underflows nor overflows."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be finite and positive, got {r}")
    try:
        scaled = float(r) ** power
    except OverflowError:
        scaled = math.inf
    if not 0.0 < scaled < math.inf:
        raise ValueError(f"radius {r!r} is out of range: r**{power} is {scaled}")


def _check_time(t):
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t!r}")


def free_wave(G: RadiationProfile, r, t: float):
    """u(r, t) = r^-3 int_{t-r}^{t+r} (s - t) G(s) ds."""
    _check_time(t)
    if not isinstance(r, (int, float)):
        return _pointwise(partial(free_wave, G, t=t), r)
    check_radius(r)
    a, b = G._clamp(t - r, t + r)
    return (G._clamped_moment(1, a, b) - t * G._clamped_moment(0, a, b)) / r ** 3


def free_wave_velocity(G: RadiationProfile, r, t: float):
    """Time derivative of :func:`free_wave`."""
    _check_time(t)
    if not isinstance(r, (int, float)):
        return _pointwise(partial(free_wave_velocity, G, t=t), r)
    check_radius(r)
    # r * r, not r ** 2: numpy squared an array by multiplying
    return (G._at(t + r) + G._at(t - r)) / (r * r) - G._moment(0, t - r, t + r) / r ** 3


def free_wave_gradient(G: RadiationProfile, r, t: float):
    """Radial derivative of :func:`free_wave`."""
    _check_time(t)

    def one(r):
        u = free_wave(G, r, t)   # checks r
        return -3.0 * u / r + (G._at(t + r) - G._at(t - r)) / (r * r)

    return _pointwise(one, r)


# -- profile <-> data ----------------------------------------------------------


def data_from_profile(G: RadiationProfile) -> RadialData:
    """Initial data of the free wave with incoming profile G, its state at t = 0:

        u0(r) = r^-3 int_{-r}^{r} s G ds,
        u1(r) = r^-2 [G(r) + G(-r)] - r^-3 int_{-r}^{r} G ds.
    """
    from .radial_data import RadialData

    u0 = partial(free_wave, G, t=0.0)
    u1 = partial(free_wave_velocity, G, t=0.0)
    du0 = partial(free_wave_gradient, G, t=0.0)
    tail_radius, tail_c0, tail_c1 = None, 0.0, 0.0
    if G.support is not None:
        S = max(abs(G.support[0]), abs(G.support[1]))
        tail_radius = max(S, 1e-12)
        tail_c0 = G.moment1(-S, S)       # alpha_2
        tail_c1 = -G.moment0(-S, S)      # alpha_1
    return RadialData(u0=u0, u1=u1, du0=du0, decay=3.0 if tail_radius is None else None,
                      tail_radius=tail_radius, tail_c0=tail_c0, tail_c1=tail_c1)


def _exterior_integral(d: RadialData, integrand, R: float, tail, decay) -> float:
    """int_R^inf integrand, closed through the data's declared far field:
    beyond ``tail_radius`` the exact r^-3 tail contributes ``tail(S)`` past
    radius S (0.0 for compact data, whose coefficients are 0), and otherwise
    the integrand decays like r^-decay(d.decay)."""
    from .quadrature import integrate_tail

    if d.tail_radius is not None:
        S = max(d.tail_radius, R)
        return _piecewise(integrand, R, S, d.breakpoints, _QTOL) + tail(S)
    return integrate_tail(integrand, R, _QTOL,
                          decay=None if d.decay is None else decay(d.decay))


def _u1_tail(d: RadialData):
    """s -> int_s^inf rho u1(rho) drho: the stored closed form of sampled
    data, else a quadrature with the declared tail closed in exact form."""
    if d.u1_tail is not None:
        return d.u1_tail
    return lambda s: _exterior_integral(d, lambda rho: rho * d.u1(rho), s,
                                        lambda S: d.tail_c1 / S, lambda p: p - 1.0)


def profile_from_data(d: RadialData) -> RadiationProfile:
    """Incoming radiation profile of the data pair (u0, u1).

    The velocity part inverts through the outgoing-profile formula for
    (0, u1); the position part inverts the moment identity for u0, giving

        G_odd(s)  = s^2 u1(s)/2 - (1/2) int_s^inf rho u1(rho) drho,
        G_even(s) = (3 s u0(s) + s^2 u0'(s)) / 2,

    both for s > 0, with G(s) = G_even(s) + G_odd(s) and
    G(-s) = -G_even(s) + G_odd(s).  (The labels record the time parity of the
    generating data, not the parity in s.)  Data without ``du0``, or with
    neither a tail_radius nor a declared decay > 2, are rejected.
    """
    u0, du0, u1 = d.u0, d.du0, d.u1
    if du0 is None:
        raise ValueError("profile recovery needs derivative access to u0")
    u1_tail = _u1_tail(d)

    def fn(s):
        if s == 0.0:   # the limit of G_odd; the data need not exist at 0
            return -0.5 * u1_tail(0.0)
        a = abs(s)
        g_even = 0.5 * (3.0 * a * u0(a) + a * a * du0(a))
        g_odd = 0.5 * a * a * u1(a) - 0.5 * u1_tail(a)
        return (g_even if s > 0 else -g_even) + g_odd

    support = None
    decay = None
    if d.tail_radius is not None:
        # beyond an exact c/r^3 far field (compact data included) the
        # recovered profile vanishes identically, so the support closes at
        # the tail radius
        support = (-d.tail_radius, d.tail_radius)
    elif d.decay is not None:
        if not d.decay > 2.0:
            raise ValueError(f"profile recovery needs a declared data decay > 2, got decay={d.decay}")
        decay = d.decay - 1.0
    else:
        raise ValueError("profile recovery needs a tail_radius or a declared decay")
    knots = sorted({k for b in d.breakpoints for k in (b, -b)})
    return RadiationProfile(fn, support=support, decay=decay, breakpoints=knots)


# -- residues and asymptotic numbers ------------------------------------------


def residues(G: RadiationProfile, R: float) -> ResiduePair:
    """tau1(R) = -R^(-1/2) int_{-R}^R G,  tau2(R) = sqrt(3) R^(-3/2) int_{-R}^R s G."""
    check_radius(R, 1.5)
    m0 = G.moment0(-R, R)
    m1 = G.moment1(-R, R)
    return ResiduePair(tau1=-m0 / math.sqrt(R), tau2=math.sqrt(3.0) * m1 / R ** 1.5, radius=R)


def asymptotic_numbers(G: RadiationProfile):
    """alpha1 = -lim int_{-r}^{r} G,  alpha2 = lim int_{-r}^{r} s G."""
    if G.support is not None:
        lo, hi = G.support
        return -G._moment(0, lo, hi), G._moment(1, lo, hi)
    return -G._outside(0, 0.0), G._outside(1, 0.0)


def __getattr__(name):
    """RadialData, imported on first access (PEP 562), so that a
    profile-only computation neither compiles it nor loads dataclasses."""
    if name == "RadialData":
        from .radial_data import RadialData

        return RadialData
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
