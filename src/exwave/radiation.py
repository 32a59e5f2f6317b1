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

Everything here computes on floats, and the functions a user supplies (a
profile's ``fn``, a data pair's ``u0``, ``du0`` and ``u1``) are called on
floats.  A public function given an array evaluates it point by point
(``_ode._pointwise``), so an array gives bit for bit what its points give.
"""

from __future__ import annotations

import math
# RadialData stays a dataclass: bench/tracing.py rebuilds it with
# dataclasses.replace to count the calls of its u0 and u1
from dataclasses import dataclass
from functools import partial
from typing import Callable

from ._ode import _pointwise, bisect
from ._spline import cubic_spline, floats, identity, linspace, product
from .nonlinearity import SIGMA4, ground_state
from .quadrature import integrate_adaptive, integrate_tail

__all__ = [
    "RadiationProfile",
    "RadialData",
    "ResiduePair",
    "check_radius",
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
    "nonlinear_profile_shift",
    "compute_c2",
]

_QTOL = 1e-11          # absolute tolerance for moment quadratures
_SPLINE_N = 4097       # samples of fn for the spline moments of smooth profiles
_DU0_STEP = 1e-5       # relative step of the centered-difference fallback for u0'


def _piecewise(fn, a, b, knots, tol):
    """int_a^b fn, cut at the knots inside (a, b) so that every quadrature
    panel sees a smooth piece; each piece is integrated to ``tol``."""
    cuts = [a] + [x for x in sorted(knots) if a < x < b] + [b]
    return sum(integrate_adaptive(fn, lo, hi, tol) for lo, hi in zip(cuts[:-1], cuts[1:]))


def _dyadic_radii(R):
    """+-1, +-2, +-4, ... up to R.  Cut there, a wide window of a decaying
    profile keeps panels near 0 that a single panel's nodes would miss."""
    if not math.isfinite(R):
        return ()   # the quadrature rejects the infinite limit
    n = math.frexp(R)[1]   # 2^(n-1) <= R < 2^n
    return tuple(x for k in range(max(n, 0)) for x in (-2.0 ** k, 2.0 ** k))


class RadiationProfile:
    """A radial radiation profile G(s) with declared support or decay.

    Construct with :meth:`from_function` (closed form: ``fn`` takes a float)
    or :meth:`from_samples` (cubic interpolation).  ``smooth=True`` samples
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
        if support is None and decay is None:
            raise ValueError("a profile needs a declared support or decay")
        if smooth and support is None:
            raise ValueError("the spline moments need a compact support")
        self._smooth = smooth
        # declared interior knots where the profile may jump or kink; moment
        # integrals split there so every quadrature panel sees a smooth piece
        self.breakpoints = tuple(sorted(float(b) for b in breakpoints))
        self._norm = None
        if _spline is None and smooth:
            s = linspace(support[0], support[1], _SPLINE_N)
            _spline = cubic_spline(s, [fn(x) for x in s])
        self._spline = _spline
        self._antiderivatives = {}

    def _antiderivative(self, k):
        """The exact antiderivative of S, s S (k = 1) or S^2 (k = 2) for the
        spline S, built on first use."""
        m = self._antiderivatives.get(k)
        if m is None:
            S = self._spline
            integrand = S if k == 0 else product(identity(S.x) if k == 1 else S, S)
            m = self._antiderivatives[k] = integrand.antiderivative()
        return m

    @classmethod
    def from_function(cls, fn, support=None, decay=None, smooth=False, breakpoints=()):
        return cls(fn, support=support, decay=decay, smooth=smooth,
                   breakpoints=breakpoints)

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
        """G(s), 0 outside the support."""
        return _pointwise(self._at, s)

    def _at(self, s):
        if self.support is not None and not self.support[0] <= s <= self.support[1]:
            return 0.0
        return float(self._fn(s))

    def __call__(self, s):
        return self.value(s)

    # -- moments ------------------------------------------------------------

    def _integrand(self, k):
        """s^k G(s) for k = 0, 1 and G(s)^2 for k = 2."""
        fn = self._fn

        def square(s):
            v = fn(s)
            return v * v

        return (fn, lambda s: s * fn(s), square)[k]

    def _moment(self, k, a, b):
        """int_a^b of the k-th integrand (G, s G, G^2), 0 where b <= a: a
        spline difference when the profile is smooth, else a quadrature
        split at the breakpoints."""
        if self.support is not None:
            lo, hi = self.support
            a = min(max(a, lo), hi)
            b = min(max(b, a), hi)   # b >= a, so an empty interval gives 0
        if self._spline is not None:
            m = self._antiderivative(k)
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
        fn = self._integrand(k)
        decay = (self.decay, self.decay - 1.0, 2.0 * self.decay)[k]
        return (integrate_tail(fn, R, _QTOL, decay=decay)
                + integrate_tail(lambda s: fn(-s), R, _QTOL, decay=decay))

    def moment0(self, a, b):
        """int_a^b G(s) ds on a finite interval."""
        return self._moment(0, a, b)

    def moment1(self, a, b):
        """int_a^b s G(s) ds on a finite interval."""
        return self._moment(1, a, b)

    def moment0_vec(self, a, b):
        """moment0 elementwise over array endpoints, in the shape of the input."""
        return _pointwise(self.moment0, a, b)

    def moment1_vec(self, a, b):
        """moment1 elementwise over array endpoints, in the shape of the input."""
        return _pointwise(self.moment1, a, b)

    # -- norms ---------------------------------------------------------------

    def l2_tail_sq(self, R):
        """int_{|s| > R} G(s)^2 ds."""
        return self._outside(2, R)

    @property
    def norm_l2(self):
        if self._norm is None:
            self._norm = math.sqrt(self.l2_tail_sq(0.0))
        return self._norm

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

        The asymptotic numbers map to (alpha1, alpha2 + alpha1 * t0)."""
        fn = self._fn
        sup = None if self.support is None else (self.support[0] - t0, self.support[1] - t0)
        return RadiationProfile(lambda s: fn(s + t0),
                                support=sup, decay=self.decay, smooth=self._smooth,
                                breakpoints=tuple(b - t0 for b in self.breakpoints))


@dataclass(frozen=True)
class RadialData:
    """Radial initial-data pair (u0, u1) with optional exact r^-3 tails.

    ``u0``, ``du0`` and ``u1`` are callables of r > 0; this module calls them
    on floats, and the solver in ``pdesim`` on arrays.  When ``tail_radius``
    is set, the data equal exactly

        u0(r) = tail_c0 * r^-3,   u1(r) = tail_c1 * r^-3   for r >= tail_radius,

    which is the generic far field of data with a compactly supported
    profile; tail integrals then close in closed form.  ``u1_tail``, when
    set, is s -> int_s^inf rho u1(rho) drho in closed form.
    """

    u0: Callable
    u1: Callable
    du0: Callable | None = None
    compact_support_bound: float | None = None
    decay: float | None = None
    tail_radius: float | None = None
    tail_c0: float = 0.0
    tail_c1: float = 0.0
    du0_reduced_accuracy: bool = False
    breakpoints: tuple = ()   # radii where u0/u1 may jump or kink
    u1_tail: Callable | None = None

    @classmethod
    def from_samples(cls, r, u0_vals, u1_vals, compact_support_bound=None,
                     tail="none"):
        """Sampled data: not-a-knot cubic splines on the strictly increasing
        grid 0 <= r[0] <= r <= r[-1]; u0' comes from the interpolant and is
        flagged.  Each callable takes a float or, point by point, an array.

        ``tail="none"`` gives zero outside the grid (compact data).
        ``tail="r3"`` continues u0 and u1 below the grid evenly, as
        a + b r^2 matched to the spline's value and slope at r[0] (smooth
        radial data are even in r), with u0' = 2 b r there; beyond the grid
        it continues them with the generic far field c/r^3, the coefficients
        read off the last sample.  Either way ``u1_tail`` integrates exactly
        these data: rho times the u1 spline is a piecewise quartic.
        """
        if tail not in ("none", "r3"):
            raise ValueError("tail must be 'none' or 'r3'")
        r, u0_vals, u1_vals = floats(r), floats(u0_vals), floats(u1_vals)
        s0 = cubic_spline(r, u0_vals)
        s1 = cubic_spline(r, u1_vals)
        lo, hi = r[0], r[-1]
        if not lo >= 0.0:
            raise ValueError(f"sample radii must be nonnegative, got r[0] = {lo!r}")
        check_radius(hi, 4)   # the closed forms take hi^3 and lo^4 <= hi^4
        r3 = tail == "r3"
        d0 = s0.derivative()
        bound = hi if compact_support_bound is None else compact_support_bound
        if not bound > 0.0:
            raise ValueError(f"compact_support_bound must be positive, got {bound!r}")
        end = hi if r3 else min(hi, bound)

        def even(spline, slope):
            """(a, b) of a + b r^2 through the spline's value and slope at lo."""
            b = slope.at(lo) / (2.0 * lo) if lo > 0 else 0.0
            return spline.at(lo) - b * lo * lo, b

        a1, b1 = even(s1, s1.derivative()) if r3 else (0.0, 0.0)   # u1 = a1 + b1 r^2 on (0, lo)
        c1 = hi ** 3 * u1_vals[-1] if r3 else 0.0
        rho_u1 = product(identity(r), s1).antiderivative()
        rho_u1_end = rho_u1.at(end)

        def u1_tail(s):
            below = min(s, lo)
            return (rho_u1_end - rho_u1.at(min(max(s, lo), end))
                    + 0.5 * a1 * (lo * lo - below * below) + 0.25 * b1 * (lo ** 4 - below ** 4)
                    + c1 / max(s, end))

        if r3:
            c0 = hi ** 3 * u0_vals[-1]
            a0, b0 = even(s0, d0)

            def extended(f, below, coef, power):
                def fn(x):
                    if x > hi:
                        return coef * x ** power
                    return below(x) if x < lo else f.at(x)
                return partial(_pointwise, fn)

            return cls(u0=extended(s0, lambda x: a0 + b0 * x * x, c0, -3.0),
                       u1=extended(s1, lambda x: a1 + b1 * x * x, c1, -3.0),
                       du0=extended(d0, lambda x: 2.0 * b0 * x, -3.0 * c0, -4.0),
                       tail_radius=hi, tail_c0=c0, tail_c1=c1, decay=3.0,
                       du0_reduced_accuracy=True, u1_tail=partial(_pointwise, u1_tail))

        def clamped(f):
            return partial(_pointwise, lambda x: f.at(x) if lo <= x <= hi else 0.0)

        return cls(u0=clamped(s0), u1=clamped(s1), du0=clamped(d0),
                   compact_support_bound=bound, du0_reduced_accuracy=True,
                   u1_tail=partial(_pointwise, u1_tail))


@dataclass(frozen=True)
class ResiduePair:
    """Weighted moments (tau1, tau2) of a profile at a given radius."""

    tau1: float
    tau2: float
    radius: float


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

    def one(r):
        check_radius(r)
        return (G.moment1(t - r, t + r) - t * G.moment0(t - r, t + r)) / r ** 3

    return _pointwise(one, r)


def free_wave_velocity(G: RadiationProfile, r, t: float):
    """Time derivative of :func:`free_wave`."""
    _check_time(t)

    def one(r):   # r * r, not r ** 2: numpy squared an array by multiplying
        check_radius(r)
        return (G._at(t + r) + G._at(t - r)) / (r * r) - G.moment0(t - r, t + r) / r ** 3

    return _pointwise(one, r)


def free_wave_gradient(G: RadiationProfile, r, t: float):
    """Radial derivative of :func:`free_wave`."""
    _check_time(t)

    def one(r):
        u = free_wave(G, r, t)   # checks r
        return -3.0 * u / r + (G._at(t + r) - G._at(t - r)) / (r * r)

    return _pointwise(one, r)


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
        return rho * (r * r + rho * rho - t * t) * u1(rho)

    return integrate_adaptive(integrand, lo, hi, _QTOL * max(1.0, hi - lo)) / (4.0 * r ** 3)


# -- profile <-> data ----------------------------------------------------------


def data_from_profile(G: RadiationProfile) -> RadialData:
    """Initial data of the free wave with incoming profile G, its state at t = 0:

        u0(r) = r^-3 int_{-r}^{r} s G ds,
        u1(r) = r^-2 [G(r) + G(-r)] - r^-3 int_{-r}^{r} G ds.
    """
    u0 = lambda r: free_wave(G, r, 0.0)
    u1 = lambda r: free_wave_velocity(G, r, 0.0)
    du0 = lambda r: free_wave_gradient(G, r, 0.0)
    tail_radius, tail_c0, tail_c1 = None, 0.0, 0.0
    if G.support is not None:
        S = max(abs(G.support[0]), abs(G.support[1]))
        tail_radius = max(S, 1e-12)
        tail_c0 = G.moment1(-S, S)       # alpha_2
        tail_c1 = -G.moment0(-S, S)      # alpha_1
    return RadialData(u0=u0, u1=u1, du0=du0, decay=3.0, tail_radius=tail_radius,
                      tail_c0=tail_c0, tail_c1=tail_c1)


def _exterior_integral(d: RadialData, integrand, R: float, tail, decay) -> float:
    """int_R^inf integrand, closed through the data's declared far field:
    beyond ``tail_radius`` the exact r^-3 tail contributes ``tail(S)`` past
    radius S, beyond ``compact_support_bound`` nothing, and otherwise the
    integrand decays like r^-decay(d.decay)."""
    if d.tail_radius is not None:
        S = max(d.tail_radius, R)
        return _piecewise(integrand, R, S, d.breakpoints, _QTOL) + tail(S)
    if d.compact_support_bound is not None:
        return _piecewise(integrand, R, max(d.compact_support_bound, R), d.breakpoints, _QTOL)
    return integrate_tail(integrand, R, _QTOL,
                          decay=None if d.decay is None else decay(d.decay))


def _u1_tail_integral(d: RadialData, s):
    """int_s^inf rho u1(rho) drho: the stored closed form of sampled data,
    else a quadrature with the declared tail closed in exact form."""
    if d.u1_tail is not None:
        return d.u1_tail(s)
    return _exterior_integral(d, lambda rho: rho * d.u1(rho), s, lambda S: d.tail_c1 / S,
                              lambda p: p - 1.0)


def profile_from_data(d: RadialData) -> RadiationProfile:
    """Incoming radiation profile of the data pair (u0, u1).

    The velocity part inverts through the outgoing-profile formula for
    (0, u1); the position part inverts the moment identity for u0, giving

        G_odd(s)  = s^2 u1(s)/2 - (1/2) int_s^inf rho u1(rho) drho,
        G_even(s) = (3 s u0(s) + s^2 u0'(s)) / 2,

    both for s > 0, with G(s) = G_even(s) + G_odd(s) and
    G(-s) = -G_even(s) + G_odd(s).  (The labels record the time parity of the
    generating data, not the parity in s.)  When no derivative handle exists,
    u0' falls back to centered differences and the result is flagged.
    Data with neither a support bound nor a declared decay > 2 are rejected.
    """
    du0 = d.du0
    reduced = d.du0_reduced_accuracy
    if du0 is None:
        reduced = True
        u0 = d.u0

        def du0(r):
            h = _DU0_STEP * max(1.0, abs(r))
            return (u0(r + h) - u0(r - h)) / (2.0 * h)

    def fn(s):
        if s == 0.0:   # the limit of G_odd; the data need not exist at 0
            return -0.5 * _u1_tail_integral(d, 0.0)
        a = abs(s)
        g_even = 0.5 * (3.0 * a * d.u0(a) + a * a * du0(a))
        g_odd = 0.5 * a * a * d.u1(a) - 0.5 * _u1_tail_integral(d, a)
        return (g_even if s > 0 else -g_even) + g_odd

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
        if not d.decay > 2.0:
            raise ValueError(f"profile recovery needs a declared data decay > 2, got decay={d.decay}")
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
    check_radius(R)
    if d.du0 is None:
        raise ValueError("exterior energy needs derivative access to u0")

    def density(rho):   # products only: a float ** would raise OverflowError
        dv, v1, rho2 = d.du0(rho), d.u1(rho), rho * rho
        return (dv * dv + v1 * v1) * rho2 * rho2

    # beyond S: u0 = c0 r^-3, u1 = c1 r^-3 exactly
    tail = lambda S: 3.0 * d.tail_c0 ** 2 / S ** 3 + d.tail_c1 ** 2 / S
    return SIGMA4 * _exterior_integral(d, density, R, tail, lambda p: 2.0 * p - 2.0)


def exterior_energy_identity(G: RadiationProfile, R: float) -> float:
    """Profile side of the exterior-energy identity:

        sigma4 * [ 2 ||G||^2_{L2(|s|>R)} + (1/R)(int_{-R}^R G)^2
                   + (3/R^3)(int_{-R}^R s G)^2 ].
    """
    check_radius(R)
    m0 = G.moment0(-R, R)
    m1 = G.moment1(-R, R)
    return SIGMA4 * (2.0 * G.l2_tail_sq(R) + m0 * m0 / R + 3.0 * m1 * m1 / R ** 3)


# -- residues and asymptotic numbers ------------------------------------------


def residues(G: RadiationProfile, R: float) -> ResiduePair:
    """tau1(R) = -R^(-1/2) int_{-R}^R G,  tau2(R) = sqrt(3) R^(-3/2) int_{-R}^R s G."""
    check_radius(R, 1.5)
    m0 = G.moment0(-R, R)
    m1 = G.moment1(-R, R)
    return ResiduePair(tau1=-m0 / math.sqrt(R), tau2=math.sqrt(3.0) * m1 / R ** 1.5, radius=R)


def residue_flow(G_minus: RadiationProfile, G_plus: RadiationProfile, r: float):
    """Radial derivatives of the residues:

        tau1'(r) = -tau1/(2r) - r^(-1/2) [G_-(r) + G_+(r)],
        tau2'(r) = -3 tau2/(2r) + sqrt(3) r^(-1/2) [G_-(r) - G_+(r)].

    For a free wave supply G_plus = G_minus.reflect().  Both profiles must be
    continuous at r; a jump there is rejected.
    """
    check_radius(r, 1.5)
    eps = 1e-8 * max(1.0, r)
    for G in (G_minus, G_plus):
        jump = abs(G.value(r + eps) - G.value(r - eps))
        scale = max(abs(G.value(r + eps)), abs(G.value(r - eps)), 1.0)
        if jump > 1e-5 * scale:
            raise ValueError(f"profile discontinuous at r={r}; derivative formula invalid")
    pair = residues(G_minus, r)
    gm = G_minus.value(r)
    gp = G_plus.value(r)
    d1 = -pair.tau1 / (2.0 * r) - (gm + gp) / math.sqrt(r)
    d2 = -3.0 * pair.tau2 / (2.0 * r) + math.sqrt(3.0) * (gm - gp) / math.sqrt(r)
    return d1, d2


def asymptotic_numbers(G: RadiationProfile):
    """alpha1 = -lim int_{-r}^{r} G,  alpha2 = lim int_{-r}^{r} s G."""
    if G.support is not None:
        lo, hi = G.support
        return -G._moment(0, lo, hi), G._moment(1, lo, hi)
    return -G._outside(0, 0.0), G._outside(1, 0.0)


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
        return (s + t) ** 2 * Fsrc(t, t + s)

    def shell(t):
        lo = t + s
        if r_support is not None:
            lo, hi = max(lo, r_support[0]), r_support[1]
            if hi <= lo:
                return 0.0
            return integrate_adaptive(lambda rho: rho * Fsrc(t, rho), lo, hi, tol * 1e-2)
        return integrate_tail(lambda rho: rho * Fsrc(t, rho), lo, tol * 1e-2, decay=decay + 1.0)

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
    return math.sqrt(3.0) * r ** 1.5 * ground_state(r)[0]


def compute_c2(rho: float) -> float:
    """The radius on the decreasing branch (r > sqrt(15)) where the
    ground-state residue sqrt(3) r^(3/2) W(r) equals ``rho``."""
    r_peak = math.sqrt(15.0)
    peak = tau2_of_ground_state(r_peak)
    if not (0.0 < rho < peak):
        raise ValueError(f"rho must lie in (0, {peak}) to meet the decreasing branch")
    hi = 2.0 * r_peak
    while tau2_of_ground_state(hi) > rho:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError("failed to bracket the residue radius")
    # hi < 2 c2 here, so the width stays below 4 eps c2
    lo, hi = bisect(lambda r: tau2_of_ground_state(r) - rho, r_peak, hi, peak - rho,
                    2.0 * math.ulp(1.0) * hi)
    return 0.5 * (lo + hi)
