"""Exterior-region tools built on the radiation toolkit.

The exterior energy of a data pair and its profile-side identity, the
positive propagator of (0, u1), the radial derivatives of the radiation
residues, the first-order (Born) correction to the outgoing profile produced
by a source term, and the ground-state residue radius c2.  They live apart
from :mod:`exwave.radiation`, so that converting between profiles and data
compiles none of them.  No subcommand of the CLI loads this module, so it
imports the quadrature, the nonlinearity and the bisection at the top.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ._ode import bisect
from .nonlinearity import SIGMA4, ground_state
from .quadrature import integrate_adaptive, integrate_tail
from .radiation import (_QTOL, RadiationProfile, _check_not_nan, _exterior_integral,
                        check_radius, residues)

if TYPE_CHECKING:
    from .radial_data import RadialData

__all__ = [
    "positive_propagator",
    "exterior_energy",
    "exterior_energy_identity",
    "residue_flow",
    "nonlinear_profile_shift",
    "tau2_of_ground_state",
    "compute_c2",
]


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


def positive_propagator(u1, r: float, t: float, support=None) -> float:
    """Free evolution of (0, u1) for r > t >= 0 via the positive kernel

        u(r, t) = (1 / 4r^3) int_{r-t}^{r+t} rho (r^2 + rho^2 - t^2) u1(rho) drho.

    The kernel is nonnegative on its domain, so nonnegative u1 gives a
    nonnegative wave.
    """
    if not (r > t >= 0):
        raise ValueError("the kernel formula requires r > t >= 0")
    _check_not_nan(*(support or ()), name="a support end")
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


# -- residue flow ---------------------------------------------------------------


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


# -- nonlinear profile shift ---------------------------------------------------


def nonlinear_profile_shift(Fsrc, s: float, *, t_support=None, r_support=None,
                            decay=None, tol: float = 1e-9) -> float:
    """First-order change of the outgoing profile caused by a source term:

        dG(s) = (1/2) int_0^inf (s+t)^2 Fsrc(t, t+s) dt
              - (1/2) int_0^inf int_{t+s}^inf rho Fsrc(t, rho) drho dt.

    ``Fsrc(t, r)`` takes (time, radius).  It must be compactly supported in
    both variables (``t_support``/``r_support``) or carry a declared decay
    in t; anything else is rejected, as are a non-finite s and NaN ends.
    """
    if not math.isfinite(s):
        raise ValueError(f"s must be finite, got {s!r}")
    _check_not_nan(*(t_support or ()), name="a t_support end")
    _check_not_nan(*(r_support or ()), name="an r_support end")
    if t_support is None and decay is None:
        raise ValueError("source needs t_support or a declared decay exponent")
    if r_support is None and decay is None:
        raise ValueError("source needs r_support or a declared decay exponent")

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
    while (f_hi := tau2_of_ground_state(hi) - rho) > 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise ValueError("failed to bracket the residue radius")
    # hi < 2 c2 here, so the width stays below 4 eps c2
    lo, hi = bisect(lambda r: tau2_of_ground_state(r) - rho, r_peak, hi, peak - rho,
                    2.0 * math.ulp(1.0) * hi, f_hi)
    return 0.5 * (lo + hi)
