"""Self-similar profiles of the radial 5D focusing energy-critical wave equation.

The ansatz u = |x|^(-3/2) phi(t/|x|) reduces the PDE to the degenerate ODE

    (1 - y^2) phi'' - y phi' + (9/4) phi - |phi|^(4/3) phi = 0,
    phi(0) = 0,  phi'(0) = nu,

on y in [0, 1).  The substitution y = sin(theta) removes the degeneracy
completely: in theta the equation is the plain anharmonic oscillator

    phi_tt = -(9/4) phi + |phi|^(4/3) phi,   theta in [0, pi/2),

because the y phi' term is exactly the chain-rule correction.  Integration is
done in theta; the quantity

    H(y) = (1/2)(1-y^2) phi'(y)^2 + (9/8) phi^2 - (3/10)|phi|^(10/3)
         = (1/2) phi_theta^2 + (9/8) phi^2 - (3/10)|phi|^(10/3)

is conserved and equals nu^2/2, which is the main accuracy diagnostic and
gives the flux-vanishing slope nu2 by a period integral (:func:`find_nu2`).

Two outcomes are possible: |phi| escapes to infinity at some y_plus <= 1
(blow-up) or phi and the flux (1-y^2) phi'(y)^2 have limits as y -> 1
(global).  theta = pi/2 is a regular point of the oscillator, so the limits
are the solver's state there: phi(1) is phi at theta = pi/2 and the flux is
phi_theta(pi/2)^2.

Both this equation and the linear comparison equation (the |phi|^(4/3) phi
term dropped) give a :class:`SelfSimilarProfile`, built by one solve.  A
profile is a value: its node lists ``y_nodes``, ``phi_nodes`` and
``dphi_nodes`` and its dense ``phi_at``; ``cli`` writes the profile CSV.
:func:`inverse_phi` returns the first preimage of a value, the abscissa the
verification table defines.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple

from . import _pointwise
from ._ode import IntegrationFailure, bisect, solve_dopri5
from .quadrature import integrate_adaptive

__all__ = [
    "BlowUp",
    "Global",
    "SelfSimilarProfile",
    "ProfileError",
    "NoSolutionError",
    "integrate_profile",
    "integrate_linear_profile",
    "inverse_phi",
    "find_nu2",
    "quarter_period",
    "wronskian_compare",
    "phi_star_exact",
    "PHI_BLOWUP",
]

PHI_BLOWUP = 1e6          # |phi| past this value declares blow-up
_DRIFT_PHI_CAP = 20.0     # conserved-quantity drift is only meaningful while
                          # |phi|^(10/3) stays far from the cancellation floor
_THETA_CAP = math.pi / 2 - 2.0 ** -13   # last grid point kept below y = 1
_MAX_STEP = math.pi / 256  # accuracy floor so coarse tolerances stay honest
_ROOT_TOL = 1e-14          # width of an inverse_phi bracket


class ProfileError(RuntimeError):
    pass


class NoSolutionError(ProfileError):
    pass


class BlowUp(namedtuple("BlowUp", "y_plus")):
    """Category (i): |phi| -> infinity at y_plus in (0, 1]."""

    __slots__ = ()


class Global(namedtuple("Global", "limit_phi limit_flux")):
    """Category (ii): phi and the endpoint flux converge as y -> 1.

    ``limit_flux`` is signed: it equals s*|s| where s = lim phi_theta at
    theta = pi/2, so |limit_flux| is the flux lim (1-y^2) phi'(y)^2 and the
    sign records whether the profile is still rising (+) or already falling
    (-) at the endpoint, so it changes sign at :func:`find_nu2`'s slope.
    """

    __slots__ = ()


class SelfSimilarProfile:
    """A solved profile of the nonlinear or the linear equation, classified.

    Built from the slope nu, the solver's ``OdeResult`` in theta and the
    equation's conserved energy H(phi, phi_theta), which equals nu^2/2.  A
    run stopped by the blow-up event is a :class:`BlowUp`; a run that reaches
    theta = pi/2 is :class:`Global`, its limits read off the final state.
    ``y_nodes``, ``phi_nodes`` and ``dphi_nodes`` are float lists of y, phi
    and phi'(y) = phi_theta / cos(theta) at the accepted steps up to
    ``_THETA_CAP``.
    """

    def __init__(self, nu, res, energy):
        sol = self._sol = res.sol   # valid on [0, res.t]
        self._energy = energy
        self.y_max = math.sin(min(res.t, math.pi / 2))
        n = bisect_right(sol.ts, min(res.t, _THETA_CAP))
        theta = sol.ts[:n]
        self.y_nodes = [math.sin(t) for t in theta]
        self.phi_nodes = [state[0] for state in sol.ys[:n]]
        phi_theta = [state[1] for state in sol.ys[:n]]
        self.dphi_nodes = [s / math.cos(t) for t, s in zip(theta, phi_theta)]
        self.sup_phi = max(self.phi_nodes)   # phi_nodes[0] = 0
        if res.status == "event":
            self.category = BlowUp(y_plus=math.sin(res.t))
        else:
            phi, s = res.y
            self.category = Global(limit_phi=phi, limit_flux=s * abs(s))
            self.sup_phi = max(self.sup_phi, phi)
        h0 = 0.5 * nu * nu   # node 0, where phi = 0, is never capped
        self.energy_drift = max(abs(energy(p, s) - h0) for p, s in zip(self.phi_nodes, phi_theta)
                                if abs(p) <= _DRIFT_PHI_CAP)

    def _state(self, y):
        if not 0.0 <= y <= self.y_max + 1e-15:
            raise ValueError(f"y={y!r} outside the computed range [0, {self.y_max}]")
        return self._sol(math.asin(min(y, 1.0)))

    def phi_at(self, y):
        """phi at y: a float for a number, an array for an array."""
        return _pointwise(lambda v: self._state(v)[0], y)

    def energy_at(self, y):
        """The profile's conserved energy at y; constant when exact."""
        return _pointwise(lambda v: self._energy(*self._state(v)), y)


def _rhs_nonlinear(theta, y):
    phi = y[0]
    return (y[1], -2.25 * phi + abs(phi) ** (4.0 / 3.0) * phi)


def _energy_nonlinear(phi, dphi_t):
    """H = phi_t^2/2 + (9/8) phi^2 - (3/10) |phi|^(10/3), equal to nu^2/2."""
    return 0.5 * dphi_t * dphi_t + 1.125 * phi * phi - 0.3 * abs(phi) ** (10.0 / 3.0)


def _rhs_linear(theta, y):
    return (y[1], -2.25 * y[0])


def _energy_linear(phi, dphi_t):
    """H = phi_t^2/2 + (9/8) phi^2, equal to 1/2."""
    return 0.5 * dphi_t * dphi_t + 1.125 * phi * phi


def _solve(rhs, energy, nu, tol, failure, event=None):
    """The profile from phi(0) = 0, phi'(0) = nu toward theta = pi/2; a
    failed solve raises :class:`ProfileError` with the text ``failure``."""
    try:
        res = solve_dopri5(rhs, 0.0, math.pi / 2, [0.0, nu], tol,
                           max_step=_MAX_STEP, event=event)
    except IntegrationFailure as exc:
        raise ProfileError(f"{failure}: {exc}") from exc
    return SelfSimilarProfile(nu, res, energy)


def integrate_profile(nu: float, tol: float = 1e-12) -> SelfSimilarProfile:
    """Integrate the self-similar ODE from y = 0 toward y = 1.

    Stops early with a :class:`BlowUp` category when |phi| crosses
    ``PHI_BLOWUP``; otherwise the :class:`Global` category carries the
    endpoint limits, read off the solver's final state at theta = pi/2.
    """
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError("nu must be finite and nonnegative (negative nu is the odd reflection)")

    def hit_blowup(theta, y):
        return PHI_BLOWUP - abs(y[0])

    return _solve(_rhs_nonlinear, _energy_nonlinear, nu, tol,
                  f"profile integration failed for nu={nu}", hit_blowup)


def integrate_linear_profile(tol: float = 1e-12) -> SelfSimilarProfile:
    """Integrate the linear comparison equation (nonlinear term dropped).

    Must agree pointwise with the closed form (2/3) sin((3/2) arcsin y); its
    :class:`Global` limits are phi(1) = sqrt(2)/3 and flux -1/2.
    """
    return _solve(_rhs_linear, _energy_linear, 1.0, tol, "linear profile integration failed")


def phi_star_exact(y):
    """Closed form of the linear profile: (2/3) sin((3/2) arcsin y), |y| <= 1;
    a float for a number, an array for an array."""
    def one(v):
        if not abs(v) <= 1.0:   # also catches NaN
            raise ValueError("y must be finite with |y| <= 1")
        return (2.0 / 3.0) * math.sin(1.5 * math.asin(v))

    return _pointwise(one, y)


def inverse_phi(p: SelfSimilarProfile, z: float) -> float:
    """Smallest y with phi(y) = z: the first preimage of z.

    ITP (:func:`bisect`) brackets the root on the dense interpolant to width
    ``_ROOT_TOL``, independent of the integration tolerance, inside the first
    grid step where phi - z changes sign; failing that, inside the stretch
    from the last node to y = 1 of a :class:`Global` profile.  Raises
    :class:`NoSolutionError` when phi never attains z on the computed range,
    and ValueError for a non-finite z.
    """
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    grid, phi = p.y_nodes, p.phi_nodes
    if z == phi[0]:
        return grid[0]
    if z > p.sup_phi:
        raise NoSolutionError(f"z={z} exceeds the profile supremum {p.sup_phi}")
    diff = [v - z for v in phi]
    # the first grid step where phi - z changes sign
    i = next((i for i in range(1, len(diff)) if diff[i - 1] * diff[i] <= 0.0), None)
    if i is not None:
        lo, hi, d_hi = grid[i - 1], grid[i], diff[i]
    elif isinstance(p.category, Global) and diff[-1] * (p.category.limit_phi - z) <= 0.0:
        # the value may only be attained past the last grid point, short of y = 1
        lo, hi, d_hi = grid[-1], p.y_max, p.category.limit_phi - z
    else:
        raise NoSolutionError(f"phi never attains z={z} on the computed range")
    lo, hi = bisect(lambda y: p.phi_at(y) - z, lo, hi, p.phi_at(lo) - z, _ROOT_TOL, d_hi)
    return 0.5 * (lo + hi)


_PHI_STAR = 2.25 ** 0.75   # maximum of V = (9/8) phi^2 - (3/10) phi^(10/3)


def _turning_point(nu):
    """First positive root of nu^2 - 2 V(phi), or None when nu^2 >= 2 V(phi*),
    bracketed by :func:`bisect` to adjacent floats."""
    def radicand(phi):
        return nu * nu - 2.25 * phi * phi + 0.6 * phi ** (10.0 / 3.0)

    at_peak = radicand(_PHI_STAR)
    if at_peak >= 0.0:
        return None
    # the radicand decreases on (0, phi*)
    return bisect(radicand, 0.0, _PHI_STAR, nu * nu, 0.0, at_peak)[0]


def quarter_period(nu: float) -> float:
    """Oscillator time theta from phi = 0 to the first turning point.

    The period integral (Landau & Lifshitz, Mechanics, section 11) of the
    theta-oscillator at energy H = nu^2 / 2, to absolute accuracy 1e-12:

        T(nu) = int_0^{phi_t} dphi / sqrt(nu^2 - (9/4) phi^2 + (3/5) phi^(10/3)).

    With phi = phi_t u, u = w^3, the radicand is (1 - u) Q(u), where
    Q(u) = (9/4) phi_t^2 (1 + u) - (3/5) phi_t^(10/3) (1 + w + ... + w^9) / (1 + w + w^2)
    is positive on [0, 1]; u = 1 - tau^2 then leaves the smooth integrand
    2 phi_t / sqrt(Q).  T -> pi/3 as nu -> 0 and T grows without bound as nu
    approaches the separatrix sqrt(2 V(phi*)); above it the trajectory never
    turns and T is infinite.
    """
    if not (math.isfinite(nu) and nu > 0.0):
        raise ValueError("nu must be finite and positive")
    phi_t = _turning_point(nu)
    if phi_t is None:
        return math.inf
    a = 2.25 * phi_t * phi_t
    b = 0.6 * phi_t ** (10.0 / 3.0)

    def integrand(tau):
        u = 1.0 - tau * tau
        w = u ** (1.0 / 3.0)
        num = 1.0
        for _ in range(9):   # 1 + w + ... + w^9 by Horner's rule
            num = num * w + 1.0
        return 2.0 * phi_t / math.sqrt(a * (1.0 + u) - b * (num / ((w + 1.0) * w + 1.0)))

    return integrate_adaptive(integrand, 0.0, 1.0, 1e-12)


def find_nu2() -> float:
    """The slope nu at which the endpoint flux of the profile vanishes.

    The flux vanishes when the profile turns exactly at y = 1, i.e. when the
    quarter period (see :func:`quarter_period`) equals pi/2.  Brackets the
    root of T(nu) - pi/2 over (1.0, 1.86) to width 1e-8 by :func:`bisect`:
    the excess is negative at 1.0 (the profile has already turned) and +inf
    at 1.86, above the separatrix sqrt(2 V(phi*)) ~ 1.7428 (never turns).
    """
    def excess(nu):
        return quarter_period(nu) - 0.5 * math.pi

    lo, hi = bisect(excess, 1.0, 1.86, excess(1.0), 1e-8, excess(1.86))
    return 0.5 * (lo + hi)


def wronskian_compare(c: float, y: float):
    """The pair (phi_c(y), c * phi_star(y)) entering the comparison bound.

    For 0 < c <= 0.05 the nonlinear profile dominates its linear scaling:
    phi_c(y) > c phi_star(y) > 0 on (0, 1).
    """
    if not (0.0 < c <= 0.05):
        raise ValueError("c must lie in (0, 0.05]")
    if not (0.0 < y < 1.0):
        raise ValueError("y must lie in (0, 1)")
    prof = integrate_profile(c)
    return prof.phi_at(y), c * phi_star_exact(y)

