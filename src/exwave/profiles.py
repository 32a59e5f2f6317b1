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
(global).  Limits are obtained by Richardson extrapolation of dense-output
samples at theta = pi/2 - 2^-k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ode import IntegrationFailure, solve_dopri5
from .quadrature import integrate_adaptive

__all__ = [
    "BlowUp",
    "Global",
    "SelfSimilarProfile",
    "LinearProfile",
    "ProfileError",
    "NoSolutionError",
    "AmbiguousRootError",
    "BracketingError",
    "integrate_profile",
    "integrate_linear_profile",
    "conserved_energy",
    "inverse_phi",
    "find_nu2",
    "quarter_period",
    "wronskian_compare",
    "phi_star_exact",
    "profile_to_csv",
    "PHI_BLOWUP",
]

PHI_BLOWUP = 1e6          # |phi| past this value declares blow-up
_DRIFT_PHI_CAP = 20.0     # conserved-quantity drift is only meaningful while
                          # |phi|^(10/3) stays far from the cancellation floor
_THETA_CAP = math.pi / 2 - 2.0 ** -13   # last grid point kept below y = 1
_MAX_STEP = math.pi / 256  # accuracy floor so coarse tolerances stay honest
_RICHARDSON_KS = range(6, 13)


class ProfileError(RuntimeError):
    pass


class NoSolutionError(ProfileError):
    pass


class AmbiguousRootError(ProfileError):
    def __init__(self, message, crossings):
        super().__init__(f"{message}: crossings at y = {crossings}")
        self.crossings = list(crossings)


class BracketingError(ProfileError):
    def __init__(self, message, scan):
        super().__init__(message)
        self.scan = scan


@dataclass(frozen=True)
class BlowUp:
    """Category (i): |phi| -> infinity at y_plus in (0, 1]."""

    y_plus: float


@dataclass(frozen=True)
class Global:
    """Category (ii): phi and the endpoint flux converge as y -> 1.

    ``limit_flux`` is signed: it equals s*|s| where s = lim phi_theta at
    theta = pi/2, so |limit_flux| is the flux lim (1-y^2) phi'(y)^2 and the
    sign records whether the profile is still rising (+) or already falling
    (-) at the endpoint, so it changes sign at :func:`find_nu2`'s slope.
    """

    limit_phi: float
    limit_flux: float


def _richardson(hs, vals):
    """Neville extrapolation of vals(h) to h = 0."""
    hs = np.asarray(hs, dtype=float)
    tab = np.asarray(vals, dtype=float).copy()
    n = len(tab)
    for m in range(1, n):
        for i in range(n - m):
            tab[i] = tab[i + 1] + (tab[i + 1] - tab[i]) * hs[i + m] / (hs[i] - hs[i + m])
    return tab[0]


class _ProfileBase:
    """Shared dense-output plumbing for nonlinear and linear profiles."""

    def __init__(self, sol, theta_end):
        self._sol = sol
        self._theta_end = theta_end  # solution valid on [0, theta_end]

    @property
    def y_max(self):
        return math.sin(min(self._theta_end, math.pi / 2))

    def _states(self, y):
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(y_arr < 0.0) or np.any(y_arr > self.y_max + 1e-15):
            raise ValueError(f"y outside the computed range [0, {self.y_max}]")
        theta = np.arcsin(np.clip(y_arr, 0.0, 1.0))
        return self._sol(theta), y_arr

    def phi_at(self, y):
        states, y_arr = self._states(y)
        out = states[:, 0]
        return out if np.ndim(y) else float(out[0])

    def dphi_at(self, y):
        """phi'(y) = phi_theta / cos(theta); grows without bound as y -> 1."""
        states, y_arr = self._states(y)
        cos = np.sqrt(np.maximum(1.0 - y_arr * y_arr, 0.0))
        out = states[:, 1] / cos
        return out if np.ndim(y) else float(out[0])

    def energy_at(self, y):
        states, _ = self._states(y)
        phi, dphi_t = states[:, 0], states[:, 1]
        h = 0.5 * dphi_t ** 2 + 1.125 * phi ** 2 - 0.3 * np.abs(phi) ** (10.0 / 3.0)
        return h if np.ndim(y) else float(h[0])


class SelfSimilarProfile(_ProfileBase):
    """Solved trajectory of the self-similar ODE with classification metadata."""

    def __init__(self, nu, tol, sol, theta_end, category):
        super().__init__(sol, theta_end)
        self.nu = nu
        self.tol = tol
        self.category = category
        keep = sol.ts <= min(theta_end, _THETA_CAP)
        theta = sol.ts[keep]
        states = sol.ys[keep]
        self.grid = np.sin(theta)
        self.phi = states[:, 0].copy()
        cos = np.cos(theta)
        self.dphi = states[:, 1] / cos
        sup = float(self.phi.max(initial=0.0))
        if isinstance(category, Global):
            sup = max(sup, category.limit_phi)
        self.sup_phi = sup
        h = (0.5 * states[:, 1] ** 2 + 1.125 * states[:, 0] ** 2
             - 0.3 * np.abs(states[:, 0]) ** (10.0 / 3.0))
        mask = np.abs(states[:, 0]) <= _DRIFT_PHI_CAP
        drift = np.abs(h[mask] - 0.5 * nu * nu)
        self.energy_drift = float(drift.max(initial=0.0))


class LinearProfile(_ProfileBase):
    """Solution of the linear comparison equation with phi(0)=0, phi'(0)=1."""

    def __init__(self, tol, sol, theta_end):
        super().__init__(sol, theta_end)
        self.tol = tol
        keep = sol.ts <= min(theta_end, _THETA_CAP)
        theta = sol.ts[keep]
        states = sol.ys[keep]
        self.grid = np.sin(theta)
        self.phi = states[:, 0].copy()
        self.dphi = states[:, 1] / np.cos(theta)
        h = 0.5 * states[:, 1] ** 2 + 1.125 * states[:, 0] ** 2
        self.energy_drift = float(np.abs(h - 0.5).max(initial=0.0))


def _rhs_nonlinear(theta, y):
    phi = y[0]
    return np.array([y[1], -2.25 * phi + abs(phi) ** (4.0 / 3.0) * phi])


def _rhs_linear(theta, y):
    return np.array([y[1], -2.25 * y[0]])


def _limits(sol):
    hs = np.array([2.0 ** -k for k in _RICHARDSON_KS])
    states = sol(math.pi / 2 - hs)
    limit_phi = _richardson(hs, states[:, 0])
    slope = _richardson(hs, states[:, 1])
    return float(limit_phi), float(slope)


def _check_tol(tol):
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")


def integrate_profile(nu: float, tol: float = 1e-12, y_stop: float = 1.0) -> SelfSimilarProfile:
    """Integrate the self-similar ODE from y = 0 toward ``y_stop`` <= 1.

    Stops early with a :class:`BlowUp` category when |phi| crosses
    ``PHI_BLOWUP``.  For full-range runs the :class:`Global` category carries
    the Richardson-extrapolated endpoint limits; truncated runs without
    blow-up get ``category=None`` since classification needs the endpoint.
    """
    if not (math.isfinite(nu) and nu >= 0):
        raise ValueError("nu must be finite and nonnegative (negative nu is the odd reflection)")
    _check_tol(tol)
    if not (0.0 < y_stop <= 1.0):
        raise ValueError("y_stop must lie in (0, 1]")
    theta_stop = math.pi / 2 if y_stop == 1.0 else math.asin(y_stop)

    def hit_blowup(theta, y):
        return PHI_BLOWUP - abs(y[0])

    try:
        res = solve_dopri5(_rhs_nonlinear, 0.0, theta_stop, [0.0, nu],
                           rtol=tol, atol=tol, max_step=_MAX_STEP, event=hit_blowup)
    except IntegrationFailure as exc:
        raise ProfileError(f"profile integration failed for nu={nu}: {exc}") from exc
    if res.status == "event":
        category = BlowUp(y_plus=math.sin(min(res.t_event, math.pi / 2)))
    elif y_stop == 1.0:
        limit_phi, slope = _limits(res.sol)
        category = Global(limit_phi=limit_phi, limit_flux=slope * abs(slope))
    else:
        category = None
    return SelfSimilarProfile(nu, tol, res.sol, res.t, category)


def integrate_linear_profile(tol: float = 1e-12) -> LinearProfile:
    """Integrate the linear comparison equation (nonlinear term dropped).

    Must agree pointwise with the closed form (2/3) sin((3/2) arcsin y).
    """
    _check_tol(tol)
    try:
        res = solve_dopri5(_rhs_linear, 0.0, math.pi / 2, [0.0, 1.0],
                           rtol=tol, atol=tol, max_step=_MAX_STEP)
    except IntegrationFailure as exc:
        raise ProfileError(f"linear profile integration failed: {exc}") from exc
    return LinearProfile(tol, res.sol, res.t)


def phi_star_exact(y):
    """Closed form of the linear profile: (2/3) sin((3/2) arcsin y)."""
    y = np.asarray(y, dtype=float)
    out = (2.0 / 3.0) * np.sin(1.5 * np.arcsin(y))
    return out if out.ndim else float(out)


def conserved_energy(p: _ProfileBase, y: float) -> float:
    """H(y) for a computed profile; constant and equal to nu^2/2 when exact."""
    return p.energy_at(y)


def inverse_phi(p: _ProfileBase, z: float, tol: float = 1e-14) -> float:
    """Smallest y with phi(y) = z, by bisection between bracketing grid points.

    The root is located on the dense interpolant to ``tol`` (machine level by
    default, independent of the integration tolerance).  Raises
    :class:`NoSolutionError` when z exceeds the supremum and
    :class:`AmbiguousRootError` (reporting every crossing) when the value is
    attained more than once on the computed range.
    """
    if z == p.phi[0]:
        return float(p.grid[0])
    sup = getattr(p, "sup_phi", float(p.phi.max()))
    if z > sup:
        raise NoSolutionError(f"z={z} exceeds the profile supremum {sup}")
    diff = p.phi - z
    idx = np.nonzero(diff[:-1] * diff[1:] <= 0.0)[0]
    brackets = [(p.grid[i], p.grid[i + 1]) for i in idx]
    # the value may only be attained past the last grid point, short of y = 1
    tail_limit = None
    if isinstance(getattr(p, "category", None), Global):
        tail_limit = p.category.limit_phi
    if tail_limit is not None and not brackets and (diff[-1]) * (tail_limit - z) <= 0.0:
        brackets = [(p.grid[-1], p.y_max)]
    if not brackets:
        raise NoSolutionError(f"phi never attains z={z} on the computed range")

    def refine(lo, hi):
        flo = p.phi_at(lo) - z
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = p.phi_at(mid) - z
            if flo * fm <= 0.0:
                hi = mid
            else:
                lo = mid
                flo = fm
            if hi - lo <= max(tol, 4.0 * np.finfo(float).eps):
                break
        return 0.5 * (lo + hi)

    roots = [refine(lo, hi) for lo, hi in brackets]
    # coincident brackets at a shared grid node are one root, not two
    unique = []
    for r in sorted(roots):
        if not unique or r - unique[-1] > max(10 * tol, 1e-12):
            unique.append(r)
    if len(unique) > 1:
        raise AmbiguousRootError("phi attains z more than once", unique)
    return float(unique[0])


_PHI_STAR = 2.25 ** 0.75   # maximum of V = (9/8) phi^2 - (3/10) phi^(10/3)


def _bisect(f, lo, hi, f_lo, width):
    """Shrink [lo, hi], across which f changes sign (f(lo) = f_lo), to at
    most ``width`` or to adjacent floats, in at most 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= width or mid in (lo, hi):
            break
        f_mid = f(mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return lo, hi


def _turning_point(nu):
    """First positive root of nu^2 - 2 V(phi), or None when nu^2 >= 2 V(phi*)."""
    def radicand(phi):
        return nu * nu - 2.25 * phi * phi + 0.6 * phi ** (10.0 / 3.0)

    if radicand(_PHI_STAR) >= 0.0:
        return None
    # the radicand decreases on (0, phi*)
    return _bisect(radicand, 0.0, _PHI_STAR, nu * nu, 0.0)[0]


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
        w = np.cbrt(u)
        ratio = np.polyval(np.ones(10), w) / np.polyval(np.ones(3), w)
        return 2.0 * phi_t / np.sqrt(a * (1.0 + u) - b * ratio)

    return integrate_adaptive(integrand, 0.0, 1.0, 1e-12)


def find_nu2(tol: float = 1e-8, bracket=(1.0, 1.86)) -> float:
    """The slope nu at which the endpoint flux of the profile vanishes.

    The flux vanishes when the profile turns exactly at y = 1, i.e. when the
    quarter period (see :func:`quarter_period`) equals pi/2.  Bisects
    T(nu) - pi/2 over ``bracket`` to width ``tol``: it is negative below the
    root (the profile has already turned) and positive above it (still
    rising at y = 1, or never turning).
    """
    _check_tol(tol)

    def excess(nu):
        return quarter_period(nu) - 0.5 * math.pi

    lo, hi = bracket
    s_lo, s_hi = excess(lo), excess(hi)
    if s_lo * s_hi > 0.0:
        scan = [(lo, s_lo), (hi, s_hi)]
        raise BracketingError("quarter period does not cross pi/2 on the bracket", scan)
    lo, hi = _bisect(excess, lo, hi, s_lo, tol)
    return 0.5 * (lo + hi)


def wronskian_compare(c: float, y: float, tol: float = 1e-12):
    """The pair (phi_c(y), c * phi_star(y)) entering the comparison bound.

    For 0 < c <= 0.05 the nonlinear profile dominates its linear scaling:
    phi_c(y) > c phi_star(y) > 0 on (0, 1).
    """
    if not (0.0 < c <= 0.05):
        raise ValueError("c must lie in (0, 0.05]")
    if not (0.0 < y < 1.0):
        raise ValueError("y must lie in (0, 1)")
    prof = integrate_profile(c, tol)
    return prof.phi_at(y), c * phi_star_exact(y)


def profile_to_csv(p: _ProfileBase, path) -> None:
    """Write the profile grid as CSV with columns y, phi, dphi, H."""
    h = p.energy_at(p.grid)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("y,phi,dphi,H\n")
        for row in zip(p.grid, p.phi, p.dphi, h):
            fh.write(",".join(f"{v:.12g}" for v in row) + "\n")
