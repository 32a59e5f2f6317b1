"""Independent-oracle cross-checks: scipy's quadrature and RK45 validate the
in-repo integrator and Gauss-Kronrod rules on the pipeline's key constants.
These add a second, fully independent route; they never replace the in-repo
side of a dual-route check.
"""

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from exwave import nonlinearity as nl
from exwave import profiles, verify
from exwave.nonlinearity import SIGMA4, ground_state, ground_state_energy


def test_profile_against_scipy_rk45():
    def rhs(theta, y):
        return [y[1], -2.25 * y[0] + abs(y[0]) ** (4.0 / 3.0) * y[0]]

    ref = solve_ivp(rhs, (0.0, np.pi / 2), [0.0, 1.86], rtol=1e-12, atol=1e-12,
                    dense_output=True)
    mine = profiles.integrate_profile(1.86, 1e-12)
    ys = np.linspace(0.05, 0.95, 10)
    gap = np.max(np.abs(ref.sol(np.arcsin(ys))[0] - mine.phi_at(ys)))
    assert gap < 1e-10


def test_pushup_integral_against_scipy_quad():
    ref, est = quad(lambda y: profiles.phi_star_exact(y) / np.sqrt(1.0 - y),
                    0.0, 8.0 / 9.0, epsabs=1e-12, limit=200)
    assert est < 1e-9
    lp = profiles.integrate_linear_profile(1e-12)
    from exwave.quadrature import integrate_sqrt_singular
    mine = integrate_sqrt_singular(lambda y: lp.phi_at(np.asarray(y)), 0.0, 8.0 / 9.0, 1e-12)
    assert mine == pytest.approx(ref, abs=1e-9)


def test_upper_integral_against_scipy_quad():
    rows, summary, prof = verify.build_table1()
    z_max = nl.g_constants().z_max
    y_cross = profiles.inverse_phi(prof, z_max)
    inner, est = quad(lambda y: nl.g(min(float(prof.phi_at(y)), z_max)) / np.sqrt(1.0 - y),
                      0.0, y_cross, epsabs=1e-11, limit=400)
    assert est < 1e-8
    ref = inner + 2.0 * nl.g_constants().g_max * np.sqrt(1.0 - y_cross)
    _, _, mine = verify.check_upper_integral(prof)
    assert mine == pytest.approx(ref, abs=1e-9)


def test_ground_state_energy_against_scipy_quad():
    def dens(r):
        w, dw = ground_state(r)
        return (0.5 * dw * dw - 0.3 * w ** (10.0 / 3.0)) * r ** 4

    ref, est = quad(dens, 0.0, np.inf, epsabs=1e-12, limit=400)
    # scipy's infinite-range error estimate is conservative; bound by it
    assert abs(ground_state_energy() - SIGMA4 * ref) <= SIGMA4 * est + 1e-9


def _nu2_by_endpoint_flux(tol=1e-8, bracket=(1.0, 1.86), ode_tol=1e-10):
    """nu2 the long way: bisect the signed endpoint slope of full ODE solves
    (negative once the profile has turned before y = 1, positive while it
    still rises there)."""
    def slope(nu):
        flux = profiles.integrate_profile(nu, ode_tol).category.limit_flux
        return np.copysign(np.sqrt(abs(flux)), flux)

    lo, hi = bracket
    s_lo = slope(lo)
    assert s_lo * slope(hi) < 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        s_mid = slope(mid)
        if s_lo * s_mid <= 0.0:
            hi = mid
        else:
            lo, s_lo = mid, s_mid
    return 0.5 * (lo + hi)


def test_nu2_period_integral_against_ode_flux_bisection():
    nu2 = profiles.find_nu2()
    assert abs(nu2 - _nu2_by_endpoint_flux()) <= 1e-8
    assert abs(profiles.integrate_profile(nu2, 1e-12).category.limit_flux) < 1e-7
