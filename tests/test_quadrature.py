import time

import numpy as np
import pytest

from exwave.nonlinearity import g, g_constants, ground_state
from exwave.quadrature import (QuadratureError, integrate_adaptive, integrate_sqrt_singular,
                               integrate_tail)
from exwave import profiles


def test_constant_integrand():
    assert integrate_adaptive(lambda y: np.ones_like(y), 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_polynomial_exactness():
    assert integrate_adaptive(lambda y: y * y, 0.0, 1.0, 1e-12) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_ground_state_moment_tail_doubling():
    # int rho^4 W^(10/3) over [0, 200] cross-checked against the doubled domain;
    # the integrand decays like 15^5 rho^-6, so the exact mass between 200 and
    # 400 is (15^5/5)(200^-5 - 400^-5) ~ 1.4e-8 of the total
    def f(rho):
        w, _ = ground_state(rho)
        return rho ** 4 * w ** (10.0 / 3.0)

    q1 = integrate_adaptive(f, 0.0, 200.0, 1e-10)
    q2 = integrate_adaptive(f, 0.0, 400.0, 1e-10)
    assert np.isfinite(q1)
    rel = abs(q2 - q1) / abs(q1)
    assert rel < 2e-8
    leading_tail = (15.0 ** 5 / 5.0) * (200.0 ** -5 - 400.0 ** -5)
    assert abs(q2 - q1) == pytest.approx(leading_tail, rel=5e-3)


def test_sqrt_singular_constant():
    val = integrate_sqrt_singular(lambda y: np.ones_like(y), 0.0, 1.0, 1e-12)
    assert val == pytest.approx(2.0, abs=1e-12)


def test_sqrt_singular_pushup_integral():
    val = integrate_sqrt_singular(lambda y: profiles.phi_star_exact(y), 0.0, 8.0 / 9.0, 1e-12)
    assert val == pytest.approx(0.604556, abs=1e-4)


def test_sqrt_singular_capped_ray_integral():
    prof = profiles.integrate_profile(1.86, 1e-10)
    z_max = g_constants().z_max

    def f(y):
        return g(np.minimum(prof.phi_at(np.asarray(y)), z_max))

    val = integrate_sqrt_singular(f, 0.0, 1.0, 1e-9)
    assert val == pytest.approx(1.85024, abs=1e-3)


def test_sqrt_singular_rejects_b_above_one():
    with pytest.raises(ValueError):
        integrate_sqrt_singular(lambda y: y, 0.0, 1.5)


def test_tail_zero_function():
    assert integrate_tail(lambda r: np.zeros_like(r), 0.0, 1e-12, decay=2.0) == 0.0


def test_tail_algebraic_decay():
    assert integrate_tail(lambda r: r ** -3.0, 1.0, 1e-10, decay=3.0) == pytest.approx(0.5, abs=1e-8)


def test_tail_rejects_undeclared_decay():
    with pytest.raises(ValueError):
        integrate_tail(lambda r: r ** -3.0, 1.0, 1e-10)
    with pytest.raises(ValueError):
        integrate_tail(lambda r: r ** -0.5, 1.0, 1e-10, decay=0.5)


def test_linearity_on_random_polynomials(rng):
    tol = 1e-11
    for _ in range(10):
        pc = rng.uniform(-2.0, 2.0, size=4)
        qc = rng.uniform(-2.0, 2.0, size=4)
        alpha, beta = rng.uniform(-3.0, 3.0, size=2)

        def p(y):
            return np.polyval(pc, y)

        def q(y):
            return np.polyval(qc, y)

        lhs = integrate_adaptive(lambda y: alpha * p(y) + beta * q(y), -1.0, 2.0, tol)
        rhs = (alpha * integrate_adaptive(p, -1.0, 2.0, tol)
               + beta * integrate_adaptive(q, -1.0, 2.0, tol))
        assert abs(lhs - rhs) <= 2.0 * tol * max(1.0, abs(alpha) + abs(beta))


def test_substitution_consistency():
    # sqrt-singular value vs adaptive on [a, b - eps] plus the analytic remainder bound
    def f(y):
        return np.cos(np.asarray(y))

    tol = 1e-10
    full = integrate_sqrt_singular(f, 0.0, 1.0, tol)
    eps = 1e-6
    trunc = integrate_adaptive(lambda y: f(y) / np.sqrt(1.0 - y), 0.0, 1.0 - eps, tol)
    remainder_bound = 2.0 * np.sqrt(eps) * 1.0  # |f| <= 1
    assert abs(full - trunc) <= remainder_bound + tol


def test_determinism():
    def f(y):
        return np.exp(-y) * np.sin(3.0 * y)

    a = integrate_adaptive(f, 0.0, 5.0, 1e-11)
    b = integrate_adaptive(f, 0.0, 5.0, 1e-11)
    assert a == b
    t1 = integrate_tail(lambda r: r ** -2.5, 1.0, 1e-9, decay=2.5)
    t2 = integrate_tail(lambda r: r ** -2.5, 1.0, 1e-9, decay=2.5)
    assert t1 == t2


def test_nonconvergence_carries_best_estimate():
    # a genuinely singular integrand the plain rule cannot settle at this tolerance
    def f(y):
        return 1.0 / np.sqrt(np.abs(y) + 1e-300)

    with pytest.raises(QuadratureError) as info:
        integrate_adaptive(f, 0.0, 1.0, 1e-13)
    assert np.isfinite(info.value.best)
    assert info.value.err_bound > 0


def test_non_finite_integrand_raises_at_once():
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_adaptive(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_sqrt_singular(lambda y: np.full_like(y, np.inf), 0.0, 1.0)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 0.0, 1.0, tol)


def test_limits_must_be_finite():
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, 0.0, np.inf)
    with pytest.raises(ValueError):
        integrate_adaptive(np.sin, np.nan, 1.0)


def test_panel_budget_stops_a_nonconvergent_integral():
    # the oscillation is unresolved until panels shrink to ~1e-8: far more
    # panels than any budget, so the budget decides, with a best estimate
    def f(x):
        return np.sin(1e8 * x)

    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="panel budget") as info:
        integrate_adaptive(f, 0.0, 1.0, 1e-12)
    assert time.perf_counter() - start < 10.0
    assert np.isfinite(info.value.best)
    assert info.value.err_bound > 1e-12
