import warnings

import numpy as np
import pytest

from exwave.nonlinearity import (SIGMA4, F, dg, g, g_constants, ground_state,
                                 ground_state_energy, ground_state_residual, m_k)
from exwave.quadrature import integrate_tail


def test_g_zero_points():
    assert g(0.0) == 0.0
    assert g(2.0 ** 0.75) == pytest.approx(0.0, abs=1e-14)


def test_g_maximum():
    gc = g_constants()
    assert gc.z_max == pytest.approx((6.0 / 7.0) ** 0.75, abs=1e-15)
    assert g(gc.z_max) == pytest.approx(gc.g_max, abs=1e-14)
    assert gc.g_max == pytest.approx(1.018080, abs=1e-6)
    assert dg(gc.z_max) == pytest.approx(0.0, abs=1e-12)


def test_g_shape_on_grid():
    gc = g_constants()
    z = np.linspace(0.0, 5.0, 10_001)
    vals = g(z)
    inside = (z > 0) & (z < gc.z0)
    assert np.all(vals[inside] > 0.0)
    assert np.all(vals[z > gc.z0 + 1e-9] < 0.0)
    rising = z <= gc.z_max
    assert np.all(np.diff(vals[rising]) > 0.0)
    falling = z >= gc.z_max
    assert np.all(np.diff(vals[falling]) < 0.0)


def test_g_and_F_odd():
    z = np.linspace(-3.0, 3.0, 101)
    assert np.array_equal(g(-z), -g(z))
    assert np.array_equal(F(-z), -F(z))


def test_F_values():
    assert F(0.0) == 0.0
    assert F(1.0) == 1.0
    assert F(-8.0) == pytest.approx(-128.0, abs=1e-12)


def test_ground_state_values():
    w, dw = ground_state(0.0)
    assert (w, dw) == (1.0, 0.0)
    w15, _ = ground_state(np.sqrt(15.0))
    assert w15 == pytest.approx(2.0 ** -1.5, abs=1e-15)


def test_ground_state_scaling():
    for lam in (0.5, 2.0):
        for r in (0.3, 1.0, 7.0):
            w_lam, dw_lam = ground_state(r, lam)
            w_unit, dw_unit = ground_state(r / lam)
            assert w_lam == pytest.approx(lam ** -1.5 * w_unit, rel=1e-14)
            assert dw_lam == pytest.approx(lam ** -2.5 * dw_unit, rel=1e-14)
    with pytest.raises(ValueError):
        ground_state(1.0, -1.0)


@pytest.mark.parametrize("r, lam", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 2.0),
                                    (1.0, np.nan), (1.0, np.inf), (1.0, 0.0),
                                    (np.array([1.0, np.inf]), 1.0),
                                    (np.array([0.5, np.nan]), 2.0)])
def test_ground_state_rejects_non_finite_input(r, lam):
    with pytest.raises(ValueError):
        ground_state(r, lam)


@pytest.mark.parametrize("r", [0.0, 1.0, np.linspace(0.0, 5.0, 11)])
def test_ground_state_rejects_a_scale_whose_powers_overflow(r):
    # lam^(-5/2) overflows below about 1e-123; a float ** raises OverflowError there
    with pytest.raises(ValueError, match="lambda=1e-300"):
        ground_state(r, 1e-300)
    assert ground_state(0.0, 1e-120)[0] == pytest.approx(1e180, rel=1e-14)


def test_ground_state_rejects_a_non_finite_pair():
    # at r/lam = 1e120, q^(-5/2) underflows to 0 while lam^(-5/2) x/5
    # overflows, and their product is NaN
    with pytest.raises(ValueError, match="not finite"):
        ground_state(1.0, 1e-120)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ValueError, not numpy's RuntimeWarnings
        with pytest.raises(ValueError, match=r"r=1\.0, lambda=1e-120 is not finite"):
            ground_state(np.array([0.0, 1.0]), 1e-120)
    w, dw = ground_state(1e-121, 1e-120)
    w_unit, dw_unit = ground_state(0.1)
    assert w == pytest.approx(1e180 * w_unit, rel=1e-14)
    assert dw == pytest.approx(1e300 * dw_unit, rel=1e-14)


def test_pointwise_functions_take_floats_and_arrays():
    # one formula for both; numpy's vectorised ** may round the last bit
    # differently from the float ** of libm
    z = np.linspace(-3.0, 3.0, 61)
    for fn in (g, dg, F):
        assert type(fn(0.7)) is float
        np.testing.assert_allclose(fn(z), [fn(v) for v in z.tolist()], rtol=0, atol=1e-14)
    w, dw = ground_state(z)
    assert type(ground_state(0.7)[0]) is float
    pairs = [ground_state(v) for v in z.tolist()]
    np.testing.assert_allclose(w, [p[0] for p in pairs], rtol=1e-15)
    np.testing.assert_allclose(dw, [p[1] for p in pairs], rtol=1e-15)


def test_ground_state_residual_vanishes():
    assert abs(ground_state_residual(1.0)) < 1e-12
    assert abs(ground_state_residual(10.0)) < 1e-12
    assert abs(ground_state_residual(0.01)) < 1e-10
    with pytest.raises(ValueError):
        ground_state_residual(0.0)
    # past r ~ 1e154, r * r overflows and inf * 0 would make the residual nan
    assert ground_state_residual(1e150) == 0.0
    with pytest.raises(ValueError, match="not finite"):
        ground_state_residual(1e160)


def _pohozaev_pieces(tol=1e-10):
    def grad_piece(rho):
        _, dw = ground_state(rho)
        return dw * dw * rho ** 4

    def pot_piece(rho):
        w, _ = ground_state(rho)
        return w ** (10.0 / 3.0) * rho ** 4

    a = SIGMA4 * integrate_tail(grad_piece, 0.0, tol, decay=4.0)
    b = SIGMA4 * integrate_tail(pot_piece, 0.0, tol, decay=6.0)
    return a, b


def test_pohozaev_identity():
    a, b = _pohozaev_pieces()
    assert abs(a - b) / abs(a) < 1e-8


def test_ground_state_energy_is_fifth_of_gradient():
    e = ground_state_energy()
    grad_sq, _ = _pohozaev_pieces()
    assert e == pytest.approx(grad_sq / 5.0, rel=1e-8)


def test_ground_state_energy_tail_stability():
    # doubling the tail-rule tolerance scale must not move the value
    e1 = ground_state_energy(1e-9)
    e2 = ground_state_energy(1e-11)
    assert abs(e1 - e2) / abs(e1) < 1e-8


def test_m_k_reference_rows():
    z0 = g_constants().z0
    assert m_k(1.6, z0) == pytest.approx(0.000000, abs=5e-5)
    assert m_k(0.9, 1.0) == pytest.approx(1.000000, abs=5e-5)
    assert m_k(0.1, 0.2) == pytest.approx(0.195358, abs=5e-5)
    # row 9 holds the maximum z_max ~ 0.8909 of g; the endpoint minimum is
    # still the minimum because g is concave
    assert m_k(0.8, 0.9) == pytest.approx(1.005877, abs=5e-5)
    assert m_k(0.8, 0.9) == min(g(z) for z in np.linspace(0.8, 0.9, 10001).tolist())
    with pytest.raises(ValueError):
        m_k(0.5, 0.5)


def test_sigma4_exact_expression():
    assert SIGMA4 == 8.0 * np.pi ** 2 / 3.0
