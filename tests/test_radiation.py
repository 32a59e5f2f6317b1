import math
import re
import time

import numpy as np
import pytest

from exwave import nonlinearity as nl
from exwave import profiles
from exwave import exterior as ext
from exwave import radiation as rad
from exwave.nonlinearity import SIGMA4, ground_state
from tests.conftest import random_smooth_profile


def box_profile():
    return rad.RadiationProfile(
        lambda s: ((np.asarray(s) >= -1.0) & (np.asarray(s) <= 1.0)).astype(float),
        support=(-1.0, 1.0))


def slope_profile():
    # G(s) = s on [-1, 1]
    return rad.RadiationProfile(
        lambda s: np.where((np.asarray(s) >= -1.0) & (np.asarray(s) <= 1.0),
                           np.asarray(s, dtype=float), 0.0),
        support=(-1.0, 1.0))


def ground_state_data():
    return rad.RadialData(
        u0=lambda r: ground_state(r)[0],
        du0=lambda r: ground_state(r)[1],
        u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        decay=3.0)


# -- free waves ------------------------------------------------------------------


def test_free_wave_zero_profile():
    z = rad.RadiationProfile.zero()
    assert rad.free_wave(z, 2.0, 1.5) == 0.0
    assert rad.free_wave_velocity(z, 0.7, -2.0) == 0.0
    assert rad.free_wave_gradient(z, 0.7, -2.0) == 0.0


def test_free_wave_slope_profile_value():
    assert rad.free_wave(slope_profile(), 2.0, 0.0) == pytest.approx(1.0 / 12.0, abs=1e-12)


def test_free_wave_box_far_field():
    box = box_profile()
    for r, t in ((3.0, 0.5), (5.0, 2.0), (4.0, -1.5)):
        assert r > 1.0 + abs(t)
        assert rad.free_wave(box, r, t) == pytest.approx(-2.0 * t / r ** 3, abs=1e-13)
        assert rad.free_wave_velocity(box, r, t) == pytest.approx(-2.0 / r ** 3, abs=1e-13)
    with pytest.raises(ValueError):
        rad.free_wave(box, -1.0, 0.0)


_NAN, _INF = float("nan"), float("inf")
_NON_FINITE_PROBES = {
    "m_k(0,inf)": lambda: nl.m_k(0.0, _INF),
    "ground_state_residual(nan)": lambda: nl.ground_state_residual(_NAN),
    "ground_state_residual(inf)": lambda: nl.ground_state_residual(_INF),
    "free_wave(t=nan)": lambda: rad.free_wave(box_profile(), 2.0, _NAN),
    "free_wave(t=inf)": lambda: rad.free_wave(box_profile(), 2.0, _INF),
    "free_wave_velocity(t=nan)": lambda: rad.free_wave_velocity(box_profile(), 2.0, _NAN),
    "free_wave_gradient(t=-inf)": lambda: rad.free_wave_gradient(box_profile(), 2.0, -_INF),
    "inverse_phi(nan)": lambda: profiles.inverse_phi(profiles.integrate_profile(1.86, 1e-10),
                                                     _NAN),
    # a profile's point, end or radius: NaN, and a negative R, where the two
    # sides of the tail would overlap on [R, -R]
    "box.value(nan)": lambda: box_profile().value(_NAN),
    "spline.value(nan)": lambda: _spline_profile().value(_NAN),
    "spline.value([0, nan])": lambda: _spline_profile().value(np.array([0.0, _NAN])),
    "box.moment0(nan,1)": lambda: box_profile().moment0(_NAN, 1.0),
    "spline.moment0(nan,1)": lambda: _spline_profile().moment0(_NAN, 1.0),
    "decaying.moment0(nan,1)": lambda: _decaying_profile().moment0(_NAN, 1.0),
    "box.moment1(0,nan)": lambda: box_profile().moment1(0.0, _NAN),
    "spline.moment1_vec(nan)": lambda: _spline_profile().moment1_vec(np.array([_NAN]), 1.0),
    "box.l2_tail_sq(nan)": lambda: box_profile().l2_tail_sq(_NAN),
    "box.l2_tail_sq(-0.5)": lambda: box_profile().l2_tail_sq(-0.5),
    "decaying.l2_tail_sq(-0.5)": lambda: _decaying_profile().l2_tail_sq(-0.5),
}


def _spline_profile():
    s = np.linspace(-1.0, 1.0, 41)
    return rad.RadiationProfile.from_samples(s, (1.0 - s * s) ** 3)


def _decaying_profile():
    return rad.RadiationProfile(lambda s: 1.0 / (1.0 + s * s) ** 3, decay=6.0)


@pytest.mark.parametrize("probe", _NON_FINITE_PROBES.values(), ids=_NON_FINITE_PROBES.keys())
def test_non_finite_input_raises_value_error(probe):
    with pytest.raises(ValueError):
        probe()


def test_velocity_matches_time_difference(rng):
    G = random_smooth_profile(rng)
    r, t = 1.7, 0.4
    prev = None
    for h in (1e-3, 5e-4):
        fd = (rad.free_wave(G, r, t + h) - rad.free_wave(G, r, t - h)) / (2.0 * h)
        err = abs(fd - rad.free_wave_velocity(G, r, t))
        if prev is not None:
            assert err < prev / 3.0  # second-order shrink
        prev = err
    assert prev < 1e-7


def test_gradient_matches_space_difference(rng):
    G = random_smooth_profile(rng)
    r, t = 1.9, -0.3
    h = 1e-4
    fd = (rad.free_wave(G, r + h, t) - rad.free_wave(G, r - h, t)) / (2.0 * h)
    assert abs(fd - rad.free_wave_gradient(G, r, t)) < 1e-7


# -- positive propagator -----------------------------------------------------------


def test_positive_propagator_zero():
    u1 = lambda rho: np.zeros_like(np.asarray(rho, dtype=float))
    assert ext.positive_propagator(u1, 3.0, 1.0) == 0.0
    with pytest.raises(ValueError):
        ext.positive_propagator(u1, 1.0, 2.0)


def test_positive_propagator_matches_free_wave():
    u1 = lambda rho: ((np.asarray(rho) >= 1.0) & (np.asarray(rho) <= 2.0)).astype(float)
    d = rad.RadialData(u0=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                       du0=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                       u1=u1, tail_radius=2.0, breakpoints=(1.0, 2.0))
    G = rad.profile_from_data(d)
    for r, t in ((5.0, 0.5), (2.0, 0.8), (3.0, 1.4)):
        direct = ext.positive_propagator(u1, r, t, support=(1.0, 2.0))
        via_profile = rad.free_wave(G, r, t)
        assert abs(direct - via_profile) < 1e-8
    # the exact kernel value at (2, 0.8)
    assert ext.positive_propagator(u1, 2.0, 0.8, support=(1.0, 2.0)) == pytest.approx(0.2432, abs=1e-12)


def test_positive_propagator_positivity(rng):
    # nonnegative velocity data give a nonnegative wave wherever r > t
    knots = np.linspace(1.0, 3.0, 9)
    vals = rng.uniform(0.0, 1.0, size=9)
    vals[0] = vals[-1] = 0.0
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(knots, vals)

    def u1(rho):
        rho = np.asarray(rho, dtype=float)
        out = np.where((rho >= 1.0) & (rho <= 3.0), np.maximum(spline(np.clip(rho, 1.0, 3.0)), 0.0), 0.0)
        return out

    for _ in range(100):
        t = rng.uniform(0.0, 3.0)
        r = t + rng.uniform(1e-3, 4.0)
        assert ext.positive_propagator(u1, r, t, support=(1.0, 3.0)) >= -1e-14


# -- profile <-> data ---------------------------------------------------------------


def test_data_from_box_profile():
    d = rad.data_from_profile(box_profile())
    for r in (1.5, 2.0, 4.0):
        assert d.u0(r) == pytest.approx(0.0, abs=1e-13)
        assert d.u1(r) == pytest.approx(-2.0 / r ** 3, abs=1e-13)
    assert d.u1(0.5) == pytest.approx(0.0, abs=1e-13)


def test_data_from_slope_profile():
    d = rad.data_from_profile(slope_profile())
    for r in (1.5, 3.0):
        assert d.u0(r) == pytest.approx(2.0 / (3.0 * r ** 3), abs=1e-13)
        assert d.u1(r) == pytest.approx(0.0, abs=1e-13)


def test_data_from_zero_profile():
    d = rad.data_from_profile(rad.RadiationProfile.zero())
    assert d.u0(2.0) == 0.0 and d.u1(2.0) == 0.0


def _kinked_box():
    # 1 + s up to the breakpoint 0.3, then -0.5: the quadrature moment path
    def fn(s):
        s = np.asarray(s, dtype=float)
        inside = (s >= -1.0) & (s <= 1.0)
        return np.where(s < 0.3, 1.0 + s, -0.5) * inside
    return rad.RadiationProfile(fn, support=(-1.0, 1.0), breakpoints=(0.3,))


def _smooth_bump():
    def fn(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3 * (1.0 + 0.5 * s), 0.0)
    return rad.RadiationProfile(fn, support=(-1.0, 1.0), smooth=True)


@pytest.mark.parametrize("make", [_kinked_box, _smooth_bump])
def test_vector_moments_keep_shape_and_match_scalar(make):
    G = make()
    a = np.array([[-2.0, -0.5, 0.1], [0.3, 0.8, 2.0]])
    b = np.array([[2.0, 0.5, 0.9], [0.7, 0.2, 3.0]])   # (0.8, 0.2) is empty
    for vec, scalar in ((G.moment0_vec, G.moment0), (G.moment1_vec, G.moment1)):
        out = vec(a, b)
        assert out.shape == a.shape
        for i in np.ndindex(a.shape):
            assert out[i] == scalar(a[i], b[i])
        assert out[1, 1] == 0.0
        assert np.ndim(vec(-0.5, 0.5)) == 0
        assert vec(-0.5, 0.5) == scalar(-0.5, 0.5)


def test_profile_from_box_velocity_data():
    u1 = lambda rho: ((np.asarray(rho) >= 1.0) & (np.asarray(rho) <= 2.0)).astype(float)
    d = rad.RadialData(u0=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                       du0=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                       u1=u1, tail_radius=2.0, breakpoints=(1.0, 2.0))
    G = rad.profile_from_data(d)
    assert G.value(1.5) == pytest.approx(0.75 * 1.5 ** 2 - 1.0, abs=1e-12)
    assert G.value(0.5) == pytest.approx(-0.75, abs=1e-12)
    assert G.value(-0.5) == pytest.approx(-0.75, abs=1e-12)  # even in s: u0 = 0
    assert G.value(3.0) == 0.0


def test_round_trip_smooth_profile(rng):
    G = random_smooth_profile(rng)
    d = rad.data_from_profile(G)
    G2 = rad.profile_from_data(d)
    s = rng.uniform(-1.5, 1.5, size=100)
    gap = np.max(np.abs(G2.value(s) - G.value(s)))
    assert gap < 1e-8


def test_profile_recovery_flags_missing_derivative(rng):
    # G_even needs u0', and recovery, like the exterior energy, takes it only
    # from the data's du0: data without one are rejected
    G = random_smooth_profile(rng)
    d = rad.data_from_profile(G)
    d_no_deriv = rad.RadialData(u0=d.u0, du0=None, u1=d.u1, decay=d.decay,
                                tail_radius=d.tail_radius, tail_c0=d.tail_c0,
                                tail_c1=d.tail_c1)
    with pytest.raises(ValueError, match="profile recovery needs derivative access to u0"):
        rad.profile_from_data(d_no_deriv)


def test_profile_recovery_rejects_undeclared_tails():
    d = rad.RadialData(u0=lambda r: np.asarray(r, dtype=float) ** -1.2,
                       du0=lambda r: -1.2 * np.asarray(r, dtype=float) ** -2.2,
                       u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    with pytest.raises(ValueError):
        rad.profile_from_data(d)


def test_recovered_profile_array_matches_pointwise():
    # one array evaluation, with s = 0 and both signs, equals the scalar calls
    r = np.linspace(0.1, 3.0, 301)
    sampled = rad.RadialData.from_samples(r, np.exp(-r) * np.cos(3.0 * r), np.sin(2.0 * r))
    s = np.array([-3.5, -1.7, -0.05, 0.0, 0.05, 1.7, 2.999, 3.5])
    for d in (sampled, ground_state_data()):
        G = rad.profile_from_data(d)
        assert np.array_equal(G.value(s), [G.value(float(x)) for x in s])


def test_array_arguments_give_the_float_calls_bit_for_bit():
    # on a sampled profile and sampled data, every function that maps itself
    # over an array gives what its float calls give
    grid = np.linspace(-1.5, 1.5, 121)
    vals = np.cos(2.0 * grid) * (1.0 - grid * grid / 2.25) ** 3
    G = rad.RadiationProfile.from_samples(grid, vals)
    grid = np.linspace(0.1, 3.0, 97)
    u0, u1 = np.exp(-grid) * np.cos(3.0 * grid), np.sin(2.0 * grid)
    data = [rad.RadialData.from_samples(grid, u0, u1)]
    s = np.array([[-2.0, -1.5, -0.7, 0.0], [0.3, 1.1, 1.5, 2.5]])
    r = np.array([0.05, 0.1, 0.77, 1.5, 2.999, 3.0, 4.5])
    of_s = [G.value, G._spline, G._spline.derivative(), G._spline.antiderivative()]
    of_s += [rad.profile_from_data(d).value for d in data]
    of_r = [lambda x, f=f, t=t: f(G, x, t) for t in (0.0, 0.4)
            for f in (rad.free_wave, rad.free_wave_velocity, rad.free_wave_gradient)]
    of_r += [f for d in data for f in (d.u0, d.du0, d.u1, d.u1_tail)]
    for fn, x in [(fn, x) for fn in of_s for x in (s, r)] + [(fn, r) for fn in of_r]:
        got = fn(x)
        assert got.shape == x.shape
        assert np.array_equal(got, np.reshape([fn(float(v)) for v in x.ravel()], x.shape))
        assert type(fn(float(x.flat[1]))) is float
    a, b = s, s[::-1, ::-1]
    for vec, scalar in ((G.moment0_vec, G.moment0), (G.moment1_vec, G.moment1)):
        assert np.array_equal(vec(a, b), [[scalar(x, y) for x, y in zip(*row)]
                                          for row in zip(a, b)])


@pytest.mark.parametrize("start, stop, num", [(0.1, 3.0, 2001), (-1.5, 1.5, 4097),
                                              (-3.0, 3.0, 2), (1e-3, 7.0, 3), (2.0, 2.0, 5)])
def test_float_linspace_is_numpys_bit_for_bit(start, stop, num):
    from exwave._spline import linspace

    assert linspace(start, stop, num) == np.linspace(start, stop, num).tolist()


def test_sampled_data_reject_radii_out_of_range():
    with pytest.raises(ValueError, match="nonnegative"):
        rad.RadialData.from_samples([-1.0, 0.0, 1.0, 2.0], [0.0, 1.0, 0.5, 0.0], [0.0] * 4)
    with pytest.raises(ValueError, match=re.escape("radius 1e+80 is out of range: r**4")):
        rad.RadialData.from_samples([1.0, 2.0, 1e80], [1.0, 0.5, 0.0], [0.0] * 3)
    # r[0] = 0 is allowed: the even continuation holds u0 at its value there
    d = rad.RadialData.from_samples([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.2, 0.1], [0.0] * 4)
    assert d.u0(0.0) == 1.0


_BY_RADIUS = {"free_wave": lambda G, R: rad.free_wave(G, R, 0.0),
              "velocity": lambda G, R: rad.free_wave_velocity(G, R, 0.0),
              "identity": ext.exterior_energy_identity,
              "residues": rad.residues}


@pytest.mark.parametrize("name, R, power", [
    ("free_wave", 1e-300, 3), ("free_wave", 1e250, 3), ("velocity", 1e-120, 3),
    ("identity", 1e-300, 3), ("identity", 1e110, 3), ("residues", 1e-320, 1.5),
    ("residues", 1e250, 1.5)])
def test_radii_whose_powers_under_or_overflow_are_rejected(name, R, power):
    G = rad.RadiationProfile(lambda s: 1.0, support=(-1.0, 1.0))
    with pytest.raises(ValueError, match=re.escape(f"radius {R!r} is out of range: r**{power}")):
        _BY_RADIUS[name](G, R)


def test_residues_of_a_tiny_radius_whose_power_stays_finite():
    G = rad.RadiationProfile(lambda s: 1.0, support=(-1.0, 1.0))
    pair = rad.residues(G, 1e-200)   # R^(3/2) = 1e-300
    assert pair.tau1 == pytest.approx(-2e-200 / 1e-100, rel=1e-14)
    assert pair.tau2 == 0.0


def test_ground_state_residue_profile():
    G = rad.profile_from_data(ground_state_data())
    for r in (1.0, 5.0, 20.0):
        pair = rad.residues(G, r)
        target = np.sqrt(3.0) * r ** 1.5 * ground_state(r)[0]
        assert abs(pair.tau2 - target) < 1e-8
        assert abs(pair.tau1) < 1e-10


# -- exterior energies ---------------------------------------------------------------


def test_exterior_energy_identity_slope_profile():
    G = slope_profile()
    d = rad.data_from_profile(G)
    direct = ext.exterior_energy(d, 1.0)
    via_profile = ext.exterior_energy_identity(G, 1.0)
    expected = 4.0 / 3.0 * SIGMA4
    assert direct == pytest.approx(expected, rel=1e-10)
    assert via_profile == pytest.approx(expected, rel=1e-10)


def test_exterior_energy_zero_profile():
    assert ext.exterior_energy_identity(rad.RadiationProfile.zero(), 2.0) == 0.0


def test_exterior_energy_splits_at_breakpoints():
    # u1 = 1 on [1, 2]: E(0.5) = sigma4 int_1^2 rho^4 drho
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    u1 = lambda rho: ((np.asarray(rho) >= 1.0) & (np.asarray(rho) <= 2.0)).astype(float)
    d = rad.RadialData(u0=zero, du0=zero, u1=u1, tail_radius=2.0,
                       breakpoints=(1.0, 2.0))
    assert ext.exterior_energy(d, 0.5) == pytest.approx(SIGMA4 * 31.0 / 5.0, abs=1e-12)


def test_data_validate_the_far_field():
    # exterior_energy would close a negative tail radius through the tail past
    # R while profile_from_data rejects its support, and coefficients without
    # a radius would be dropped unread
    one = lambda r: 1.0
    for bad in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="tail_radius must be finite and positive"):
            rad.RadialData(u0=one, du0=one, u1=one, tail_radius=bad, tail_c0=1.0)
    for name in ("tail_c0", "tail_c1"):
        with pytest.raises(ValueError, match=f"{name} = 1.0 needs a tail_radius"):
            rad.RadialData(u0=one, du0=one, u1=one, **{name: 1.0})
    # the zero profile's data keep the floor of data_from_profile
    assert rad.data_from_profile(rad.RadiationProfile.zero()).tail_radius == 1e-12


def test_data_and_profiles_declare_one_far_field():
    # each record reads decay only where it has no tail_radius or support, so
    # a decay set beside either would be dropped unread
    one = lambda r: 1.0
    with pytest.raises(ValueError, match=r"tail_radius and decay, got tail_radius=2.0, decay=3.0"):
        rad.RadialData(u0=one, du0=one, u1=one, tail_radius=2.0, decay=3.0)
    with pytest.raises(ValueError, match=r"support and decay, got support=\(-1.0, 1.0\), decay=3.0"):
        rad.RadiationProfile(one, support=(-1.0, 1.0), decay=3.0)
    with pytest.raises(ValueError, match="support and decay, got support=None, decay=None"):
        rad.RadiationProfile(one)
    # and the maps between them declare one each
    assert rad.data_from_profile(_smooth_bump()).decay is None
    d = rad.data_from_profile(rad.RadiationProfile(lambda s: 1.0 / (1.0 + s * s) ** 3, decay=6.0))
    assert (d.tail_radius, d.decay) == (None, 3.0)
    r = np.linspace(0.5, 2.0, 7)
    assert rad.RadialData.from_samples(r, np.exp(-r), r * 0.0).decay is None


def test_nan_decay_is_no_declared_decay():
    from exwave.quadrature import integrate_tail

    with pytest.raises(ValueError, match="decay exponent > 1, got nan"):
        integrate_tail(lambda r: r ** -3.0, 1.0, 1e-10, decay=math.nan)
    d = rad.RadialData(u0=lambda r: r ** -3.0, du0=lambda r: -3.0 * r ** -4.0,
                       u1=lambda r: 0.0, decay=math.nan)
    with pytest.raises(ValueError, match="decay exponent"):
        ext.exterior_energy(d, 1.0)


def test_exterior_energy_identity_random(rng):
    for _ in range(3):
        G = random_smooth_profile(rng)
        d = rad.data_from_profile(G)
        for R in (0.5, 1.0, 2.0, 10.0):
            a = ext.exterior_energy(d, R)
            b = ext.exterior_energy_identity(G, R)
            assert abs(a - b) <= 1e-8 * max(a, b, 1e-30)
    with pytest.raises(ValueError):
        ext.exterior_energy_identity(G, -1.0)


def test_isometry(rng):
    # ||(u0, u1)||^2 over the whole space equals 2 sigma4 ||G||^2
    for _ in range(5):
        G = random_smooth_profile(rng)
        d = rad.data_from_profile(G)
        full = ext.exterior_energy(d, 1e-3)
        target = 2.0 * SIGMA4 * G.norm_l2 ** 2
        assert abs(full - target) / target < 1e-7


def test_two_radius_energy_comparison(rng):
    # E(R1) <= E(R2) + sigma4 * (2 ||G||^2 on R1<|s|<R2 + |tau(R1)|^2)
    for _ in range(3):
        G = random_smooth_profile(rng)
        d = rad.data_from_profile(G)
        for r1, r2 in ((0.2, 0.9), (0.5, 2.0), (1.0, 10.0)):
            e1 = ext.exterior_energy(d, r1)
            e2 = ext.exterior_energy(d, r2)
            band = G.l2_tail_sq(r1) - G.l2_tail_sq(r2)
            pair = rad.residues(G, r1)
            bound = e2 + SIGMA4 * (2.0 * band + pair.tau1 ** 2 + pair.tau2 ** 2)
            assert e1 <= bound + 1e-9 * max(1.0, bound)


# -- residues and flow ----------------------------------------------------------------


def test_residues_box():
    pair = rad.residues(box_profile(), 1.0)
    assert pair.tau1 == pytest.approx(-2.0, abs=1e-12)
    assert pair.tau2 == pytest.approx(0.0, abs=1e-12)
    z = rad.residues(rad.RadiationProfile.zero(), 3.0)
    assert (z.tau1, z.tau2) == (0.0, 0.0)
    with pytest.raises(ValueError):
        rad.residues(box_profile(), 0.0)


def test_residue_flow_outside_box_support():
    box = box_profile()
    d1, d2 = ext.residue_flow(box, box.reflect(), 2.0)
    pair = rad.residues(box, 2.0)
    assert d1 == pytest.approx(-pair.tau1 / 4.0, abs=1e-12)   # = 2^(-3/2)
    assert d1 == pytest.approx(2.0 ** -1.5, abs=1e-12)
    assert d2 == pytest.approx(-3.0 * pair.tau2 / 4.0, abs=1e-12)


def test_residue_flow_zero():
    z = rad.RadiationProfile.zero()
    assert ext.residue_flow(z, z, 1.0) == (0.0, 0.0)


def test_residue_flow_matches_centered_difference(rng):
    G = random_smooth_profile(rng)
    Gp = G.reflect()
    for r0 in (0.4, 0.9, 2.5):
        d1, d2 = ext.residue_flow(G, Gp, r0)
        h = 1e-3
        pa, pb = rad.residues(G, r0 + h), rad.residues(G, r0 - h)
        assert abs(d1 - (pa.tau1 - pb.tau1) / (2 * h)) < 50.0 * h * h
        assert abs(d2 - (pa.tau2 - pb.tau2) / (2 * h)) < 50.0 * h * h


def test_residue_flow_rejects_jump():
    box = box_profile()
    with pytest.raises(ValueError):
        ext.residue_flow(box, box.reflect(), 1.0)  # jump of the box edge


# -- asymptotic numbers and translations ------------------------------------------------


def test_asymptotic_numbers_examples():
    assert rad.asymptotic_numbers(box_profile()) == (pytest.approx(-2.0, abs=1e-12),
                                                     pytest.approx(0.0, abs=1e-12))
    assert rad.asymptotic_numbers(rad.RadiationProfile.zero()) == (0.0, 0.0)
    a1, a2 = rad.asymptotic_numbers(slope_profile())
    assert a1 == pytest.approx(0.0, abs=1e-12)
    assert a2 == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_asymptotic_numbers_of_decaying_profiles():
    even = rad.RadiationProfile(
        lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2) ** 2, decay=4.0)
    a1, a2 = rad.asymptotic_numbers(even)
    assert a1 == pytest.approx(-np.pi / 2.0, abs=1e-10)
    assert a2 == pytest.approx(0.0, abs=1e-10)
    assert even.l2_tail_sq(0.0) == pytest.approx(5.0 * np.pi / 16.0, abs=1e-10)
    odd = rad.RadiationProfile(
        lambda s: np.asarray(s, dtype=float) / (1.0 + np.asarray(s, dtype=float) ** 2) ** 3,
        decay=5.0)
    a1, a2 = rad.asymptotic_numbers(odd)
    assert a1 == pytest.approx(0.0, abs=1e-10)
    assert a2 == pytest.approx(np.pi / 8.0, abs=1e-10)


def test_asymptotic_numbers_reject_ground_state_profile():
    # the recovered profile declares decay 2, so s G decays only like 1/s
    G = rad.profile_from_data(ground_state_data())
    start = time.perf_counter()
    with pytest.raises(ValueError):
        rad.asymptotic_numbers(G)
    assert time.perf_counter() - start < 1.0


def test_asymptotic_numbers_reject_undeclared_decay():
    slow = rad.RadiationProfile(
        lambda s: 1.0 / (1.0 + np.abs(np.asarray(s, dtype=float))), decay=1.0)
    with pytest.raises(ValueError):
        rad.asymptotic_numbers(slow)


def test_translation_law_box():
    shifted = box_profile().shifted(3.0)
    a1, a2 = rad.asymptotic_numbers(shifted)
    assert a1 == pytest.approx(-2.0, abs=1e-12)
    assert a2 == pytest.approx(-6.0, abs=1e-12)


def test_translation_law_random(rng):
    G = random_smooth_profile(rng)
    a1, a2 = rad.asymptotic_numbers(G)
    for t0 in (-3.0, 0.7, 10.0):
        b1, b2 = rad.asymptotic_numbers(G.shifted(t0))
        assert abs(b1 - a1) < 1e-9
        assert abs(b2 - (a2 + a1 * t0)) < 1e-9


def test_shift_round_trip(rng):
    G = random_smooth_profile(rng)
    back = G.shifted(1.3).shifted(-1.3)
    s = rng.uniform(-2.0, 2.0, size=50)
    assert np.max(np.abs(back.value(s) - G.value(s))) < 1e-12
    same = G.shifted(0.0)
    assert np.array_equal(same.value(s), G.value(s))


# -- nonlinear profile shift ---------------------------------------------------------


def test_nonlinear_shift_zero_source():
    zero = lambda t, r: np.zeros_like(np.broadcast_arrays(np.asarray(t), np.asarray(r))[0])
    assert ext.nonlinear_profile_shift(zero, 0.5, t_support=(0.0, 1.0),
                                       r_support=(0.0, 5.0)) == 0.0


def test_nonlinear_shift_rectangle_source():
    fsrc = lambda t, r: np.where((np.asarray(t) >= 0) & (np.asarray(t) <= 1)
                                 & (np.asarray(r) >= 2) & (np.asarray(r) <= 3), 1.0, 0.0)
    got = ext.nonlinear_profile_shift(fsrc, 0.0, t_support=(0.0, 1.0), r_support=(2.0, 3.0))
    assert got == pytest.approx(-1.25, abs=1e-10)
    assert ext.nonlinear_profile_shift(fsrc, 4.0, t_support=(0.0, 1.0),
                                       r_support=(2.0, 3.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        ext.nonlinear_profile_shift(fsrc, 0.0)
    # the shells need the source's radial extent or its decay
    with pytest.raises(ValueError, match="r_support or a declared decay"):
        ext.nonlinear_profile_shift(fsrc, 0.0, t_support=(0.0, 1.0))


# -- ground-state residue radius --------------------------------------------------------


def test_compute_c2_inverse_consistency():
    rho = ext.tau2_of_ground_state(4.0)
    assert ext.compute_c2(rho) == pytest.approx(4.0, abs=1e-10)


def test_compute_c2_monotone():
    radii = [ext.compute_c2(rho) for rho in (0.5, 0.1, 0.01)]
    assert radii[0] < radii[1] < radii[2]
    assert radii[0] > np.sqrt(15.0)


def test_compute_c2_domain():
    assert ext.compute_c2(1.0) > np.sqrt(15.0)
    with pytest.raises(ValueError):
        ext.compute_c2(100.0)


# -- profile container invariants --------------------------------------------------------


def test_support_honesty(rng):
    G = random_smooth_profile(rng, lo=-0.8, hi=1.1)
    outside = np.concatenate([rng.uniform(-50.0, -0.81, 50), rng.uniform(1.11, 50.0, 50)])
    assert np.all(G.value(outside) == 0.0)


def test_norm_cache_consistency(rng):
    G = random_smooth_profile(rng)
    cached = G.norm_l2
    recomputed = np.sqrt(G.l2_tail_sq(0.0))
    assert abs(cached - recomputed) < 1e-10
    assert cached >= 0.0


def test_sampled_profile_round_trip(rng):
    s = np.linspace(-2.0, 2.0, 401)
    vals = np.where(np.abs(s) < 1.5, np.cos(2.0 * s) * (1.5 ** 2 - s ** 2) ** 2, 0.0)
    G = rad.RadiationProfile.from_samples(s, vals)
    probes = rng.uniform(-1.9, 1.9, size=64)
    idx = np.searchsorted(s, probes)
    assert np.max(np.abs(G.value(s[idx]) - vals[idx])) < 1e-12
    assert G.moment0(-2.0, 2.0) == pytest.approx(np.trapezoid(vals, s), abs=1e-4)


@pytest.mark.parametrize("kwargs, name", [
    ({"support": (1.0, -1.0)}, "support"),
    ({"support": (float("nan"), 1.0)}, "support"),
    ({"support": (-1.0, float("inf"))}, "support"),
    ({"support": (-1.0, 0.0, 1.0)}, "support"),
    ({"decay": float("nan")}, "decay"),
    ({"decay": float("inf")}, "decay"),
])
def test_profile_rejects_bad_support_or_decay(kwargs, name):
    with pytest.raises(ValueError, match=name):
        rad.RadiationProfile(lambda s: np.ones_like(np.asarray(s, dtype=float)), **kwargs)


@pytest.mark.parametrize("R", [float("nan"), float("inf"), 0.0, -1.0])
def test_residues_reject_non_finite_or_non_positive_radius(R):
    G = rad.RadiationProfile(lambda s: np.ones_like(np.asarray(s, dtype=float)),
                             support=(-1.0, 1.0))
    with pytest.raises(ValueError, match="radius"):
        rad.residues(G, R)


# -- the numpy spline and the closed-form moments, against scipy -----------------------


def _nonuniform_grid(n):
    # strictly increasing, spacings varying by a factor of about 3
    u = np.linspace(0.0, 1.0, n)
    return -1.0 + 3.0 * u + 0.3 * np.sin(2.0 * np.pi * u) / np.pi


def test_spline_rejects_breakpoints_whose_spacing_squared_overflows():
    with pytest.raises(ValueError, match="too far apart"):
        rad.RadiationProfile.from_samples([0.0, 1e160, 2e160, 3e160, 4e160],
                                          [0.0, 1.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("n", [2, 3, 4, 601])
def test_spline_matches_scipy(n):
    from scipy.interpolate import CubicSpline
    from exwave import _spline

    x = _nonuniform_grid(n)
    y = np.cos(2.0 * x) + 0.3 * x
    ours, theirs = _spline.cubic_spline(x, y), CubicSpline(x, y)
    probes = np.concatenate([np.linspace(x[0] - 0.5, x[-1] + 0.5, 397), x])
    for p, q in ((ours, theirs), (ours.derivative(), theirs.derivative()),
                 (ours.antiderivative(), theirs.antiderivative())):
        want = q(probes)
        got = p(probes)
        assert got.shape == probes.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        for v in probes[::13]:
            scalar = p(float(v))
            assert isinstance(scalar, float)
            assert scalar == pytest.approx(float(q(v)), rel=1e-12, abs=1e-12)
    assert np.array_equal(ours.x, x)


def _knot_split_quad(f, a, b, knots):
    """scipy's quad between the knots: f is a polynomial on each piece, which
    the first 21-point Kronrod rule integrates to rounding."""
    from scipy.integrate import quad

    cuts = [a] + [k for k in knots if a < k < b] + [b]
    return math.fsum(quad(f, lo, hi)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))


def test_stored_u1_tail_matches_quad():
    from scipy.interpolate import CubicSpline

    r = np.linspace(0.1, 3.0, 601)
    u0 = np.exp(-r) * np.cos(3.0 * r)
    u1 = np.sin(2.0 * r) / (1.0 + r * r) + 0.5
    d = rad.RadialData.from_samples(r, u0, u1)
    s1 = CubicSpline(r, u1)
    c1 = r[-1] ** 3 * u1[-1]
    # below the grid u1 continues evenly, a + b rho^2, with the value and
    # slope of the spline at r[0]
    b = s1(r[0], 1) / (2.0 * r[0])
    a = s1(r[0]) - b * r[0] ** 2
    points = np.array([0.0, 0.099, 1.2345, 3.0, 3.7])
    got = rad._u1_tail(d)(points)
    for s, g in zip(points, got):
        inner = min(max(s, r[0]), r[-1])
        want = (_knot_split_quad(lambda x: x * (a + b * x * x), min(s, r[0]), r[0], ())
                + _knot_split_quad(lambda x: x * s1(x), inner, r[-1], r)
                + c1 / max(s, r[-1]))
        assert g == pytest.approx(want, abs=1e-13)


def test_sampled_round_trip_below_the_grid():
    # data sampled from r0 = 0.1 on, as `to-data` writes them, recover the
    # profile on |s| < r0 as well as elsewhere
    G = random_smooth_profile(np.random.default_rng(7))
    r = np.linspace(0.1, 3.0, 2001)
    exact = rad.data_from_profile(G)
    d = rad.RadialData.from_samples(r, exact.u0(r), exact.u1(r))
    s = np.linspace(-0.099, 0.099, 45)
    assert np.max(np.abs(rad.profile_from_data(d).value(s) - G.value(s))) < 1e-6


def test_sampled_du0_is_the_derivative_below_the_grid():
    r = np.linspace(0.1, 3.0, 601)
    d = rad.RadialData.from_samples(r, np.exp(-r) * np.cos(3.0 * r), np.sin(2.0 * r))
    x = np.array([0.01, 0.03, 0.05, 0.08, 0.099])
    h = 1e-6
    centered = (d.u0(x + h) - d.u0(x - h)) / (2.0 * h)
    np.testing.assert_allclose(d.du0(x), centered, rtol=0, atol=1e-8)
    assert abs(d.du0(0.1 - 1e-12) - d.du0(0.1)) < 1e-9   # continuous at the grid start


def test_sampled_profile_moments_match_quad():
    from scipy.interpolate import CubicSpline

    s = np.linspace(-1.5, 1.5, 601)
    vals = np.where(np.abs(s) < 1.5, np.cos(2.0 * s) * (1.0 - (s / 1.5) ** 2) ** 3, 0.0)
    G = rad.RadiationProfile.from_samples(s, vals)
    spline = CubicSpline(s, vals)
    for a, b in ((-1.5, 1.5), (-0.1, 0.1), (-0.73, 1.21), (0.2, 1.5)):
        m1 = _knot_split_quad(lambda x: x * spline(x), a, b, s)
        m2 = _knot_split_quad(lambda x: spline(x) ** 2, a, b, s)
        assert G.moment1(a, b) == pytest.approx(m1, abs=1e-14)
        assert G._moment(2, a, b) == pytest.approx(m2, abs=1e-13)


@pytest.mark.parametrize("decay", [1.5, 2.0])
def test_profile_recovery_rejects_slow_data_decay(decay):
    power = lambda r, p: np.asarray(r, dtype=float) ** p
    d = rad.RadialData(u0=lambda r: power(r, -decay), du0=lambda r: -decay * power(r, -decay - 1.0),
                       u1=lambda r: power(r, -decay), decay=decay)
    with pytest.raises(ValueError, match="decay"):
        rad.profile_from_data(d)


@pytest.mark.parametrize("R", [1024.0, 2048.0, 1e4])
def test_wide_window_moment_of_decaying_profile(R):
    # int_{-R}^{R} s^2/(1+s^2)^3 ds = 2 [atan(R)/8 - sin(4 atan(R))/32] -> pi/8
    H = rad.RadiationProfile(
        lambda s: np.asarray(s, dtype=float) / (1.0 + np.asarray(s, dtype=float) ** 2) ** 3,
        decay=5.0)
    theta = np.arctan(R)
    assert H.moment1(-R, R) == pytest.approx(theta / 4.0 - np.sin(4.0 * theta) / 16.0, abs=1e-9)


# -- bit identity with the per-piece formulas --------------------------------------


def _bits(columns):
    return [[float(c).hex() for c in column] for column in columns]


def _line(x):
    """The polynomial x on the breakpoints x, as a PPoly."""
    from exwave import _spline

    return _spline.PPoly([[1.0] * (len(x) - 1), list(x[:-1])], list(x))


def _per_piece_spline(x, s, y):
    """The cubic pieces [t/h, (m - s0)/h - t, s0, y0] of knot slopes s, piece by piece."""
    pieces = []
    for i in range(len(x) - 1):
        h = x[i + 1] - x[i]
        m = (y[i + 1] - y[i]) / h
        t = (s[i] + s[i + 1] - 2.0 * m) / h
        pieces.append([t / h, (m - s[i]) / h - t, s[i], y[i]])
    return pieces


def _per_piece_antiderivative(pieces, x):
    deg = len(pieces[0]) - 1
    out = [[ck / (deg + 1 - k) for k, ck in enumerate(p)] for p in pieces]
    start, starts = 0.0, []
    for i, p in enumerate(out):
        starts.append(start)
        rise = 0.0
        for ck in p:
            rise = (rise + ck) * (x[i + 1] - x[i])
        start = rise if i == 0 else start + rise
    return [p + [s] for p, s in zip(out, starts)]


def _per_piece_product(p, q):
    out = []
    for pc, qc in zip(p, q):
        c = [0.0] * (len(pc) + len(qc) - 1)
        for i, a in enumerate(pc):
            for j, b in enumerate(qc):
                c[i + j] += a * b
        out.append(c)
    return out


def _columns(pieces):
    return [list(column) for column in zip(*pieces)]


# signed zeros among the values, so that the coefficients hold some too
_SIGNED_X = [-1.5, -0.75, -0.25, 0.0, 0.5, 1.25, 2.0, 2.5]
_SIGNED_Y = [-0.0, 0.0, -0.0, 1.0, -2.0, -0.0, -0.0, 0.5]


def test_spline_calculus_is_the_per_piece_loop():
    from exwave import _spline

    S = _spline.cubic_spline(_SIGNED_X, _SIGNED_Y)
    assert any(c == 0.0 and math.copysign(1.0, c) < 0 for column in S.c for c in column)
    dx = [b - a for a, b in zip(_SIGNED_X, _SIGNED_X[1:])]
    slope = [(b - a) / h for a, b, h in zip(_SIGNED_Y, _SIGNED_Y[1:], dx)]
    pieces = _per_piece_spline(_SIGNED_X, _spline._not_a_knot_slopes(_SIGNED_X, dx, slope),
                               _SIGNED_Y)
    assert _bits(S.c) == _bits(_columns(pieces))
    assert _bits(S.derivative().c) == _bits(
        _columns([[3 * p[0], 2 * p[1], 1 * p[2]] for p in pieces]))
    assert _bits(S.antiderivative().c) == _bits(
        _columns(_per_piece_antiderivative(pieces, _SIGNED_X)))
    assert _bits(_spline.product(S, S).c) == _bits(
        _columns(_per_piece_product(pieces, pieces)))


def test_times_x_is_the_product_with_the_line():
    from exwave import _spline

    # signed zeros in every power, met by breakpoints of either sign
    signed = _spline.PPoly([[-0.0, 0.0, 1.0, -0.0], [-0.0, -0.0, 2.0, 0.0],
                            [-0.0, 1.0, -0.0, -0.0], [-0.0, -0.0, 0.0, -3.0]],
                           [-1.0, -0.0, 0.5, 1.0, 2.0])
    for S in (signed, _spline.cubic_spline(_SIGNED_X, _SIGNED_Y)):
        assert _bits(_spline.times_x(S).c) == _bits(_spline.product(_line(S.x), S).c)


def _old_moment(G, m, a, b):
    """The spline moment as every call computed it: clamp, then m(b) - m(a)."""
    lo, hi = G.support
    a = min(max(a, lo), hi)
    b = min(max(b, a), hi)
    return m.at(b) - m.at(a)


@pytest.mark.parametrize("values", [
    lambda s: math.sin(3.0 * s) * (1.5 - s) * (s + 0.5),
    lambda s: -0.0 if round(4.0 * s) % 3 else 0.0,   # total mass exactly 0
], ids=["asymmetric", "zero-mass"])
def test_data_from_profile_is_the_free_wave_formula(values):
    from exwave import _spline

    s = _spline.linspace(-0.5, 1.5, 41)   # an asymmetric support
    G = rad.RadiationProfile.from_samples(s, [values(x) for x in s])
    S = G._spline
    m0 = S.antiderivative()
    m1 = _spline.product(_line(S.x), S).antiderivative()
    d = rad.data_from_profile(G)
    # inside the support, at its two ends and beyond it
    for r in (0.05, 0.3, 0.5, 0.9, 1.5, 1.7, 2.0, 3.0, 0.3):
        u0 = (_old_moment(G, m1, -r, r) - 0.0 * _old_moment(G, m0, -r, r)) / r ** 3
        u1 = (G._at(r) + G._at(-r)) / (r * r) - _old_moment(G, m0, -r, r) / r ** 3
        assert (d.u0(r).hex(), d.u1(r).hex()) == (u0.hex(), u1.hex()), r


def test_recovered_profile_is_the_per_point_formula():
    from exwave import _spline

    r = _spline.linspace(0.1, 3.0, 301)
    u0_vals = [math.exp(-x) * math.cos(3.0 * x) for x in r]
    u1_vals = [math.sin(2.0 * x) / (1.0 + x * x) + 0.5 for x in r]
    G = rad.profile_from_data(rad.RadialData.from_samples(r, u0_vals, u1_vals))
    # the sampled data and the profile formula, one spline evaluation at a time
    s0, s1 = _spline.cubic_spline(r, u0_vals), _spline.cubic_spline(r, u1_vals)
    d0 = s0.derivative()
    lo, hi = r[0], r[-1]

    def even(spline, slope):
        b = slope.at(lo) / (2.0 * lo)
        return spline.at(lo) - b * lo * lo, b

    (a0, b0), (a1, b1) = even(s0, d0), even(s1, s1.derivative())
    c0, c1 = hi ** 3 * u0_vals[-1], hi ** 3 * u1_vals[-1]
    rho_u1 = _spline.product(_line(r), s1).antiderivative()

    def extended(f, below, coef, power):
        return lambda x: coef * x ** power if x > hi else below(x) if x < lo else f.at(x)

    u0 = extended(s0, lambda x: a0 + b0 * x * x, c0, -3.0)
    u1 = extended(s1, lambda x: a1 + b1 * x * x, c1, -3.0)
    du0 = extended(d0, lambda x: 2.0 * b0 * x, -3.0 * c0, -4.0)

    def tail(s):
        below = min(s, lo)
        return (rho_u1.at(hi) - rho_u1.at(min(max(s, lo), hi))
                + 0.5 * a1 * (lo * lo - below * below) + 0.25 * b1 * (lo ** 4 - below ** 4)
                + c1 / max(s, hi))

    def fn(s):
        if s == 0.0:
            return -0.5 * tail(0.0)
        a = abs(s)
        g_even = 0.5 * (3.0 * a * u0(a) + a * a * du0(a))
        g_odd = 0.5 * a * a * u1(a) - 0.5 * tail(a)
        return (g_even if s > 0 else -g_even) + g_odd

    points = _spline.linspace(-hi, hi, 241) + [0.0, 0.05, -0.05, 0.1, -0.1]
    for s in points:
        assert G.value(s).hex() == fn(s).hex(), s
    assert G.value(hi + 0.5) == 0.0


@pytest.mark.parametrize("support", [(-0.5, 1.5), (-0.0, 0.0), (0.0, 2.0), (-1.0, -0.0)])
def test_clamp_is_the_min_max_formula(support):
    G = rad.RadiationProfile(lambda s: 1.0, support=support)
    lo, hi = G.support
    ends = (-math.inf, -2.0, -0.5, -0.0, 0.0, 0.25, 1.5, 2.0, math.inf, math.nan)
    for a in ends:
        for b in ends:
            want_a = min(max(a, lo), hi)
            want = (want_a, min(max(b, want_a), hi))
            got = G._clamp(a, b)
            # repr tells -0.0 from 0.0 and shows nan as nan
            assert tuple(map(repr, got)) == tuple(map(repr, want)), (a, b)


def test_names_defined_elsewhere_are_radiation_attributes():
    from exwave import radial_data

    # RadialData is the one name radiation serves from another module; the
    # exterior tools are reached through exwave.exterior only
    assert rad.RadialData is radial_data.RadialData
    for name in ext.__all__:
        assert not hasattr(rad, name)
    assert {getattr(rad, name).__module__ for name in rad.__all__} == {
        "exwave.radiation", "exwave.radial_data"}
    with pytest.raises(AttributeError, match="no_such_tool"):
        rad.no_such_tool


def test_profiles_have_one_constructor_and_one_evaluator():
    # built as RadiationProfile(fn, ...) or from samples, evaluated as G.value(s)
    public = {name for name in vars(rad.RadiationProfile) if not name.startswith("_")}
    assert public == {"from_samples", "zero", "value", "moment0", "moment1", "moment0_vec",
                      "moment1_vec", "l2_tail_sq", "norm_l2", "reflect", "shifted"}
    assert not callable(_smooth_bump())
