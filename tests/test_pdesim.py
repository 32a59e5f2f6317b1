import math
import re
import time

import numpy as np
import pytest

from exwave import _cli_simulate, pdesim, profiles
from exwave import exterior as ext
from exwave import radiation as rad
from exwave.nonlinearity import SIGMA4, ground_state


def smooth_bump(x):
    x = np.asarray(x, dtype=float)
    return np.where(np.abs(x) < 1.0, (1.0 - x * x) ** 3, 0.0)


def zero_fn(r):
    return np.zeros_like(np.asarray(r, dtype=float))


def free_wave_profile(amp=1.0):
    def fn(s):
        s = np.asarray(s, dtype=float)
        return amp * smooth_bump(s) * (1.0 + 0.3 * s)
    return rad.RadiationProfile(fn, support=(-1.0, 1.0), smooth=True)


def ground_state_setup(dr, T, r_min=1.0, r_max=11.0):
    d = rad.RadialData(u0=lambda r: ground_state(r)[0],
                       du0=lambda r: ground_state(r)[1],
                       u1=zero_fn, decay=3.0)
    cfg = pdesim.SimConfig(r_min=r_min, r_max=r_max, dr=dr, T=T, cfl=1.0,
                           boundary_values=lambda r, t: ground_state(r)[0])
    return d, cfg


def test_config_validation():
    with pytest.raises(ValueError):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.3, T=1.0)  # dr does not divide
    with pytest.raises(ValueError):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        pdesim.SimConfig(r_min=-1.0, r_max=2.0, dr=0.1, T=1.0)


def test_config_rejects_non_finite_numbers():
    with pytest.raises(ValueError, match="finite"):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=float("nan"), T=1.0)
    with pytest.raises(ValueError, match="finite"):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=float("inf"))


def test_config_keeps_its_fields_and_replace_checks_again():
    cfg = pdesim.SimConfig(1.0, 2.0, 0.1, 1.0)
    assert pdesim.SimConfig._fields == ("r_min", "r_max", "dr", "T", "cfl", "nonlinearity",
                                        "boundary_values")
    assert cfg == (1.0, 2.0, 0.1, 1.0, 1.0, "focusing", None)
    assert cfg._replace(cfl=0.5).dt == 0.05
    # _replace goes through the constructor, so its result is checked too
    with pytest.raises(ValueError, match=re.escape("cfl must lie in (0, 1]")):
        cfg._replace(cfl=2.0)


def _zero_run(r_min=0.5, r_max=3.0, T=0.5):
    d = rad.RadialData(u0=zero_fn, u1=zero_fn, tail_radius=r_max)
    return pdesim.simulate(d, pdesim.SimConfig(r_min=r_min, r_max=r_max, dr=0.1, T=T))


# each rejection of the simulate layer that no other test reaches
_REJECTIONS = {
    "dr-not-positive": (lambda: pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=-0.1, T=1.0),
                        "dr and T must be positive"),
    "unknown-nonlinearity": (lambda: pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=1.0,
                                                      nonlinearity="defocusing"),
                             "nonlinearity must be 'focusing' or 'linear'"),
    "time-not-stored": (lambda: _zero_run().level(-1.0), "time -1.0 is not stored"),
    "velocity-at-last-level": (lambda: _zero_run().ut_level(5), "no forward level"),
    "edge-stencil": (lambda: _zero_run().discrete_residual(0, 1),
                     "stencil must be interior"),
    "ray-foot-off-grid": (lambda: pdesim.characteristic_integral(
        _zero_run(r_min=0.55, r_max=3.05), 2.0), "grid must contain the ray foot r = 1"),
    "ray-foot-at-an-end": (lambda: pdesim.characteristic_integral(_zero_run(r_min=1.0), 2.0),
                           "r = 1 must be an interior grid node"),
    "ray-past-the-run": (lambda: pdesim.characteristic_integral(_zero_run(), 2.0),
                         "trajectory does not cover the ray up to R_prime"),
    "ray-past-the-trusted-region": (lambda: pdesim.characteristic_integral(
        _zero_run(T=2.0), 2.5), "ray endpoint outside the trusted region"),
    "bad-gspec": (lambda: _cli_simulate._parse_gspec("wave:0:1"), "bad G-spec 'wave:0:1'"),
    "non-number-gspec": (lambda: _cli_simulate._parse_gspec("bump:a:b"),
                         "bad G-spec 'bump:a:b'; use bump:lo:hi[:amp]"),
    "non-number-gspec-amp": (lambda: _cli_simulate._parse_gspec("box:0:1:x"),
                             "bad G-spec 'box:0:1:x'; use bump:lo:hi[:amp]"),
    "empty-gspec-range": (lambda: _cli_simulate._parse_gspec("box:1:0"), "G-spec needs lo < hi"),
}


@pytest.mark.parametrize("call, message", _REJECTIONS.values(), ids=_REJECTIONS.keys())
def test_simulate_layer_rejections(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_ground_state_is_stationary():
    d, cfg = ground_state_setup(dr=0.02, T=2.0)
    tr = pdesim.simulate(d, cfg)
    w_exact = ground_state(tr.r)[0]
    gap = np.max(np.abs(tr.u_level(tr.level(2.0)) - w_exact))
    assert gap < 5e-4  # O(dr^2)


def test_ground_state_energy_conservation():
    d, cfg = ground_state_setup(dr=0.02, T=2.0)
    tr = pdesim.simulate(d, cfg)
    e0 = pdesim.energy(tr, 0.0, cfg.r_min)
    e1 = pdesim.energy(tr, 2.0, cfg.r_min)
    assert abs(e1 - e0) < 1e-3 * abs(e0)


def test_zero_data_stay_zero():
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, tail_radius=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=6.5, dr=0.05, T=1.5, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    assert np.all(tr.w == 0.0)
    assert pdesim.energy(tr, 1.0, 1.0) == 0.0
    lhs, rhs = pdesim.characteristic_integral(tr, 2.0)
    assert (lhs, rhs) == (0.0, 0.0)
    assert pdesim.virial(tr, 0.5, 1.5) == (0.0, 0.0, 0.0)


def test_linear_free_wave_convergence():
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    errs = []
    for dr in (0.08, 0.04, 0.02):
        cfg = pdesim.SimConfig(r_min=1.0, r_max=9.0, dr=dr, T=2.0, cfl=1.0,
                               nonlinearity="linear",
                               boundary_values=lambda r, t: rad.free_wave(G, r, t))
        tr = pdesim.simulate(d, cfg)
        u_exact = np.array([rad.free_wave(G, ri, 2.0) for ri in tr.r])
        errs.append(np.max(np.abs(tr.u_level(tr.level(2.0)) - u_exact)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_linear_energy_constant_before_cone_exit():
    # compactly supported data: no boundary flux until the cone reaches an edge
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 3.0), du0=None,
                       u1=lambda r: 0.4 * smooth_bump(np.asarray(r) - 3.0),
                       tail_radius=4.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=17.0, dr=0.02, T=1.4, cfl=1.0,
                           nonlinearity="linear")
    tr = pdesim.simulate(d, cfg)
    es = [pdesim.energy(tr, t, cfg.r_min) for t in (0.0, 0.5, 1.0, 1.4)]
    spread = max(es) - min(es)
    assert spread < 5e-4 * max(abs(e) for e in es)


def test_finite_speed_exact():
    a = 4.0
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 3.0),
                       du0=None,
                       u1=lambda r: 0.5 * smooth_bump(np.asarray(r) - 3.0),
                       tail_radius=a)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=10.5, dr=0.02, T=2.0, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    for t in (0.5, 1.0, 2.0):
        n = tr.level(t)
        outside = tr.r > a + t + 2.0 * cfg.dr
        assert np.all(tr.w[n][outside] == 0.0)


def test_time_reversal_odd_symmetry():
    u1 = lambda r: smooth_bump(np.asarray(r) - 3.0)
    base = dict(u0=zero_fn, du0=zero_fn, tail_radius=4.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.5, dr=0.02, T=1.0, cfl=1.0)
    fwd = pdesim.simulate(rad.RadialData(u1=u1, **base), cfg)
    bwd = pdesim.simulate(rad.RadialData(u1=lambda r: -u1(r), **base), cfg)
    assert np.array_equal(fwd.w, -bwd.w)


@pytest.mark.parametrize("nonlinearity", ["focusing", "linear"])
@pytest.mark.parametrize("cfl", [0.8, 1.0])
def test_discrete_residual_on_random_stencils(rng, cfl, nonlinearity):
    # the textbook stencil, an independent check of the folded update
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 3.0), du0=None,
                       u1=lambda r: 0.2 * smooth_bump(np.asarray(r) - 3.0),
                       tail_radius=4.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.5, dr=0.05, T=1.5, cfl=cfl,
                           nonlinearity=nonlinearity)
    tr = pdesim.simulate(d, cfg)
    scale = np.max(np.abs(tr.w))
    for _ in range(50):
        i = int(rng.integers(1, len(tr.r) - 1))
        n = int(rng.integers(1, len(tr.times) - 1))
        assert abs(tr.discrete_residual(i, n)) < 1e-12 * max(scale, 1.0)


def test_self_similar_field_matches_ode():
    nu = 0.05
    prof = profiles.integrate_profile(nu, 1e-12)
    d = rad.RadialData(u0=zero_fn, du0=zero_fn,
                       u1=lambda r: nu * np.asarray(r, dtype=float) ** -2.5,
                       decay=2.5)
    errs = []
    for dr in (0.02, 0.01):
        cfg = pdesim.SimConfig(r_min=1.0, r_max=6.0, dr=dr, T=0.5, cfl=1.0,
                               nonlinearity="focusing")
        tr = pdesim.simulate(d, cfg)
        n = tr.level(0.5)
        mask = (tr.r >= 1.5 - 1e-12) & (tr.r <= 5.5 + 1e-12)   # [r_min + t, r_max - t]
        rr = tr.r[mask]
        u_exact = rr ** -1.5 * prof.phi_at(0.5 / rr)
        errs.append(np.max(np.abs(tr.u_level(n)[mask] - u_exact)))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


@pytest.mark.parametrize("T", [0.5, 0.9])
def test_pinned_nu0_self_similar_run_converges_at_order_two(T):
    # u = r^(-3/2) phi(t/r) at the paper's nu0, where |phi|^(4/3) reaches the
    # linear term's 9/4: the leapfrog against the DOPRI5 profile at full
    # nonlinear strength (the two share no code).  Pinned ends trust the grid.
    nu = 1.86
    prof = profiles.integrate_profile(nu)
    d = rad.RadialData(u0=zero_fn, du0=zero_fn,
                       u1=lambda r: nu * np.asarray(r, dtype=float) ** -2.5, decay=2.5)
    errs = []
    for dr in (0.02, 0.01, 0.005):
        cfg = pdesim.SimConfig(r_min=1.0, r_max=6.0, dr=dr, T=T,
                               boundary_values=lambda r, t: r ** -1.5 * prof.phi_at(t / r))
        tr = pdesim.simulate(d, cfg)
        n = tr.level(T)
        exact = tr.r ** -1.5 * prof.phi_at(tr.times[n] / tr.r)
        errs.append(np.max(np.abs(tr.u_level(n) / exact - 1.0)))
    assert errs[0] < 5e-5, errs   # 3.8e-5 at T = 0.5, 2.7e-5 at T = 0.9
    assert all(3.9 <= a / b <= 4.1 for a, b in zip(errs, errs[1:])), errs


def _static_bump_blowup(amp):
    # large static data with no outlet blow up in finite time
    d = rad.RadialData(u0=lambda r: amp * smooth_bump((np.asarray(r) - 3.0) / 1.5),
                       du0=None, u1=zero_fn, tail_radius=4.5)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.5, dr=0.02, T=4.0, cfl=1.0,
                           nonlinearity="focusing")
    return pdesim.simulate(d, cfg)


def test_blowup_guard_truncates():
    tr = _static_bump_blowup(40.0)
    assert tr.blowup is not None
    assert np.all(np.isfinite(tr.w))
    assert tr.times[-1] < 4.0


def test_blowup_guard_trips_on_negative_fields():
    # the update is odd in w (cbrt is odd), so flipped data give the exactly
    # flipped run; only this one crosses the guard on the negative side
    fwd = _static_bump_blowup(40.0)
    flipped = _static_bump_blowup(-40.0)
    assert flipped.blowup == fwd.blowup
    assert np.array_equal(flipped.times, fwd.times)
    assert np.array_equal(flipped.w, -fwd.w)


@pytest.mark.parametrize("T", [0.1, 0.2])
def test_blowup_guard_sees_level_one(T):
    # the Taylor step makes level 1 in the loop, so the guard reads it too:
    # dt r^2 u1 = 1e14 r^2 on the interior
    d = rad.RadialData(u0=zero_fn, u1=lambda r: np.full_like(np.asarray(r, dtype=float), 1e15),
                       tail_radius=2.0)
    tr = pdesim.simulate(d, pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=T))
    assert tr.blowup == pdesim.BlowUpTruncation(time=0.1, radius=1.9)
    assert np.array_equal(tr.times, [0.0]) and np.array_equal(tr.rows, [0])
    assert np.array_equal(tr.w, [np.zeros(11)])


def test_diagnostics_reject_a_non_finite_value():
    # r^2 u1 = 1e200 r^2: the guard stops the run at level 1, and at level 0
    # u_t^2 overflows in both diagnostics
    d = rad.RadialData(u0=zero_fn, u1=lambda r: np.full_like(np.asarray(r, dtype=float), 1e200),
                       tail_radius=4.0)
    tr = pdesim.simulate(d, pdesim.SimConfig(r_min=1.0, r_max=4.0, dr=0.1, T=0.5))
    assert tr.blowup.time == 0.1 and tr.blowup.radius == pytest.approx(3.9)
    with pytest.raises(ValueError, match=re.escape("energy at t=0.0 is not finite: inf")):
        pdesim.energy(tr, 0.0, 1.0)
    with pytest.raises(ValueError, match=re.escape("J'' at t=0.0 is not finite")):
        pdesim.virial(tr, 0.0, 1.0)


def test_simulate_rejects_initial_data_past_the_guard():
    cfg = pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=0.1)
    # |r^2 u0| > BLOWUP_GUARD at r = 1 already; 1e307 r^2 overflows to inf
    for u0 in (1.01e12, -1e200, 1e307):
        d = rad.RadialData(u0=lambda r, u0=u0: np.full_like(np.asarray(r, dtype=float), u0),
                           u1=zero_fn, tail_radius=2.0)
        with pytest.raises(ValueError, match=re.escape("blow-up guard: |r^2 u0| > 1e+12")):
            pdesim.simulate(d, cfg)
    # at the guard is data, not blow-up: w = 1e12 on the frozen end r = 1
    d = rad.RadialData(u0=lambda r: np.where(np.asarray(r) == 1.0, 1e12, 0.0), u1=zero_fn,
                       tail_radius=2.0)
    tr = pdesim.simulate(d, cfg)
    assert tr.blowup is None and tr.w[1][0] == 1e12


def test_guard_filter_passes_a_large_row_below_the_guard():
    # the sum of squares, 6.5e27, exceeds the guard's square: the exact test decides
    row = np.full(8001, 0.9e12)
    assert np.dot(row, row) > pdesim.BLOWUP_GUARD ** 2
    assert not pdesim._exceeds_guard(row)
    row[4321] = -pdesim.BLOWUP_GUARD  # at the guard, not past it
    assert not pdesim._exceeds_guard(row)
    assert not pdesim._exceeds_guard(np.zeros(8001))


@pytest.mark.parametrize("value", [math.nextafter(1e12, math.inf),
                                   -math.nextafter(1e12, math.inf),
                                   math.nan, math.inf, -math.inf])
def test_guard_trips_on_one_entry_past_it(value):
    row = np.full(8001, 0.5)
    row[4321] = value
    assert pdesim._exceeds_guard(row)
    row[4321] = math.copysign(1e12, value) if math.isfinite(value) else 0.0
    assert not pdesim._exceeds_guard(row)


def test_characteristic_identity_linear_and_focusing():
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    for nonlin in ("linear", "focusing"):
        cfg = pdesim.SimConfig(r_min=0.5, r_max=12.0, dr=0.05, T=3.3, cfl=1.0,
                               nonlinearity=nonlin,
                               boundary_values=lambda r, t: rad.free_wave(G, r, t))
        tr = pdesim.simulate(d, cfg)
        lhs, rhs = pdesim.characteristic_integral(tr, 4.0)
        scale = max(abs(lhs), abs(rhs), 1e-3)
        assert abs(lhs - rhs) < 1e-12 * scale  # exact ray bookkeeping at cfl = 1


def test_characteristic_identity_requires_cfl_one():
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 2.0), du0=None,
                       u1=zero_fn, tail_radius=3.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.0, dr=0.05, T=2.0, cfl=0.5)
    tr = pdesim.simulate(d, cfg)
    with pytest.raises(ValueError):
        pdesim.characteristic_integral(tr, 2.0)


def test_extraction_recovers_outgoing_profile():
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=26.5, dr=0.04, T=12.0, cfl=1.0,
                           nonlinearity="linear",
                           boundary_values=lambda r, t: rad.free_wave(G, r, t))
    tr = pdesim.simulate(d, cfg)
    for s in (-0.5, 0.0, 0.5):
        got = pdesim.extract_outgoing(tr, s)
        assert abs(got - G.value(-s)) < 5e-3  # outgoing = reflected incoming


def test_extraction_below_unit_cfl():
    # off-lattice rays are sampled by interpolation; accuracy degrades with
    # the leapfrog dispersion at cfl < 1 but the extraction still converges
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=26.5, dr=0.04, T=12.0, cfl=0.8,
                           nonlinearity="linear",
                           boundary_values=lambda r, t: rad.free_wave(G, r, t))
    tr = pdesim.simulate(d, cfg)
    for s in (0.0, 0.5):
        assert abs(pdesim.extract_outgoing(tr, s) - G.value(-s)) < 5e-2


def test_extraction_top_sample_stays_inside_a_pinned_cone():
    # t1 = r_max - s = 2.75 lies half a level below 2.8, the level it rounds to
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=3.0, dr=0.1, T=4.0, cfl=1.0, nonlinearity="linear",
                           boundary_values=lambda r, t: rad.free_wave(G, r, t))
    tr = pdesim.simulate(d, cfg)
    assert abs(pdesim.extract_outgoing(tr, 0.25) - G.value(-0.25)) < 5e-2


def test_extraction_zero_data():
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, tail_radius=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=20.5, dr=0.1, T=9.0, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    assert pdesim.extract_outgoing(tr, 1.0) == 0.0


def test_extraction_refuses_short_cone():
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, tail_radius=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=2.5, dr=0.1, T=0.5, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    with pytest.raises(pdesim.ConeCoverageError) as info:
        pdesim.extract_outgoing(tr, 1.0)
    assert info.value.required_r_max > 0
    # with frozen ends, s below r_min is inside the pollution band
    with pytest.raises(pdesim.ConeCoverageError):
        pdesim.extract_outgoing(tr, 0.2)


def test_extraction_error_names_a_run_that_extracts():
    # frozen ends: the cone (r_max - s - dr) / 2 must reach 8 levels
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=2.5, dr=0.1, T=0.5, cfl=1.0, nonlinearity="linear")
    with pytest.raises(pdesim.ConeCoverageError) as info:
        pdesim.extract_outgoing(pdesim.simulate(d, cfg), 1.0)
    err = info.value
    assert str(err).endswith(f"the run needs T >= {err.required_T:.12g} and "
                             f"r_max >= {err.required_r_max:.12g}")
    cfg = pdesim.SimConfig(r_min=0.5, r_max=err.required_r_max, dr=0.1, T=err.required_T,
                           cfl=1.0, nonlinearity="linear")
    assert math.isfinite(pdesim.extract_outgoing(pdesim.simulate(d, cfg), 1.0))


def test_born_level_extraction_matches_profile_shift():
    """Focusing evolution of small data: the change of the outgoing profile
    relative to the linear evolution matches the first-order source formula."""
    from exwave.nonlinearity import F

    G = free_wave_profile(amp=1e-3)
    d = rad.data_from_profile(G)
    s_test = 0.5
    kw = dict(r_min=0.25, r_max=50.25, dr=0.05, T=24.0, cfl=1.0)
    tr_lin = pdesim.simulate(d, pdesim.SimConfig(nonlinearity="linear", **kw))
    tr_foc = pdesim.simulate(d, pdesim.SimConfig(nonlinearity="focusing", **kw))
    delta_sim = (pdesim.extract_outgoing(tr_foc, s_test)
                 - pdesim.extract_outgoing(tr_lin, s_test))

    def fsrc(t, rho):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        r_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        tb, rb = np.broadcast_arrays(t_arr, r_arr)
        out = np.array([F(rad.free_wave(G, r_, t_)) if r_ > 0 else 0.0
                        for t_, r_ in zip(tb.ravel(), rb.ravel())])
        out = out.reshape(tb.shape)
        return out if (np.ndim(t) or np.ndim(rho)) else float(out.ravel()[0])

    delta_pred = ext.nonlinear_profile_shift(fsrc, s_test, decay=8.0 / 3.0, tol=1e-11)
    assert abs(delta_sim - delta_pred) < 0.05 * abs(delta_pred)


def test_virial_formula_matches_second_difference():
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 3.0), du0=None,
                       u1=lambda r: 0.3 * smooth_bump(np.asarray(r) - 3.0),
                       tail_radius=4.0)
    diffs = []
    for dr in (0.04, 0.02, 0.01):
        cfg = pdesim.SimConfig(r_min=0.5, r_max=15.5, dr=dr, T=1.0, cfl=1.0,
                               nonlinearity="linear")
        tr = pdesim.simulate(d, cfg)
        t, scale = 0.48, 4.0
        j0, _, jpp = pdesim.virial(tr, t, scale)
        jm = pdesim.virial(tr, t - cfg.dt, scale)[0]
        jp = pdesim.virial(tr, t + cfg.dt, scale)[0]
        diffs.append(abs((jp - 2.0 * j0 + jm) / cfg.dt ** 2 - jpp))
    assert 3.0 <= diffs[0] / diffs[1] <= 5.0
    assert 3.0 <= diffs[1] / diffs[2] <= 5.0


def test_virial_stationary_ground_state():
    d, cfg = ground_state_setup(dr=0.02, T=2.0, r_min=0.5, r_max=15.5)
    tr = pdesim.simulate(d, cfg)
    scale = 4.0
    j0, jp0, _ = pdesim.virial(tr, 0.0, scale)
    j1, jp1, _ = pdesim.virial(tr, 2.0 - cfg.dt, scale)
    assert abs(j1 - j0) < 1e-4 * abs(j0)
    assert abs(jp0) < 1e-6 * abs(j0)
    assert abs(jp1) < 1e-4 * abs(j0)


def test_virial_rejects_oversized_cutoff():
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, tail_radius=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=6.5, dr=0.1, T=1.0, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    with pytest.raises(ValueError):
        pdesim.virial(tr, 0.5, 3.0)


def test_energy_rejects_a_radius_off_the_grid():
    d, cfg = ground_state_setup(dr=0.05, T=0.5)
    tr = pdesim.simulate(d, cfg)
    for bad in (0.1, tr.r[-1] + 0.05):
        with pytest.raises(ValueError, match=re.escape(f"R={bad} outside the grid [1.0, 11.0]")):
            pdesim.energy(tr, 0.5, bad)
    assert np.isfinite(pdesim.energy(tr, 0.5, tr.r[-1]))


def test_energy_rejects_non_finite_radius():
    d, cfg = ground_state_setup(dr=0.05, T=0.5)
    tr = pdesim.simulate(d, cfg)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="R must be finite"):
            pdesim.energy(tr, 0.5, bad)


def test_time_lookups_reject_non_finite_t():
    d, cfg = ground_state_setup(dr=0.05, T=0.5)
    tr = pdesim.simulate(d, cfg)
    for bad in (float("nan"), float("inf")):
        for lookup in (tr.level, lambda t: pdesim.energy(tr, t, 1.0),
                       lambda t: pdesim.virial(tr, t, 1.0)):
            with pytest.raises(ValueError, match="t must be finite"):
                lookup(bad)


def test_virial_rejects_bad_scale():
    d, cfg = ground_state_setup(dr=0.05, T=0.5)
    tr = pdesim.simulate(d, cfg)
    for bad in (-1.0, 0.0, float("nan"), -float("inf")):
        with pytest.raises(ValueError, match="scale must be finite and positive"):
            pdesim.virial(tr, 0.25, bad)


def test_outgoing_levels_reject_non_finite_s():
    G = free_wave_profile()
    cfg = pdesim.SimConfig(r_min=0.5, r_max=20.5, dr=0.1, T=9.0, cfl=1.0,
                           nonlinearity="linear",
                           boundary_values=lambda r, t: rad.free_wave(G, r, t))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="s must be finite"):
            pdesim.outgoing_levels(cfg, 41, bad)


def test_characteristic_integral_rejects_bad_endpoint():
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, tail_radius=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=6.5, dr=0.05, T=1.5, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    for bad in (0.5, 1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="R_prime must be finite and past the ray foot"):
            pdesim.characteristic_integral(tr, bad)
    # off-node endpoints are rejected, not rounded to the nearest node
    for bad in (1.524, 4.024, 4.0249):
        with pytest.raises(ValueError, match="is not a grid node"):
            pdesim.characteristic_integral(tr, bad)


def test_smooth_cutoff_and_its_derivative():
    assert np.all(pdesim.smooth_cutoff(np.linspace(-1.0, 2.0, 31)) == 1.0)
    assert np.all(pdesim.smooth_cutoff(np.linspace(3.0, 6.0, 31)) == 0.0)
    x = np.linspace(2.01, 2.99, 99)
    h = 1e-6
    centred = (pdesim.smooth_cutoff(x + h) - pdesim.smooth_cutoff(x - h)) / (2.0 * h)
    _, dphi = pdesim._cutoff(x)
    assert np.max(np.abs(dphi - centred)) < 1e-8


def _recorder_cases():
    G = free_wave_profile()
    gs_d, gs_cfg = ground_state_setup(dr=0.05, T=2.0)
    bump_data = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 3.0), du0=None,
                               u1=lambda r: 0.4 * smooth_bump(np.asarray(r) - 3.0),
                               tail_radius=4.0)
    nu = 100.0
    self_similar = rad.RadialData(u0=zero_fn, du0=zero_fn,
                                  u1=lambda r: nu * np.asarray(r, dtype=float) ** -2.5,
                                  decay=2.5)
    return {
        "focusing-dirichlet-exact": (gs_d, gs_cfg),
        "linear-free-wave": (rad.data_from_profile(G), pdesim.SimConfig(
            r_min=0.5, r_max=12.0, dr=0.05, T=3.3, nonlinearity="linear",
            boundary_values=lambda r, t: rad.free_wave(G, r, t))),
        "domain-of-dependence": (bump_data, pdesim.SimConfig(
            r_min=0.5, r_max=17.0, dr=0.02, T=1.4, cfl=0.8, nonlinearity="linear")),
        "self-similar-blowup": (self_similar, pdesim.SimConfig(
            r_min=1.0, r_max=3.0, dr=0.01, T=1.0)),
    }


@pytest.mark.parametrize("case", list(_recorder_cases()))
def test_kept_levels_are_bit_identical_to_full_run(case):
    d, cfg = _recorder_cases()[case]
    full = pdesim.simulate(d, cfg)
    if case == "self-similar-blowup":
        assert full.blowup is not None
    kept = [0, 1, 2, cfg.n_t // 3, cfg.n_t // 2, cfg.n_t]
    part = pdesim.simulate(d, cfg, levels=kept)
    assert np.array_equal(part.times, full.times)
    assert part.blowup == full.blowup
    reached = [n for n in kept if n < len(full.times)]
    assert len(part.w) == len(reached)
    for n in reached:
        assert np.array_equal(part.w_level(n), full.w_level(n))
        assert np.array_equal(part.w_level(n), full.w[n])


def test_missing_level_raises_and_names_it():
    d, cfg = ground_state_setup(dr=0.05, T=1.0)
    tr = pdesim.simulate(d, cfg, levels=[0, 4, 5, 6])
    with pytest.raises(ValueError, match="level 7 "):
        tr.w_level(7)
    with pytest.raises(ValueError, match="level 3 "):
        tr.ut_level(4)
    with pytest.raises(ValueError, match="level 999 "):
        tr.w_level(999)
    assert np.array_equal(tr.ut_level(5), pdesim.simulate(d, cfg).ut_level(5))


def test_levels_outside_the_run_are_rejected():
    d, cfg = ground_state_setup(dr=0.05, T=1.0)
    for bad in ([cfg.n_t + 1], [-1]):
        with pytest.raises(ValueError, match="levels"):
            pdesim.simulate(d, cfg, levels=bad)


def test_outgoing_levels_suffice_for_extraction():
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=26.5, dr=0.04, T=12.0, cfl=1.0,
                           nonlinearity="linear",
                           boundary_values=lambda r, t: rad.free_wave(G, r, t))
    full = pdesim.simulate(d, cfg)
    for s in (-0.5, 0.5):
        levels = pdesim.outgoing_levels(cfg, cfg.n_t + 1, s)
        assert len(levels) == 6
        part = pdesim.simulate(d, cfg, levels=levels)
        assert pdesim.extract_outgoing(part, s) == pdesim.extract_outgoing(full, s)


def test_simulate_rejects_non_finite_initial_data():
    cfg = pdesim.SimConfig(r_min=1.0, r_max=3.0, dr=0.01, T=0.5)
    for u0, u1 in ((zero_fn, lambda r: np.full_like(np.asarray(r, dtype=float), np.nan)),
                   (lambda r: np.asarray(r, dtype=float) * np.inf, zero_fn)):
        d = rad.RadialData(u0=u0, du0=None, u1=u1, tail_radius=3.0)
        with pytest.raises(ValueError, match="finite"):
            pdesim.simulate(d, cfg)


def test_config_work_budget_rejects_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="steps"):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.5, T=1e7)
    with pytest.raises(ValueError, match="steps"):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.5, T=1e13)
    # within the step budget, but 10^6 radii x 2 * 10^4 steps
    with pytest.raises(ValueError, match="point-steps"):
        pdesim.SimConfig(r_min=1.0, r_max=101.0, dr=1e-4, T=2.0)
    assert time.perf_counter() - start < 1.0
    assert pdesim.MAX_STEPS >= 100 * 3200             # the benchmark grid, with room
    assert pdesim.MAX_POINT_STEPS >= 100 * 8001 * 3200
