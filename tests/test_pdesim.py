import numpy as np
import pytest

from exwave import pdesim, profiles
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
    return rad.RadiationProfile.from_function(fn, support=(-1.0, 1.0), smooth=True)


def ground_state_setup(dr, T, r_min=1.0, r_max=11.0):
    d = rad.RadialData(u0=lambda r: ground_state(r)[0],
                       du0=lambda r: ground_state(r)[1],
                       u1=zero_fn, decay=3.0)
    cfg = pdesim.SimConfig(r_min=r_min, r_max=r_max, dr=dr, T=T, cfl=1.0,
                           boundary="dirichlet-exact",
                           boundary_values=lambda r, t: ground_state(r)[0])
    return d, cfg


def test_config_validation():
    with pytest.raises(ValueError):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.3, T=1.0)  # dr does not divide
    with pytest.raises(ValueError):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        pdesim.SimConfig(r_min=-1.0, r_max=2.0, dr=0.1, T=1.0)
    with pytest.raises(ValueError):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=1.0, boundary="dirichlet-exact")


def test_config_rejects_non_finite_numbers():
    with pytest.raises(ValueError, match="finite"):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=float("nan"), T=1.0)
    with pytest.raises(ValueError, match="finite"):
        pdesim.SimConfig(r_min=1.0, r_max=2.0, dr=0.1, T=float("inf"))


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
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, compact_support_bound=1.0)
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
                               nonlinearity="linear", boundary="dirichlet-exact",
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
                       compact_support_bound=4.0)
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
                       compact_support_bound=a)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=10.5, dr=0.02, T=2.0, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    for t in (0.5, 1.0, 2.0):
        n = tr.level(t)
        outside = tr.r > a + t + 2.0 * cfg.dr
        assert np.all(tr.w[n][outside] == 0.0)


def test_time_reversal_odd_symmetry():
    u1 = lambda r: smooth_bump(np.asarray(r) - 3.0)
    base = dict(u0=zero_fn, du0=zero_fn, compact_support_bound=4.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.5, dr=0.02, T=1.0, cfl=1.0)
    fwd = pdesim.simulate(rad.RadialData(u1=u1, **base), cfg)
    bwd = pdesim.simulate(rad.RadialData(u1=lambda r: -u1(r), **base), cfg)
    assert np.array_equal(fwd.w, -bwd.w)


def test_discrete_residual_on_random_stencils(rng):
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 3.0), du0=None,
                       u1=lambda r: 0.2 * smooth_bump(np.asarray(r) - 3.0),
                       compact_support_bound=4.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.5, dr=0.05, T=1.5, cfl=0.8)
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
        mask = tr.trusted_mask(0.5)
        rr = tr.r[mask]
        u_exact = rr ** -1.5 * prof.phi_at(0.5 / rr)
        errs.append(np.max(np.abs(tr.u_level(n)[mask] - u_exact)))
    assert 3.0 <= errs[0] / errs[1] <= 5.0


def test_blowup_guard_truncates():
    # large static data with no outlet blow up in finite time
    d = rad.RadialData(u0=lambda r: 40.0 * smooth_bump((np.asarray(r) - 3.0) / 1.5),
                       du0=None, u1=zero_fn, compact_support_bound=4.5)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.5, dr=0.02, T=4.0, cfl=1.0,
                           nonlinearity="focusing", blowup_guard=1e9)
    tr = pdesim.simulate(d, cfg)
    assert tr.blowup is not None
    assert np.all(np.isfinite(tr.w))
    assert tr.times[-1] < 4.0


def test_characteristic_identity_linear_and_focusing():
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    for nonlin in ("linear", "focusing"):
        cfg = pdesim.SimConfig(r_min=0.5, r_max=12.0, dr=0.05, T=3.3, cfl=1.0,
                               nonlinearity=nonlin, boundary="dirichlet-exact",
                               boundary_values=lambda r, t: rad.free_wave(G, r, t))
        tr = pdesim.simulate(d, cfg)
        lhs, rhs = pdesim.characteristic_integral(tr, 4.0)
        scale = max(abs(lhs), abs(rhs), 1e-3)
        assert abs(lhs - rhs) < 1e-12 * scale  # exact ray bookkeeping at cfl = 1


def test_characteristic_identity_requires_cfl_one():
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 2.0), du0=None,
                       u1=zero_fn, compact_support_bound=3.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=8.0, dr=0.05, T=2.0, cfl=0.5)
    tr = pdesim.simulate(d, cfg)
    with pytest.raises(ValueError):
        pdesim.characteristic_integral(tr, 2.0)


def test_extraction_recovers_outgoing_profile():
    G = free_wave_profile()
    d = rad.data_from_profile(G)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=26.5, dr=0.04, T=12.0, cfl=1.0,
                           nonlinearity="linear", boundary="dirichlet-exact",
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
                           nonlinearity="linear", boundary="dirichlet-exact",
                           boundary_values=lambda r, t: rad.free_wave(G, r, t))
    tr = pdesim.simulate(d, cfg)
    for s in (0.0, 0.5):
        assert abs(pdesim.extract_outgoing(tr, s) - G.value(-s)) < 5e-2


def test_extraction_zero_data():
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, compact_support_bound=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=20.5, dr=0.1, T=9.0, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    assert pdesim.extract_outgoing(tr, 1.0) == 0.0


def test_extraction_refuses_short_cone():
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, compact_support_bound=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=2.5, dr=0.1, T=0.5, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    with pytest.raises(pdesim.ConeCoverageError) as info:
        pdesim.extract_outgoing(tr, 1.0)
    assert info.value.required_r_max > 0
    # under domain-of-dependence, s below r_min is inside the pollution band
    with pytest.raises(pdesim.ConeCoverageError):
        pdesim.extract_outgoing(tr, 0.2)


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

    delta_pred = rad.nonlinear_profile_shift(fsrc, s_test, decay=8.0 / 3.0, tol=1e-11)
    assert abs(delta_sim - delta_pred) < 0.05 * abs(delta_pred)


def test_virial_formula_matches_second_difference():
    d = rad.RadialData(u0=lambda r: smooth_bump(np.asarray(r) - 3.0), du0=None,
                       u1=lambda r: 0.3 * smooth_bump(np.asarray(r) - 3.0),
                       compact_support_bound=4.0)
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
    d = rad.RadialData(u0=zero_fn, du0=zero_fn, u1=zero_fn, compact_support_bound=1.0)
    cfg = pdesim.SimConfig(r_min=0.5, r_max=6.5, dr=0.1, T=1.0, cfl=1.0)
    tr = pdesim.simulate(d, cfg)
    with pytest.raises(ValueError):
        pdesim.virial(tr, 0.5, 3.0)


def test_energy_clamps_radius_with_warning():
    d, cfg = ground_state_setup(dr=0.05, T=0.5)
    tr = pdesim.simulate(d, cfg)
    with pytest.warns(UserWarning):
        val = pdesim.energy(tr, 0.5, 0.1)
    assert np.isfinite(val)
