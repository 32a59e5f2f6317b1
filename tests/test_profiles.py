import math
import os

import numpy as np
import pytest

from exwave import cli, profiles
from exwave.profiles import (BlowUp, Global, NoSolutionError, find_nu2,
                             integrate_linear_profile, integrate_profile, inverse_phi,
                             phi_star_exact, quarter_period, wronskian_compare)


def test_grid_anchoring_invariants():
    for nu in (0.05, 1.0, 1.86):
        p = integrate_profile(nu, 1e-12)
        assert all(a < b for a, b in zip(p.y_nodes, p.y_nodes[1:]))
        assert p.y_nodes[0] == 0.0
        assert p.phi_nodes[0] == 0.0
        assert p.dphi_nodes[0] == pytest.approx(nu, abs=1e-14)


def test_zero_slope_gives_zero_profile():
    p = integrate_profile(0.0, 1e-12)
    assert isinstance(p.category, Global)
    assert p.sup_phi == 0.0
    assert all(v == 0.0 for v in p.phi_nodes)


def test_reference_slope_supremum():
    p = integrate_profile(1.86, 1e-12)
    assert isinstance(p.category, Global)
    assert p.sup_phi == pytest.approx(1.860262, abs=5e-5)


def test_positive_profile_at_nu_two():
    p = integrate_profile(2.0, 1e-12)
    assert isinstance(p.category, Global)
    assert all(v > 0.0 for v in p.phi_nodes[1:])


def test_blowup_category_for_large_slope():
    p = integrate_profile(20.0, 1e-12)
    assert isinstance(p.category, BlowUp)
    assert 0.0 < p.category.y_plus < 1.0
    assert max(p.phi_nodes) <= profiles.PHI_BLOWUP * 1.001


def test_negative_slope_rejected():
    with pytest.raises(ValueError):
        integrate_profile(-1.0)


def test_energy_at_values():
    p1 = integrate_profile(1.0, 1e-12)
    assert p1.energy_at(0.3) == pytest.approx(0.5, abs=1e-10)
    p186 = integrate_profile(1.86, 1e-12)
    assert p186.energy_at(0.0) == pytest.approx(0.5 * 1.86 ** 2, abs=1e-12)
    p005 = integrate_profile(0.05, 1e-12)
    assert p005.energy_at(0.5) == pytest.approx(0.00125, abs=1e-10)
    with pytest.raises(ValueError):
        p005.energy_at(1.5)


def test_energy_drift_across_slopes():
    for nu in (0.05, 0.5, 1.0, 1.5, 1.86, 2.0, 5.0, 20.0):
        p = integrate_profile(nu)
        assert p.energy_drift < 1e-8, f"nu={nu}: drift {p.energy_drift}"


def test_positivity_and_sublinearity():
    # phi > 0 and phi < nu*y on (0, 1/2]
    for nu in (0.05, 0.5, 1.0, 1.5, 2.0):
        p = integrate_profile(nu, 1e-12)
        inner = [(y, phi) for y, phi in zip(p.y_nodes, p.phi_nodes) if 0.0 < y <= 0.5]
        assert all(phi > 0.0 for _, phi in inner)
        assert all(phi < nu * y for y, phi in inner)


def test_monotone_for_large_slopes():
    for nu in (1.9, 2.5, 5.0):
        p = integrate_profile(nu, 1e-12)
        assert all(d > 0.0 for d in p.dphi_nodes), f"nu={nu} not strictly increasing"


def test_inverse_phi_reference_values():
    p = integrate_profile(1.86, 1e-10)
    assert inverse_phi(p, 2.0 ** 0.75) == pytest.approx(0.964141, abs=5e-5)
    assert inverse_phi(p, 0.1) == pytest.approx(0.053795, abs=5e-5)
    assert inverse_phi(p, 0.0) == 0.0
    # between the last node's value and the limit phi(1): only the bracket
    # from the last node to y = 1 holds the root
    z = 0.5 * (p.phi_nodes[-1] + p.category.limit_phi)
    y = inverse_phi(p, z)
    assert p.y_nodes[-1] < y <= 1.0
    assert abs(p.phi_at(y) - z) < 1e-11


def test_inverse_phi_errors():
    p = integrate_profile(1.86, 1e-10)
    with pytest.raises(NoSolutionError):
        inverse_phi(p, 10.0)
    with pytest.raises(NoSolutionError, match="never attains z=-0.5"):
        inverse_phi(p, -0.5)


def test_inverse_phi_returns_the_first_preimage():
    # the nu = 0.5 profile turns before y = 1, so it attains z twice
    posc = integrate_profile(0.5, 1e-10)
    z = 0.9 * posc.sup_phi
    assert posc.phi_nodes[-1] < z   # phi rises through z and falls back through it
    y = inverse_phi(posc, z)
    assert abs(posc.phi_at(y) - z) < 1e-11
    below = [phi - z for yk, phi in zip(posc.y_nodes, posc.phi_nodes) if yk < y]
    assert all(d < 0.0 for d in below)


def test_linear_profile_energy_at_is_its_conserved_energy():
    # the linear equation conserves phi_t^2/2 + (9/8) phi^2 = 1/2, with no
    # |phi|^(10/3) term
    lp = integrate_linear_profile(1e-12)
    y = np.array([0.0, 0.25, 0.5, 0.75, 0.95])
    assert np.max(np.abs(lp.energy_at(y) - 0.5)) < 1e-10
    assert lp.energy_at(0.5) == pytest.approx(0.5, abs=1e-10)


def test_linear_profile_is_a_global_self_similar_profile():
    # the linear equation goes through the same solve and classification as
    # the nonlinear one: phi_* = (2/3) sin((3/2) theta) ends at theta = pi/2
    # with phi = sqrt(2)/3 and phi_theta = -sqrt(2)/2, so signed flux -1/2
    lp = integrate_linear_profile()
    assert type(lp) is profiles.SelfSimilarProfile
    assert isinstance(lp.category, Global)
    assert abs(lp.category.limit_phi - math.sqrt(2.0) / 3.0) < 1e-10
    assert abs(lp.category.limit_flux + 0.5) < 1e-10
    # sup_phi is the largest node value, just below the closed form's peak 2/3
    assert lp.sup_phi == max(lp.phi_nodes)
    assert 2.0 / 3.0 - 1e-4 < lp.sup_phi <= 2.0 / 3.0
    assert lp.energy_drift < 1e-10


def test_linear_profile_matches_closed_form():
    tol = 1e-12
    lp = integrate_linear_profile(tol)
    gap = max(abs(phi - phi_star_exact(y)) for y, phi in zip(lp.y_nodes, lp.phi_nodes))
    assert gap < 10.0 * max(tol, 1e-13)
    assert lp.energy_drift < 1e-10
    # bounded by 2/3 and positive on (0, 1)
    inner = [phi for y, phi in zip(lp.y_nodes, lp.phi_nodes) if 0.0 < y < 1.0]
    assert all(phi > 0.0 for phi in inner)
    assert all(phi <= 2.0 / 3.0 + 1e-12 for phi in inner)


def test_linear_profile_phi_at_off_grid_matches_closed_form():
    lp = integrate_linear_profile(1e-12)
    ys = ((np.arange(1000) + 0.5) / 1000 * lp.y_max).tolist()
    assert not set(ys) & set(lp.y_nodes)
    gap = max(abs(lp.phi_at(y) - phi_star_exact(y)) for y in ys)
    assert gap < 1e-10


def test_float_evaluation_is_bit_equal_to_the_array_call():
    p = integrate_profile(1.86, 1e-10)
    ys = np.linspace(0.0, p.y_max, 257)
    assert p.phi_at(ys).tolist() == [p.phi_at(y) for y in ys.tolist()]
    assert p.energy_at(ys).tolist() == [p.energy_at(y) for y in ys.tolist()]
    assert phi_star_exact(ys).tolist() == [phi_star_exact(y) for y in ys.tolist()]
    assert p.phi_at(np.asarray(0.3)) == p.phi_at(0.3)
    assert type(p.phi_at(0.3)) is float


def test_huge_slope_names_state_and_tolerance():
    # the scaled norm of (0, 1e150) overflows; Python floats raise
    # OverflowError where numpy warned, so the typed error must come first
    with pytest.raises(ValueError, match=r"tol=1e-12 is too small for the initial state "
                                         r"y0=\(0\.0, 1e\+150\), or y0 too large"):
        integrate_profile(1e150)


def test_linear_profile_landmarks():
    assert phi_star_exact(math.sqrt(3.0) / 2.0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert phi_star_exact(1.0) == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-14)
    assert phi_star_exact(0.0) == 0.0


def test_phi_star_exact_rejects_bad_y():
    for bad in (2.0, -1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite with"):
            phi_star_exact(bad)
    with pytest.raises(ValueError):
        phi_star_exact(np.array([0.5, 1.0 + 1e-12]))


@pytest.mark.parametrize("nu", [0.5, 1.575, 1.86, 2.5, 5.0])
def test_global_limits_keep_the_first_integral(nu):
    # H = s^2/2 + (9/8) phi^2 - (3/10)|phi|^(10/3) = nu^2/2 at theta = pi/2,
    # with phi = limit_phi and s = phi_theta recovered from the signed flux s|s|
    c = integrate_profile(nu, 1e-12).category
    assert isinstance(c, Global)
    s = math.copysign(math.sqrt(abs(c.limit_flux)), c.limit_flux)
    phi = c.limit_phi
    potential = 0.3 * abs(phi) ** (10.0 / 3.0)
    h = 0.5 * s * s + 1.125 * phi * phi - potential
    assert abs(h - 0.5 * nu * nu) <= 1e-10 * max(0.5 * nu * nu, potential)


def test_find_nu2():
    # the fixed bracket (1.0, 1.86): turned before y = 1 at 1.0, never at 1.86
    assert quarter_period(1.0) < 0.5 * math.pi < quarter_period(1.86) == math.inf
    nu2 = find_nu2()
    assert nu2 == pytest.approx(1.575, abs=5e-3)
    prof = integrate_profile(nu2, 1e-12)
    assert abs(prof.category.limit_flux) < 1e-7
    assert find_nu2() == nu2  # determinism


def test_quarter_period_harmonic_limit():
    # small oscillations of V ~ (9/8) phi^2 have frequency 3/2; the quartic
    # softening adds a correction of order phi_t^(4/3) ~ nu^(4/3)
    for nu in (1e-3, 1e-5):
        gap = quarter_period(nu) - math.pi / 3.0
        assert 0.0 < gap < 0.2 * nu ** (4.0 / 3.0)
    assert quarter_period(1e-9) == pytest.approx(math.pi / 3.0, abs=1e-11)


def test_quarter_period_grows_to_the_separatrix():
    nu_sep = math.sqrt(2.0 * 0.45 * 2.25 ** 1.5)   # sqrt(2 V(phi*)) ~ 1.74284
    values = [quarter_period(nu) for nu in (0.5, 1.0, 1.5, 1.7, 1.74)]
    assert values == sorted(values)
    assert quarter_period(nu_sep * (1.0 + 1e-12)) == math.inf
    assert quarter_period(1.86) == math.inf


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_profiles_reject_non_finite_input(bad):
    with pytest.raises(ValueError):
        integrate_profile(bad)
    with pytest.raises(ValueError):
        integrate_profile(1.0, tol=bad)
    with pytest.raises(ValueError):
        integrate_linear_profile(tol=bad)
    with pytest.raises(ValueError):
        quarter_period(bad)


def test_wronskian_comparison():
    first, second = wronskian_compare(0.05, 0.5)
    assert first > second > 0.0
    # equal first-order data: ratio -> 1 near the origin
    f0, s0 = wronskian_compare(0.05, 1e-4)
    assert f0 / s0 == pytest.approx(1.0, abs=1e-6)
    f9, s9 = wronskian_compare(0.01, 0.9)
    assert f9 > s9
    with pytest.raises(ValueError):
        wronskian_compare(0.2, 0.5)


def test_step_halving_stability():
    sup1 = integrate_profile(1.86, 1e-8).sup_phi
    sup2 = integrate_profile(1.86, 5e-9).sup_phi
    assert abs(sup1 - sup2) < 1e-8


def test_csv_export(tmp_path):
    path = tmp_path / "phi.csv"
    assert cli.main(["profile", "--nu", "1.0", "--tol", "1e-10", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "y,phi,dphi,H"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0
    assert first[2] == pytest.approx(1.0, abs=1e-12)
    assert first[3] == pytest.approx(0.5, abs=1e-12)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 0]) > 0.0)


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.575, 1.86, 5.0, None], ids=lambda nu: f"nu={nu}")
def test_profile_to_csv_is_the_array_formula(nu, tmp_path):
    # the profile CSV as it was written from numpy arrays of the nodes, dphi
    # by np.cos: the node lists give it, and so does `exwave profile`, which
    # prints the nonlinear profiles only
    p = integrate_linear_profile() if nu is None else integrate_profile(nu)
    n = len(p.y_nodes)
    grid = np.array(p.y_nodes)
    dphi = np.array([state[1] for state in p._sol.ys[:n]]) / np.cos(p._sol.ts[:n])
    rows = zip(grid, np.array(p.phi_nodes), dphi, p.energy_at(grid))
    want = "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
    rows = zip(p.y_nodes, p.phi_nodes, p.dphi_nodes, map(p.energy_at, p.y_nodes))
    assert "".join(",".join(f"{v:.12g}" for v in row) + "\n" for row in rows) == want
    if nu is not None:
        out = tmp_path / "phi.csv"
        assert cli.main(["profile", "--nu", repr(nu), "--out", str(out)]) == 0
        assert out.read_text() == "y,phi,dphi,H\n" + want
