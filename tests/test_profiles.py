import math
import os

import numpy as np
import pytest

from exwave import profiles
from exwave.profiles import (AmbiguousRootError, BlowUp, Global, NoSolutionError,
                             conserved_energy, find_nu2, integrate_linear_profile,
                             integrate_profile, inverse_phi, phi_star_exact,
                             profile_to_csv, quarter_period, wronskian_compare)


def test_grid_anchoring_invariants():
    for nu in (0.05, 1.0, 1.86):
        p = integrate_profile(nu, 1e-12)
        assert np.all(np.diff(p.grid) > 0.0)
        assert p.grid[0] == 0.0
        assert p.phi[0] == 0.0
        assert p.dphi[0] == pytest.approx(nu, abs=1e-14)


def test_zero_slope_gives_zero_profile():
    p = integrate_profile(0.0, 1e-12)
    assert isinstance(p.category, Global)
    assert p.sup_phi == 0.0
    assert np.all(p.phi == 0.0)


def test_reference_slope_supremum():
    p = integrate_profile(1.86, 1e-12)
    assert isinstance(p.category, Global)
    assert p.sup_phi == pytest.approx(1.860262, abs=5e-5)


def test_positive_profile_at_nu_two():
    p = integrate_profile(2.0, 1e-12)
    assert isinstance(p.category, Global)
    assert np.all(p.phi[1:] > 0.0)


def test_blowup_category_for_large_slope():
    p = integrate_profile(20.0, 1e-12)
    assert isinstance(p.category, BlowUp)
    assert 0.0 < p.category.y_plus < 1.0
    assert p.phi.max() <= profiles.PHI_BLOWUP * 1.001


def test_negative_slope_rejected():
    with pytest.raises(ValueError):
        integrate_profile(-1.0)


def test_conserved_energy_values():
    p1 = integrate_profile(1.0, 1e-12)
    assert conserved_energy(p1, 0.3) == pytest.approx(0.5, abs=1e-10)
    p186 = integrate_profile(1.86, 1e-12)
    assert conserved_energy(p186, 0.0) == pytest.approx(0.5 * 1.86 ** 2, abs=1e-12)
    p005 = integrate_profile(0.05, 1e-12)
    assert conserved_energy(p005, 0.5) == pytest.approx(0.00125, abs=1e-10)
    with pytest.raises(ValueError):
        conserved_energy(p005, 1.5)


def test_energy_drift_across_slopes():
    for nu in (0.05, 0.5, 1.0, 1.5, 1.86, 2.0, 5.0, 20.0):
        p = integrate_profile(nu)
        assert p.energy_drift < 1e-8, f"nu={nu}: drift {p.energy_drift}"


def test_positivity_and_sublinearity():
    # phi > 0 and phi < nu*y on (0, 1/2]
    for nu in (0.05, 0.5, 1.0, 1.5, 2.0):
        p = integrate_profile(nu, 1e-12)
        mask = (p.grid > 0.0) & (p.grid <= 0.5)
        assert np.all(p.phi[mask] > 0.0)
        assert np.all(p.phi[mask] < nu * p.grid[mask])


def test_monotone_for_large_slopes():
    for nu in (1.9, 2.5, 5.0):
        p = integrate_profile(nu, 1e-12)
        assert np.all(p.dphi > 0.0), f"nu={nu} not strictly increasing"


def test_inverse_phi_reference_values():
    p = integrate_profile(1.86, 1e-10)
    assert inverse_phi(p, 2.0 ** 0.75) == pytest.approx(0.964141, abs=5e-5)
    assert inverse_phi(p, 0.1) == pytest.approx(0.053795, abs=5e-5)
    assert inverse_phi(p, 0.0) == 0.0


def test_inverse_phi_errors():
    p = integrate_profile(1.86, 1e-10)
    with pytest.raises(NoSolutionError):
        inverse_phi(p, 10.0)
    # an oscillating profile attains small values more than once
    posc = integrate_profile(0.5, 1e-10)
    with pytest.raises(AmbiguousRootError) as info:
        inverse_phi(posc, 0.9 * posc.sup_phi)
    assert len(info.value.crossings) > 1


def test_linear_profile_matches_closed_form():
    tol = 1e-12
    lp = integrate_linear_profile(tol)
    gap = np.max(np.abs(lp.phi - phi_star_exact(lp.grid)))
    assert gap < 10.0 * max(tol, 1e-13)
    assert lp.energy_drift < 1e-10
    # bounded by 2/3 and positive on (0, 1)
    inner = (lp.grid > 0.0) & (lp.grid < 1.0)
    assert np.all(lp.phi[inner] > 0.0)
    assert np.all(lp.phi[inner] <= 2.0 / 3.0 + 1e-12)


def test_linear_profile_landmarks():
    assert phi_star_exact(math.sqrt(3.0) / 2.0) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert phi_star_exact(1.0) == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-14)
    assert phi_star_exact(0.0) == 0.0


def test_find_nu2():
    nu2 = find_nu2(tol=1e-8)
    assert nu2 == pytest.approx(1.575, abs=5e-3)
    prof = integrate_profile(nu2, 1e-12)
    assert abs(prof.category.limit_flux) < 1e-7
    assert find_nu2(tol=1e-8) == nu2  # determinism


def test_find_nu2_bracketing_failure():
    with pytest.raises(profiles.BracketingError):
        find_nu2(tol=1e-6, bracket=(1.7, 1.74))


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
    with pytest.raises(ValueError):
        find_nu2(tol=bad)


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


def test_truncated_run_has_no_category():
    p = integrate_profile(1.0, 1e-10, y_stop=0.5)
    assert p.category is None
    assert p.y_max == pytest.approx(0.5, abs=1e-12)


def test_csv_export(tmp_path):
    p = integrate_profile(1.0, 1e-10)
    path = tmp_path / "phi.csv"
    profile_to_csv(p, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "y,phi,dphi,H"
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0 and first[1] == 0.0
    assert first[2] == pytest.approx(1.0, abs=1e-12)
    assert first[3] == pytest.approx(0.5, abs=1e-12)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.all(np.diff(data[:, 0]) > 0.0)
