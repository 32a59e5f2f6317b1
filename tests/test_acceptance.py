"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and values.
"""

import time

import numpy as np
import pytest

from exwave import cli, pdesim, profiles, verify
from exwave import exterior as ext
from exwave import radiation as rad
from exwave.nonlinearity import SIGMA4, ground_state
from tests.conftest import random_smooth_profile


def report(name, passed, detail=""):
    print(f"ACCEPT {name}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def table():
    t0 = time.time()
    rows, summary, prof = verify.build_table1()
    elapsed = time.time() - t0
    return rows, summary, prof, elapsed


def test_01_table_reproduction(table):
    rows, summary, _, elapsed = table
    worst = 0.0
    for row in rows:
        ref = verify.REFERENCE_ROWS[row.k]
        comp = (row.y_k, row.lambda_k, row.min_g, row.product_k, row.contribution_k)
        worst = max(worst, max(abs(c - r) for c, r in zip(comp, ref)))
    footer = {
        "sup_phi": summary.sup_phi, "y0": summary.y0, "kappa0": summary.kappa0,
        "g_minus": summary.g_minus, "total": summary.total,
    }
    worst = max(worst, max(abs(footer[k] - verify.REFERENCE_FOOTER[k])
                           for k in verify.REFERENCE_FOOTER))
    report("01 table reproduction",
           worst <= 5e-5 and elapsed < 10.0,
           f"(max |diff| = {worst:.2e} over 16x5 cells + footer, built in {elapsed:.2f} s)")


def test_02_main_inequality(table):
    rows, summary, _, _ = table
    margin = summary.total - summary.g_minus
    report("02 main inequality", margin > 0.25,
           f"(total - g_minus = {margin:.6f} > 0.25)")


def test_03_upper_integral(table):
    _, _, prof, _ = table
    _, _, value = verify.check_upper_integral(prof)
    report("03 upper integral",
           abs(value - 1.85024) <= 1e-3 and value < 1.86,
           f"(value = {value:.6f}, target 1.85024 +- 1e-3, strictly < 1.86)")


def test_04_c1_and_neutralization(table):
    rows, summary, _, _ = table
    item_c1, item_neut, item_third = verify.check_C1(rows, summary)
    ok = (abs(item_c1.computed - 0.184221) <= 5e-4
          and item_third.computed > 0.055 and item_neut.passed)
    report("04 C1 block", ok,
           f"(C1 = {item_c1.computed:.6f}, C1/3 = {item_third.computed:.6f} > 0.055, "
           f"rows 1-11 sum = {item_neut.computed:.6f} >= g_minus = {summary.g_minus:.6f})")


def test_05_pushup():
    item_value, item_factor, item_oracle = verify.check_pushup()
    ok = (abs(item_value.computed - 0.604556) <= 1e-4
          and item_factor.computed > 1.1 and item_oracle.computed < 1e-8)
    report("05 push-up", ok,
           f"(I* = {item_value.computed:.6f}, (99/50) I* = {item_factor.computed:.5f} > 1.1, "
           f"closed-form gap = {item_oracle.computed:.2e} < 1e-8)")


def test_06_nu2():
    nu2 = profiles.find_nu2()
    report("06 nu2", abs(nu2 - 1.575) <= 5e-3, f"(nu2 = {nu2:.6f}, target 1.575 +- 0.005)")


def test_07_conserved_drift():
    worst = 0.0
    for nu in (0.05, 0.5, 1.0, 1.5, 1.86, 2.0, 5.0):
        worst = max(worst, profiles.integrate_profile(nu).energy_drift)
    report("07 conserved drift", worst < 1e-8,
           f"(max drift over the slope sweep = {worst:.2e} < 1e-8)")


def test_08_isometry_and_exterior_identity(rng):
    worst_iso = 0.0
    profiles_drawn = [random_smooth_profile(rng) for _ in range(20)]
    for G in profiles_drawn:
        d = rad.data_from_profile(G)
        full = ext.exterior_energy(d, 1e-3)
        target = 2.0 * SIGMA4 * G.norm_l2 ** 2
        worst_iso = max(worst_iso, abs(full - target) / target)
    worst_ext = 0.0
    for G in profiles_drawn[:3]:
        d = rad.data_from_profile(G)
        for R in (0.5, 1.0, 2.0, 10.0):
            a = ext.exterior_energy(d, R)
            b = ext.exterior_energy_identity(G, R)
            worst_ext = max(worst_ext, abs(a - b) / max(a, b, 1e-30))
    report("08 isometry + exterior identity",
           worst_iso < 1e-7 and worst_ext < 1e-8,
           f"(20 profiles: isometry rel err = {worst_iso:.2e} < 1e-7; "
           f"identity rel err = {worst_ext:.2e} < 1e-8 at R in {{0.5,1,2,10}})")


def test_09_round_trip_and_ground_state_residues(rng):
    G = random_smooth_profile(rng)
    d = rad.data_from_profile(G)
    G2 = rad.profile_from_data(d)
    s = rng.uniform(-1.5, 1.5, size=100)
    trip = float(np.max(np.abs(G2.value(s) - G.value(s))))

    data_w = rad.RadialData(u0=lambda r: ground_state(r)[0],
                            du0=lambda r: ground_state(r)[1],
                            u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                            decay=3.0)
    GW = rad.profile_from_data(data_w)
    worst_tau2 = 0.0
    worst_tau1 = 0.0
    for R in (1.0, 5.0, 20.0):
        pair = rad.residues(GW, R)
        target = np.sqrt(3.0) * R ** 1.5 * ground_state(R)[0]
        worst_tau2 = max(worst_tau2, abs(pair.tau2 - target))
        worst_tau1 = max(worst_tau1, abs(pair.tau1))
    report("09 round trip + residues of (W, 0)",
           trip < 1e-8 and worst_tau2 < 1e-8 and worst_tau1 < 1e-10,
           f"(round trip = {trip:.2e} < 1e-8; tau2 gap = {worst_tau2:.2e} < 1e-8; "
           f"tau1 = {worst_tau1:.2e} < 1e-10)")


def test_10_translation_law(rng):
    worst = 0.0
    for _ in range(3):
        G = random_smooth_profile(rng)
        a1, a2 = rad.asymptotic_numbers(G)
        for t0 in (-3.0, 0.7, 10.0):
            b1, b2 = rad.asymptotic_numbers(G.shifted(t0))
            worst = max(worst, abs(b1 - a1), abs(b2 - (a2 + a1 * t0)))
    report("10 translation law", worst < 1e-9,
           f"(max deviation from (a1, a2 + a1 t0) = {worst:.2e} at t0 in {{-3, 0.7, 10}})")


def _free_wave_profile():
    def fn(s):
        s = np.asarray(s, dtype=float)
        return np.where(np.abs(s) < 1.0, (1.0 - s * s) ** 3 * (1.0 + 0.3 * s), 0.0)
    return rad.RadiationProfile(fn, support=(-1.0, 1.0), smooth=True)


def test_11_simulator():
    G = _free_wave_profile()
    d = rad.data_from_profile(G)
    # (a) free-wave convergence under dr-halving, down to dr/16; only the
    # final level is kept
    errs = []
    for dr in (0.08, 0.04, 0.02, 0.01, 0.005):
        cfg = pdesim.SimConfig(r_min=1.0, r_max=9.0, dr=dr, T=2.0, cfl=1.0,
                               nonlinearity="linear",
                               boundary_values=lambda r, t: rad.free_wave(G, r, t))
        tr = pdesim.simulate(d, cfg, levels=[cfg.n_t])
        u_exact = np.array([rad.free_wave(G, ri, 2.0) for ri in tr.r])
        errs.append(np.max(np.abs(tr.u_level(tr.level(2.0)) - u_exact)))
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    conv_ok = all(3.5 <= q <= 4.5 for q in ratios)

    # (b) (W, 0) drift over T = 5 at dr = 0.01 (energy and energy norm)
    dW = rad.RadialData(u0=lambda r: ground_state(r)[0],
                        du0=lambda r: ground_state(r)[1],
                        u1=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
                        decay=3.0)
    cfgW = pdesim.SimConfig(r_min=1.0, r_max=11.0, dr=0.01, T=5.0, cfl=1.0,
                            boundary_values=lambda r, t: ground_state(r)[0])
    trW = pdesim.simulate(dW, cfgW)
    e_drift = abs(pdesim.energy(trW, 5.0, 1.0) - pdesim.energy(trW, 0.0, 1.0))
    n = trW.level(5.0) - 1
    du = trW.u_level(n) - ground_state(trW.r)[0]
    ddu = np.gradient(du, trW.r)
    norm_drift = float(np.sqrt(SIGMA4 * np.trapezoid(
        (ddu ** 2 + trW.ut_level(n) ** 2) * trW.r ** 4, trW.r)))
    w_ok = e_drift < 1e-3 and norm_drift < 1e-3

    # (c) characteristic identity at three resolutions
    id_gaps = []
    for dr in (0.1, 0.05, 0.025):
        cfgC = pdesim.SimConfig(r_min=0.5, r_max=12.0, dr=dr, T=3.3, cfl=1.0,
                                nonlinearity="focusing",
                                boundary_values=lambda r, t: rad.free_wave(G, r, t))
        trC = pdesim.simulate(d, cfgC)
        lhs, rhs = pdesim.characteristic_integral(trC, 4.0)
        id_gaps.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-6))
    ident_ok = all(gap <= dr_ * dr_ for gap, dr_ in zip(id_gaps, (0.1, 0.05, 0.025)))

    # (d) exact discrete finite speed
    def bump3(r):
        return np.where(np.abs(np.asarray(r) - 3.0) < 1.0,
                        (1.0 - (np.asarray(r) - 3.0) ** 2) ** 3, 0.0)
    dF = rad.RadialData(u0=bump3, du0=None, u1=bump3, tail_radius=4.0)
    cfgF = pdesim.SimConfig(r_min=0.5, r_max=10.5, dr=0.02, T=2.0, cfl=1.0)
    trF = pdesim.simulate(dF, cfgF)
    nF = trF.level(2.0)
    speed_ok = bool(np.all(trF.w[nF][trF.r > 4.0 + 2.0 + 2 * cfgF.dr] == 0.0))

    report("11 simulator", conv_ok and w_ok and ident_ok and speed_ok,
           f"(convergence ratios {', '.join(f'{q:.3f}' for q in ratios)} in [3.5, 4.5]; "
           f"W drifts: energy {e_drift:.2e}, norm {norm_drift:.2e} < 1e-3; "
           f"ray-identity gaps {[f'{g:.1e}' for g in id_gaps]} <= dr^2; "
           f"finite speed exact: {speed_ok})")


def test_12_virial_second_difference():
    def bump3(r):
        return np.where(np.abs(np.asarray(r) - 3.0) < 1.0,
                        (1.0 - (np.asarray(r) - 3.0) ** 2) ** 3, 0.0)
    d = rad.RadialData(u0=bump3, du0=None,
                       u1=lambda r: 0.3 * bump3(r), tail_radius=4.0)
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
    r1, r2 = diffs[0] / diffs[1], diffs[1] / diffs[2]
    report("12 virial second difference", 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0,
           f"(gaps {[f'{d_:.2e}' for d_ in diffs]} shrink by {r1:.2f}, {r2:.2f} "
           "across dt halving: O(dt^2))")


def test_13_negative_control(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--nu0", "1.0", "--out", str(out)])
    report("13 negative control", code == 3,
           f"(verify --nu0 1.0 exits with code {code}, expected 3)")
