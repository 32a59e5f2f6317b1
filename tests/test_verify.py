import json

import numpy as np
import pytest

from exwave import cli, verify


@pytest.fixture(scope="module")
def table():
    return verify.build_table1()


def test_row8_reference(table):
    rows, _, _ = table
    row = rows[7]
    assert row.y_k == pytest.approx(0.504328, abs=5e-5)
    assert row.lambda_k == pytest.approx(1.526275, abs=5e-5)
    assert row.min_g == pytest.approx(1.000000, abs=5e-5)
    assert row.product_k == pytest.approx(1.683491, abs=5e-5)
    assert row.contribution_k == pytest.approx(0.078209, abs=5e-5)


def test_all_cells_against_reference(table):
    rows, _, _ = table
    for row in rows:
        ref = verify.REFERENCE_ROWS[row.k]
        comp = (row.y_k, row.lambda_k, row.min_g, row.product_k, row.contribution_k)
        for c, r in zip(comp, ref):
            assert c == pytest.approx(r, abs=5e-5)


def test_footer_against_reference(table):
    _, summary, _ = table
    assert summary.sup_phi == pytest.approx(1.860262, abs=5e-5)
    assert summary.y0 == pytest.approx(0.964141, abs=5e-5)
    assert summary.kappa0 == pytest.approx(0.018257, abs=5e-5)
    assert summary.g_minus == pytest.approx(0.535522, abs=5e-5)
    assert summary.total == pytest.approx(0.792065, abs=5e-5)


def test_structural_row_invariants(table):
    rows, _, _ = table
    products = [row.product_k for row in rows]
    assert all(b > a for a, b in zip(products, products[1:]))
    assert all(row.contribution_k >= 0.0 for row in rows)
    assert rows[0].contribution_k == 0.0  # m_1 = g(z0) = 0 exactly
    assert rows[0].z_hi == pytest.approx(2.0 ** 0.75, abs=1e-15)
    for row in rows[1:]:
        assert row.z_hi - row.z_lo == pytest.approx(0.1, abs=1e-12)


def test_main_inequality(table):
    rows, summary, _ = table
    item = verify.check_main_inequality(rows, summary)
    assert item.passed
    assert item.computed == pytest.approx(0.256543, abs=1e-4)


def test_main_inequality_fails_when_truncated(table):
    rows, summary, _ = table
    summary = summary._replace(total=sum(row.contribution_k for row in rows[:11]))
    item = verify.check_main_inequality(rows[:11], summary)
    assert not item.passed  # the 11-row total clears g_minus but not the margin
    assert summary.total > summary.g_minus


def test_upper_integral(table):
    _, _, prof = table
    item_value, item_below, value = verify.check_upper_integral(prof)
    assert item_value.passed and item_below.passed
    assert value == pytest.approx(1.85024, abs=1e-3)
    assert value < 1.86


def test_upper_integral_capping_monotonicity(table):
    # dropping the cap can only decrease the integrand (g falls past z_max)
    from exwave import nonlinearity as nl
    from exwave.quadrature import integrate_sqrt_singular
    _, _, prof = table
    _, _, capped = verify.check_upper_integral(prof)
    raw = integrate_sqrt_singular(
        lambda y: nl.g(prof.phi_at(np.asarray(y))), 0.0, 1.0, 1e-9)
    assert capped > raw


def test_c1_block(table):
    rows, summary, _ = table
    item_c1, item_neut, item_third = verify.check_C1(rows, summary)
    assert item_c1.passed
    assert item_c1.computed == pytest.approx(0.184221, abs=5e-4)
    assert item_neut.passed
    assert item_neut.computed >= summary.g_minus
    assert item_third.passed
    assert item_third.computed == pytest.approx(0.061407, abs=1e-4)


def test_pushup_block():
    item_value, item_factor, item_oracle = verify.check_pushup()
    assert item_value.passed
    assert item_value.computed == pytest.approx(0.604556, abs=1e-4)
    assert item_factor.passed
    assert item_factor.computed == pytest.approx(1.19702, abs=1e-3)
    assert item_factor.computed > 1.1
    assert item_oracle.passed
    assert item_oracle.computed < 1e-8


def test_run_all_default_passes():
    report = verify.run_all()
    assert report.overall
    assert len(report.items) >= 12


def test_run_all_coarse_tolerance_still_passes():
    report = verify.run_all(tol=1e-2)
    assert report.overall


def test_run_all_negative_control():
    report = verify.run_all(nu0=1.0)
    assert not report.overall
    assert any(not item.passed for item in report.items)


def test_table_rejects_blowup_slope():
    from exwave import profiles
    with pytest.raises(profiles.ProfileError):
        verify.build_table1(nu0=20.0)


def test_run_all_sensitivity_probe():
    # a perturbed slope reruns the whole pipeline and reports whatever it finds
    report = verify.run_all(nu0=1.80)
    assert len(report.items) >= 12
    assert all(np.isfinite(i.computed) or not i.passed for i in report.items)


def _names(report):
    return [item.name for item in report.items]


def test_run_all_lists_every_item_in_a_fixed_order():
    names = _names(verify.run_all())
    assert len(names) == len(set(names)) == 14
    assert names[0] == "table_cells_max_abs_diff" and names[-1] == "nu2"
    negative = verify.run_all(nu0=1.0)
    assert _names(negative) == names
    assert _names(verify.run_all(nu0=1.8)) == names
    # at nu0 = 1.0 the table cannot be built: its block fails as a whole
    assert all(not item.passed and item.note.startswith("failed: ")
               for item in negative.items[:9])


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


@pytest.mark.parametrize("check, n_failed", [("build_table1", 9), ("check_upper_integral", 2),
                                             ("check_pushup", 3)])
def test_run_all_fails_only_the_block_that_raised(monkeypatch, check, n_failed):
    names = _names(verify.run_all())
    # run_all looks the checks up when it calls them, so a patched one is used
    monkeypatch.setattr(verify, check, _raise)
    report = verify.run_all()
    assert _names(report) == names
    failed = [item for item in report.items if item.note == "failed: injected"]
    assert len(failed) == n_failed
    assert all(not item.passed and item.computed is None for item in failed)
    assert all(item.passed for item in report.items if item not in failed)


def test_report_json_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert cli.main(["verify", "--out", str(path)]) == 0
    a, b = (path.read_text() for path in paths)
    assert a == b
    payload = json.loads(a)
    assert payload["overall"] is True
    assert all(isinstance(item["computed"], float) for item in payload["items"])


def test_table_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    assert cli.main(["table1", "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "k,range,y_k,lambda_k,min_g,product,contribution"
    assert len(lines) == 17
    cells = lines[8].split(",")
    assert cells[0] == "8"
    assert cells[1] == "0.9-1"
    assert float(cells[2]) == pytest.approx(0.504328, abs=5e-5)


def test_find_nu2_takes_at_most_14_quarter_periods(monkeypatch):
    from exwave import profiles

    calls = []
    quarter_period = profiles.quarter_period
    monkeypatch.setattr(profiles, "quarter_period",
                        lambda nu: calls.append(nu) or quarter_period(nu))
    assert profiles.find_nu2() == pytest.approx(1.575, abs=1e-3)
    assert len(calls) <= 14   # plain bisection took 29


def test_table_roots_take_at_most_16_phi_at_calls_each(monkeypatch):
    from exwave import profiles

    per_root = []    # phi_at calls of each inverse_phi call, in order
    inside = [False]
    inverse_phi = profiles.inverse_phi
    phi_at = profiles.SelfSimilarProfile.phi_at

    def counted_root(p, z, *args):
        per_root.append(0)
        inside[0] = True
        try:
            return inverse_phi(p, z, *args)
        finally:
            inside[0] = False

    def counted_phi_at(self, y):
        if inside[0]:
            per_root[-1] += 1
        return phi_at(self, y)

    monkeypatch.setattr(profiles, "inverse_phi", counted_root)
    monkeypatch.setattr(profiles.SelfSimilarProfile, "phi_at", counted_phi_at)
    verify.build_table1()
    assert len(per_root) == 17, per_root   # y0 and the 16 rows
    assert max(per_root) <= 16, per_root   # plain bisection took 41.3 on average

