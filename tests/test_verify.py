import json

import numpy as np
import pytest

from exwave import verify


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


def test_main_inequality_fails_when_truncated():
    rows, summary, _ = verify.build_table1(n_rows=11)
    item = verify.check_main_inequality(rows, summary)
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
    report = verify.run_all(ode_tol=1e-2)
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


def test_report_json_deterministic():
    a = verify.run_all().to_json()
    b = verify.run_all().to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["overall"] is True
    assert all(isinstance(item["computed"], float) for item in payload["items"])


def test_table_csv_format(table):
    rows, summary, _ = table
    lines = verify.table_to_csv(rows, summary).splitlines()
    assert lines[0] == "k,range,y_k,lambda_k,min_g,product,contribution"
    assert len(lines) == 17
    cells = lines[8].split(",")
    assert cells[0] == "8"
    assert cells[1] == "0.9-1"
    assert float(cells[2]) == pytest.approx(0.504328, abs=5e-5)
