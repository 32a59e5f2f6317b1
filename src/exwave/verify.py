"""Verified numerical pipeline: the 16-row table, the ray-integral inequality,
the partial-sum constant C1, the linear push-up bound, and the flux-vanishing
slope nu2, each checked against published reference values.

The pipeline integrates the self-similar profile at nu0 = 1.86, inverts it on
the decreasing z-ladder z = 1.6, 1.5, ..., 0.1 (topped by the zero z0 of g),
and accumulates the telescoping products that bound the ray integral from
below.  Reference values are reproduced to 5e-5 absolute: they are printed
with six decimals and the last digit is not guaranteed, so 5e-5 separates a
real regression from rounding.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import nonlinearity as nl
from . import profiles
from .quadrature import integrate_sqrt_singular

__all__ = [
    "NU0",
    "NU1",
    "Table1Row",
    "Table1Summary",
    "ReportItem",
    "VerificationReport",
    "build_table1",
    "check_main_inequality",
    "check_upper_integral",
    "check_C1",
    "check_pushup",
    "run_all",
    "table_to_csv",
    "REFERENCE_ROWS",
    "REFERENCE_FOOTER",
]

NU0 = 1.86
NU1 = 0.05

# default tolerance ladder: ODE and quadrature at 1e-10, comparisons at 5e-5
TOL = 1e-10
CELL_TOL = 5e-5
# the total of the contributions must exceed g_minus by more than this
MARGIN_FLOOR = 0.25

# Reference values the pipeline must reproduce (six printed decimals each):
# per row (z_lo, z_hi): y_k, lambda_k, min g, cumulative product, contribution.
REFERENCE_ROWS = {
    1: (0.928249, 1.349242, 0.000000, 1.080450, 0.000000),
    2: (0.874605, 1.368272, 0.205806, 1.175515, 0.019565),
    3: (0.814979, 1.390407, 0.424393, 1.267293, 0.038950),
    4: (0.752686, 1.414727, 0.607370, 1.355949, 0.053847),
    5: (0.689656, 1.440692, 0.755546, 1.441694, 0.064784),
    6: (0.626943, 1.468010, 0.869772, 1.524739, 0.072231),
    7: (0.565085, 1.496548, 0.950941, 1.605282, 0.076591),
    8: (0.504328, 1.526275, 1.000000, 1.683491, 0.078209),
    9: (0.444745, 1.557229, 1.005877, 1.759513, 0.076469),
    10: (0.386316, 1.589504, 0.964927, 1.833473, 0.071366),
    11: (0.328960, 1.623233, 0.896364, 1.905474, 0.064539),
    12: (0.272566, 1.658595, 0.801575, 1.975601, 0.056212),
    13: (0.217003, 1.695814, 0.682111, 2.043922, 0.046603),
    14: (0.162126, 1.735163, 0.539751, 2.110492, 0.035931),
    15: (0.107779, 1.776980, 0.376608, 2.175352, 0.024426),
    16: (0.053795, 1.821679, 0.195358, 2.238527, 0.012342),
}
REFERENCE_FOOTER = {
    "sup_phi": 1.860262,
    "y0": 0.964141,
    "kappa0": 0.018257,
    "g_minus": 0.535522,
    "total": 0.792065,
}
REFERENCE_UPPER_INTEGRAL = 1.85024
REFERENCE_C1 = 0.184221
REFERENCE_PUSHUP = 0.604556
REFERENCE_NU2 = 1.575


@dataclass(frozen=True)
class Table1Row:
    k: int
    z_lo: float
    z_hi: float
    y_k: float
    lambda_k: float
    min_g: float
    product_k: float
    contribution_k: float


@dataclass(frozen=True)
class Table1Summary:
    nu0: float
    sup_phi: float
    y0: float
    kappa0: float
    g_minus: float
    total: float


@dataclass
class ReportItem:
    name: str
    computed: float
    target: float
    tolerance: float
    passed: bool
    note: str = ""

    def as_dict(self):
        return {
            "name": self.name,
            "computed": self.computed,
            "target": self.target,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "note": self.note,
        }


@dataclass
class VerificationReport:
    """Report items in a fixed order.  ``table`` keeps the (rows, summary) of
    the table block, or ``table_error`` why it failed; neither enters the
    JSON."""

    items: list = field(default_factory=list)
    table: tuple | None = None
    table_error: str = ""

    @property
    def overall(self):
        return all(item.passed for item in self.items)

    def as_dict(self):
        return {"items": [i.as_dict() for i in self.items], "overall": bool(self.overall)}

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, allow_nan=True)


def _z_ladder():
    z = [nl.g_constants().z0]
    z += [round(1.7 - 0.1 * k, 1) for k in range(1, 17)]
    return z  # z[0] = z0, z[k] = 1.7 - k/10 for k = 1..16


def build_table1(tol: float = TOL, nu0: float = NU0):
    """Build the verification table for the profile with initial slope nu0.

    Returns (rows, summary, profile).  Per row k:
    y_k is the first preimage of z_k under the profile,
    lambda_k = (1 + y_k)^(-1/2) nu0 + kappa0 * g_minus,
    min_g is the endpoint minimum of g on [z_k, z_{k-1}],
    the product column telescopes (2 lambda_j - z_j)/(2 lambda_j - z_{j-1}),
    and the contribution is min_g times the product increment.
    """
    prof = profiles.integrate_profile(nu0, tol)
    if not isinstance(prof.category, profiles.Global):
        raise profiles.ProfileError(f"profile nu={nu0} is not global; table undefined")
    sup_phi = prof.sup_phi
    g_minus = -nl.g(sup_phi)
    z = _z_ladder()
    y0 = profiles.inverse_phi(prof, z[0])
    kappa0 = (1.0 - y0) / (1.0 + y0)
    rows = []
    product = 1.0
    total = 0.0
    for k in range(1, len(z)):
        z_hi, z_lo = z[k - 1], z[k]
        y_k = profiles.inverse_phi(prof, z_lo)
        lam = nu0 / math.sqrt(1.0 + y_k) + kappa0 * g_minus
        # the ladder tops at the exact zero of g, so the first minimum is 0
        m = 0.0 if k == 1 else nl.m_k(z_lo, z_hi)
        prev = product
        product *= (2.0 * lam - z_lo) / (2.0 * lam - z_hi)
        contrib = m * (product - prev)
        total += contrib
        rows.append(Table1Row(k=k, z_lo=z_lo, z_hi=z_hi, y_k=y_k, lambda_k=lam,
                              min_g=m, product_k=product, contribution_k=contrib))
    summary = Table1Summary(nu0=nu0, sup_phi=sup_phi, y0=y0, kappa0=kappa0,
                            g_minus=g_minus, total=total)
    return rows, summary, prof


def check_main_inequality(rows, summary) -> ReportItem:
    """Total of the contributions must exceed g_minus by a definite margin."""
    margin = summary.total - summary.g_minus
    return ReportItem(
        name="main_inequality_margin",
        computed=margin,
        target=MARGIN_FLOOR,
        tolerance=0.0,
        passed=bool(summary.total > summary.g_minus and margin > MARGIN_FLOOR),
        note="total - g_minus; reference values give ~0.256543",
    )


def check_upper_integral(prof, tol: float = TOL):
    """The capped ray integral int_0^1 g(min(phi, z_max)) (1-y)^(-1/2) dy.

    Must land on the reference 1.85024 and stay strictly below nu0 = 1.86.
    Split at the y where phi crosses z_max: past it the capped integrand is
    the constant g_max, integrating to 2 g_max sqrt(1 - y_cross).
    """
    gc = nl.g_constants()
    y_cross = profiles.inverse_phi(prof, gc.z_max)

    def integrand(y):
        return nl.g(np.minimum(prof.phi_at(np.asarray(y)), gc.z_max))

    inner = integrate_sqrt_singular(integrand, 0.0, y_cross, tol)
    outer = 2.0 * gc.g_max * math.sqrt(1.0 - y_cross)
    value = inner + outer
    item_value = ReportItem(
        name="upper_integral_value",
        computed=value,
        target=REFERENCE_UPPER_INTEGRAL,
        tolerance=1e-3,
        passed=bool(abs(value - REFERENCE_UPPER_INTEGRAL) <= 1e-3),
    )
    item_below = ReportItem(
        name="upper_integral_below_nu0",
        computed=value,
        target=NU0,
        tolerance=0.0,
        passed=bool(value < NU0),
        note="strict upper bound for the ray integral",
    )
    return item_value, item_below, value


def check_C1(rows, summary):
    """Partial-sum constant over rows 12..16 with the product restarted at 12,
    plus the neutralization condition that rows 1..11 already cover g_minus,
    and the working bound C1/3 > 11 * nu1 / 10."""
    p11 = rows[10].product_k
    c1 = 0.0
    prev = 1.0
    for row in rows[11:]:
        cur = row.product_k / p11
        c1 += 2.0 * row.min_g * (cur - prev)
        prev = cur
    partial = sum(row.contribution_k for row in rows[:11])
    item_c1 = ReportItem(
        name="C1_value", computed=c1, target=REFERENCE_C1, tolerance=5e-4,
        passed=bool(abs(c1 - REFERENCE_C1) <= 5e-4),
    )
    item_neut = ReportItem(
        name="neutralization_rows_1_11",
        computed=partial,
        target=summary.g_minus,
        tolerance=0.0,
        passed=bool(partial >= summary.g_minus),
        note="sum of contributions over rows 1..11 must cover g_minus",
    )
    third = c1 / 3.0
    item_third = ReportItem(
        name="C1_over_3", computed=third, target=11.0 * NU1 / 10.0, tolerance=0.0,
        passed=bool(third > 11.0 * NU1 / 10.0),
        note="C1 * 9^(-1/2) must exceed 11*nu1/10 = 0.055",
    )
    return item_c1, item_neut, item_third


def check_pushup(tol: float = TOL):
    """Push-up integral I* = int_0^{8/9} (1-y)^(-1/2) phi_star(y) dy.

    Checks the value, the working bound (99/50) I* > 11/10, and agreement of
    the numerically integrated linear profile with its closed form.
    """
    lp = profiles.integrate_linear_profile(tol)
    i_star = integrate_sqrt_singular(lambda y: lp.phi_at(np.asarray(y)),
                                     0.0, 8.0 / 9.0, tol)
    i_exact = integrate_sqrt_singular(lambda y: profiles.phi_star_exact(np.asarray(y)),
                                      0.0, 8.0 / 9.0, tol)
    oracle_gap = max(
        abs(i_star - i_exact),
        float(np.max(np.abs(lp.phi - profiles.phi_star_exact(lp.grid)))),
    )
    item_value = ReportItem(
        name="pushup_integral", computed=i_star, target=REFERENCE_PUSHUP, tolerance=1e-4,
        passed=bool(abs(i_star - REFERENCE_PUSHUP) <= 1e-4),
    )
    factor = (99.0 / 50.0) * i_star
    item_factor = ReportItem(
        name="pushup_factor", computed=factor, target=1.1, tolerance=0.0,
        passed=bool(factor > 1.1),
        note="(99/50) I* must exceed 11/10",
    )
    item_oracle = ReportItem(
        name="pushup_closed_form_agreement", computed=oracle_gap, target=0.0,
        tolerance=1e-8, passed=bool(oracle_gap < 1e-8),
        note="numeric linear profile vs (2/3) sin((3/2) arcsin y)",
    )
    return item_value, item_factor, item_oracle


def _item_table_cells(rows, summary):
    worst = 0.0
    for row in rows:
        ref = REFERENCE_ROWS[row.k]
        comp = (row.y_k, row.lambda_k, row.min_g, row.product_k, row.contribution_k)
        worst = max(worst, max(abs(c - r) for c, r in zip(comp, ref)))
    return ReportItem(
        name="table_cells_max_abs_diff", computed=worst, target=0.0, tolerance=CELL_TOL,
        passed=bool(worst <= CELL_TOL),
        note="worst |computed - reference| over all 16 rows x 5 columns",
    )


def _item_table_footer(summary):
    comp = {
        "sup_phi": summary.sup_phi,
        "y0": summary.y0,
        "kappa0": summary.kappa0,
        "g_minus": summary.g_minus,
        "total": summary.total,
    }
    worst = max(abs(comp[k] - REFERENCE_FOOTER[k]) for k in REFERENCE_FOOTER)
    return ReportItem(
        name="table_footer_max_abs_diff", computed=worst, target=0.0, tolerance=CELL_TOL,
        passed=bool(worst <= CELL_TOL),
    )


def _item_g_constants():
    gc = nl.g_constants()
    worst = max(abs(nl.g(gc.z0)), abs(nl.dg(gc.z_max)), abs(nl.g(gc.z_max) - gc.g_max))
    return ReportItem(
        name="g_closed_form_constants", computed=worst, target=0.0, tolerance=1e-12,
        passed=bool(worst <= 1e-12),
        note="g(z0)=0, g'(z_max)=0, g(z_max)=g_max",
    )


def _item_nu2():
    nu2 = profiles.find_nu2(tol=1e-8)
    return ReportItem(
        name="nu2", computed=nu2, target=REFERENCE_NU2, tolerance=5e-3,
        passed=bool(abs(nu2 - REFERENCE_NU2) <= 5e-3),
    )


def _item_profile_drift(prof):
    return ReportItem(
        name="profile_energy_drift", computed=prof.energy_drift, target=0.0,
        tolerance=1e-8, passed=bool(prof.energy_drift < 1e-8),
    )


def run_all(tol: float = TOL, nu0: float = NU0) -> VerificationReport:
    """Run every check and assemble the report in a fixed deterministic order.

    A non-finite or nonpositive tolerance or a non-finite nu0 raises
    ValueError.  Sub-failures (for instance an injected nu0 for which the
    table cannot be built) are recorded as failing items; nothing else
    raises out of here.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerances must be finite and positive")
    if not math.isfinite(nu0):
        raise ValueError("nu0 must be finite")
    report = VerificationReport()

    def guarded(fn, *names):
        try:
            out = fn()
            return list(out) if isinstance(out, tuple) else [out]
        except Exception as exc:  # recorded, never propagated
            return [ReportItem(name=n, computed=float("nan"), target=float("nan"),
                               tolerance=0.0, passed=False, note=f"failed: {exc}")
                    for n in names]

    def table_block():
        try:
            rows, summary, prof = build_table1(tol, nu0=nu0)
        except Exception as exc:
            report.table_error = str(exc)
            raise
        report.table = (rows, summary)
        items = [_item_table_cells(rows, summary), _item_table_footer(summary),
                 check_main_inequality(rows, summary)]
        items += list(check_C1(rows, summary))
        upper_items = guarded(lambda: check_upper_integral(prof, tol)[:2],
                              "upper_integral_value", "upper_integral_below_nu0")
        items += upper_items
        items.append(_item_profile_drift(prof))
        return tuple(items)

    blocks = [
        (table_block, ("table_cells_max_abs_diff", "table_footer_max_abs_diff",
                       "main_inequality_margin", "C1_value", "neutralization_rows_1_11",
                       "C1_over_3", "upper_integral_value", "upper_integral_below_nu0",
                       "profile_energy_drift")),
        (lambda: check_pushup(tol),
         ("pushup_integral", "pushup_factor", "pushup_closed_form_agreement")),
        (_item_g_constants, ("g_closed_form_constants",)),
        (_item_nu2, ("nu2",)),
    ]
    for fn, names in blocks:
        report.items.extend(guarded(fn, *names))
    return report


def table_to_csv(rows, summary) -> str:
    """CSV text with columns exactly: k, range, y_k, lambda_k, min_g, product, contribution."""
    lines = ["k,range,y_k,lambda_k,min_g,product,contribution"]
    for row in rows:
        rng = f"{row.z_lo:g}-{row.z_hi:.6g}"
        cells = (row.y_k, row.lambda_k, row.min_g, row.product_k, row.contribution_k)
        lines.append(f"{row.k},{rng}," + ",".join(f"{v:.12g}" for v in cells))
    return "\n".join(lines) + "\n"
