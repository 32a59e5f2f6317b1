"""Verified numerical pipeline: the 16-row table, the ray-integral inequality,
the partial-sum constant C1, the linear push-up bound, and the flux-vanishing
slope nu2, each checked against published reference values.

The pipeline integrates the self-similar profile at nu0 = 1.86, inverts it on
the decreasing z-ladder z = 1.6, 1.5, ..., 0.1 (topped by the zero z0 of g),
and accumulates the telescoping products that bound the ray integral from
below.  Reference values are reproduced to 5e-5 absolute: they are printed
with six decimals and the last digit is not guaranteed, so 5e-5 separates a
real regression from rounding.

Every function returns values; ``cli`` writes the table CSV and the report
JSON.
"""

from __future__ import annotations

import math
from collections import namedtuple

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


Table1Row = namedtuple(
    "Table1Row", "k z_lo z_hi y_k lambda_k min_g product_k contribution_k")

Table1Summary = namedtuple("Table1Summary", "nu0 sup_phi y0 kappa0 g_minus total")


ReportItem = namedtuple("ReportItem", "name computed target tolerance passed note",
                        defaults=("",))


class VerificationReport:
    """Report items in a fixed order; ``cli`` writes them and ``overall`` as
    report.json.  ``table`` keeps the rows of the table block, or
    ``table_error`` why it failed; neither enters the JSON."""

    def __init__(self):
        self.items = []
        self.table = None
        self.table_error = ""

    @property
    def overall(self):
        return all(item.passed for item in self.items)


class _Check(namedtuple("_Check", "name target tolerance rule note", defaults=("",))):
    """The declaration of one report item: ``rule`` names the comparison in
    ``_RULES`` that decides ``passed`` from (computed, target, tolerance).
    A target of None is supplied by the run."""

    __slots__ = ()

    def judge(self, computed, target=None) -> ReportItem:
        target = self.target if target is None else target
        passed = bool(_RULES[self.rule](computed, target, self.tolerance))
        return ReportItem(self.name, computed, target, self.tolerance, passed, self.note)

    def failed(self, exc) -> ReportItem:
        """The item of a block that raised: computed None, as declared otherwise."""
        return ReportItem(self.name, None, self.target, self.tolerance, False, f"failed: {exc}")


_RULES = {
    "|c-t| <= tol": lambda c, t, tol: abs(c - t) <= tol,
    "|c-t| < tol": lambda c, t, tol: abs(c - t) < tol,
    "c > t": lambda c, t, tol: c > t,
    "c >= t": lambda c, t, tol: c >= t,
    "c < t": lambda c, t, tol: c < t,
}

# Every report item, declared once, in report order.
_CELLS = _Check("table_cells_max_abs_diff", 0.0, CELL_TOL, "|c-t| <= tol",
                "worst |computed - reference| over all 16 rows x 5 columns")
_FOOTER = _Check("table_footer_max_abs_diff", 0.0, CELL_TOL, "|c-t| <= tol")
_MARGIN = _Check("main_inequality_margin", MARGIN_FLOOR, 0.0, "c > t",
                 "total - g_minus; reference values give ~0.256543")
_C1 = _Check("C1_value", REFERENCE_C1, 5e-4, "|c-t| <= tol")
_NEUTRALIZATION = _Check("neutralization_rows_1_11", None, 0.0, "c >= t",
                         "sum of contributions over rows 1..11 must cover g_minus")
_C1_THIRD = _Check("C1_over_3", 11.0 * NU1 / 10.0, 0.0, "c > t",
                   "C1 * 9^(-1/2) must exceed 11*nu1/10 = 0.055")
_UPPER = (_Check("upper_integral_value", REFERENCE_UPPER_INTEGRAL, 1e-3, "|c-t| <= tol"),
          _Check("upper_integral_below_nu0", NU0, 0.0, "c < t",
                 "strict upper bound for the ray integral"))
_DRIFT = _Check("profile_energy_drift", 0.0, 1e-8, "|c-t| < tol")
_TABLE_BLOCK = (_CELLS, _FOOTER, _MARGIN, _C1, _NEUTRALIZATION, _C1_THIRD, *_UPPER, _DRIFT)
_PUSHUP = (_Check("pushup_integral", REFERENCE_PUSHUP, 1e-4, "|c-t| <= tol"),
           _Check("pushup_factor", 1.1, 0.0, "c > t", "(99/50) I* must exceed 11/10"),
           _Check("pushup_closed_form_agreement", 0.0, 1e-8, "|c-t| < tol",
                  "numeric linear profile vs (2/3) sin((3/2) arcsin y)"))
_G_CONSTANTS = _Check("g_closed_form_constants", 0.0, 1e-12, "|c-t| <= tol",
                      "g(z0)=0, g'(z_max)=0, g(z_max)=g_max")
_NU2 = _Check("nu2", REFERENCE_NU2, 5e-3, "|c-t| <= tol")


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
    return _MARGIN.judge(summary.total - summary.g_minus)


def check_upper_integral(prof, tol: float = TOL):
    """The capped ray integral int_0^1 g(min(phi, z_max)) (1-y)^(-1/2) dy.

    Must land on the reference 1.85024 and stay strictly below nu0 = 1.86.
    The split at y_cross, the first y where phi reaches z_max, is the cap:
    phi < z_max on [0, y_cross), and past it the capped integrand is the
    constant g_max, integrating to 2 g_max sqrt(1 - y_cross).
    """
    gc = nl.g_constants()
    y_cross = profiles.inverse_phi(prof, gc.z_max)

    def integrand(y):
        return nl.g(prof.phi_at(y))

    inner = integrate_sqrt_singular(integrand, 0.0, y_cross, tol)
    value = inner + 2.0 * gc.g_max * math.sqrt(1.0 - y_cross)
    return (*(check.judge(value) for check in _UPPER), value)


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
    return (_C1.judge(c1), _NEUTRALIZATION.judge(partial, target=summary.g_minus),
            _C1_THIRD.judge(c1 / 3.0))


def check_pushup(tol: float = TOL):
    """Push-up integral I* = int_0^{8/9} (1-y)^(-1/2) phi_star(y) dy.

    Checks the value, the working bound (99/50) I* > 11/10, and agreement of
    the numerically integrated linear profile with its closed form.
    """
    lp = profiles.integrate_linear_profile(tol)
    i_star = integrate_sqrt_singular(lp.phi_at, 0.0, 8.0 / 9.0, tol)
    i_exact = integrate_sqrt_singular(profiles.phi_star_exact, 0.0, 8.0 / 9.0, tol)
    oracle_gap = max(abs(i_star - i_exact),
                     *(abs(phi - profiles.phi_star_exact(y))
                       for y, phi in zip(lp.y_nodes, lp.phi_nodes)))
    computed = (i_star, (99.0 / 50.0) * i_star, oracle_gap)
    return tuple(check.judge(c) for check, c in zip(_PUSHUP, computed))


def _table_cells_gap(rows):
    """Worst |computed - reference| over all 16 rows x 5 cells."""
    return max(0.0, *(max(abs(c - r) for c, r in zip(
        (row.y_k, row.lambda_k, row.min_g, row.product_k, row.contribution_k),
        REFERENCE_ROWS[row.k])) for row in rows))


def _g_constants_gap():
    gc = nl.g_constants()
    return max(abs(nl.g(gc.z0)), abs(nl.dg(gc.z_max)), abs(nl.g(gc.z_max) - gc.g_max))


def run_all(tol: float = TOL, nu0: float = NU0) -> VerificationReport:
    """Run every check and assemble the report in a fixed deterministic order.

    A tolerance that is not finite and positive, or a nu0 that is not finite
    and nonnegative, raises ValueError.  A block that raises (say, at a nu0
    for which the table cannot be built) is recorded as its declared items,
    all failing with the error as their note; nothing else raises out of here.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerances must be finite and positive")
    if not (math.isfinite(nu0) and nu0 >= 0):
        raise ValueError("nu0 must be finite and nonnegative")
    report = VerificationReport()

    def guarded(checks, block):
        try:
            return list(block())
        except Exception as exc:  # recorded, never propagated
            return [check.failed(exc) for check in checks]

    def table_block():
        try:
            rows, summary, prof = build_table1(tol, nu0=nu0)
        except Exception as exc:
            report.table_error = str(exc)
            raise
        report.table = rows
        footer_gap = max(abs(getattr(summary, key) - ref)
                         for key, ref in REFERENCE_FOOTER.items())
        return [_CELLS.judge(_table_cells_gap(rows)), _FOOTER.judge(footer_gap),
                check_main_inequality(rows, summary), *check_C1(rows, summary),
                *guarded(_UPPER, lambda: check_upper_integral(prof, tol)[:2]),
                _DRIFT.judge(prof.energy_drift)]

    # each block looks its check up when it runs, so a function patched on
    # this module (as bench/tracing.py does) is the one called
    blocks = [
        (_TABLE_BLOCK, table_block),
        (_PUSHUP, lambda: check_pushup(tol)),
        ((_G_CONSTANTS,), lambda: [_G_CONSTANTS.judge(_g_constants_gap())]),
        ((_NU2,), lambda: [_NU2.judge(profiles.find_nu2())]),
    ]
    for checks, block in blocks:
        report.items.extend(guarded(checks, block))
    return report

